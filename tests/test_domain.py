"""Domain classification, windows and validation errors."""

from __future__ import annotations

import math

import pytest

import rlpower as rl
from rlpower.domain import (
    DomainSpec,
    EvalWindow,
    IntegerExp,
    RationalExp,
    classify_domain,
    format_domain,
    require_in_window,
    require_points,
)
from rlpower.errors import (
    CenteredNotAnalytic,
    EvalAtLowerLimit,
    LowerLimitOutsideDomain,
    WindowViolation,
)


def test_classify_integer_cases():
    assert classify_domain(0.0, rl.beta_int(3)) is DomainSpec.ALL_REALS
    assert classify_domain(0.0, rl.beta_int(0)) is DomainSpec.ALL_REALS
    assert classify_domain(0.0, rl.beta_int(-2)) is DomainSpec.ALL_REALS_EXCEPT_D


def test_classify_rational_cases():
    assert classify_domain(0.0, rl.beta_rational(1, 2)) is DomainSpec.CLOSED_FROM_D
    assert classify_domain(0.0, rl.beta_rational(-1, 2)) is DomainSpec.OPEN_FROM_D
    assert classify_domain(0.0, rl.beta_rational(2, 3)) is DomainSpec.ALL_REALS


def test_classify_real_case():
    assert classify_domain(0.0, rl.beta_real(math.sqrt(2))) is DomainSpec.OPEN_FROM_D


def test_no_float_sniffing():
    # 0.5 entered as a real is RealExp and keeps the conservative open domain
    assert classify_domain(0.0, rl.beta_real(0.5)) is DomainSpec.OPEN_FROM_D


def test_rational_normalizes_to_lowest_terms():
    b = rl.beta_rational(2, 4)
    assert isinstance(b, RationalExp)
    assert (b.p, b.q) == (1, 2)
    assert isinstance(rl.beta_rational(4, 2), IntegerExp)
    assert rl.beta_rational(4, 2).m == 2
    assert rl.beta_rational(1, -2) == RationalExp(-1, 2)


def test_rational_q_one_rejected_directly():
    with pytest.raises(ValueError):
        RationalExp(3, 1)
    with pytest.raises(ValueError):
        RationalExp(1, 0)
    # reduced when built directly too
    assert RationalExp(4, 6) == rl.beta_rational(2, 3)


def test_exponents_equal_only_within_their_class():
    # the records are tuples, but an exponent is not equal to one of
    # another class with the same fields, nor to a bare tuple
    assert rl.beta_int(1) != rl.beta_real(1.0)
    assert not rl.beta_int(1) == rl.beta_real(1.0)
    assert rl.beta_int(1) != (1,)
    assert rl.beta_rational(1, 2) != (1, 2)
    assert rl.beta_int(1) == rl.beta_int(1)
    assert len({rl.beta_int(1), rl.beta_real(1.0), rl.beta_int(1)}) == 2
    with pytest.raises(AttributeError):
        rl.beta_int(1).m = 2
    assert repr(rl.beta_rational(2, 4)) == "RationalExp(p=1, q=2)"


def test_make_window_rejects_a_outside_domain():
    pf = rl.power_function(1.0, rl.beta_real(math.sqrt(2)))
    with pytest.raises(LowerLimitOutsideDomain):
        rl.make_window(0.0, pf)


def test_make_window_above():
    pf = rl.power_function(1.0, rl.beta_int(-1))
    win = rl.make_window(2.0, pf)
    assert (win.a, win.t_sup) == (2.0, 3.0)


def test_make_window_below():
    pf = rl.power_function(1.0, rl.beta_int(-2))
    win = rl.make_window(0.0, pf)
    assert (win.a, win.t_sup) == (0.0, 0.5)


def test_window_asymmetry_above_twice_below():
    # same eps: the above-side window is exactly twice as long
    pf_above = rl.power_function(0.0, rl.beta_real(2.2))
    pf_below = rl.power_function(2.0, rl.beta_int(2))
    for eps in (0.5, 1.0, 3.0):
        wa = rl.make_window(eps, pf_above)
        wb = rl.make_window(2.0 - eps, pf_below)
        assert (wa.t_sup - wa.a) == pytest.approx(2 * (wb.t_sup - wb.a))


def test_centered_polynomial_window():
    pf = rl.power_function(1.5, rl.beta_int(2))
    win = rl.make_window(1.5, pf)
    assert math.isinf(win.t_sup)


def test_centered_rejected_for_nonpolynomial():
    pf = rl.power_function(0.0, rl.beta_rational(1, 2))
    with pytest.raises(CenteredNotAnalytic):
        rl.make_window(0.0, pf)
    pf2 = rl.power_function(0.0, rl.beta_int(-1))
    with pytest.raises(CenteredNotAnalytic):
        rl.make_window(0.0, pf2)


def test_check_t_half_open():
    pf = rl.power_function(1.0, rl.beta_int(-1))
    win = rl.make_window(2.0, pf)     # eps = 1 -> [2, 3)
    require_in_window(win, 2.5)
    require_in_window(win, 2.0)       # t = a always accepted
    for t in (3.0, 1.9):              # open upper boundary, below a
        with pytest.raises(WindowViolation):
            require_in_window(win, t)


def test_require_in_window_raises_outside():
    pf = rl.power_function(1.0, rl.beta_int(-1))
    win = rl.make_window(2.0, pf)     # [2, 3)
    require_in_window(win, 2.0)
    for t in (3.0, 1.9):
        with pytest.raises(WindowViolation) as exc:
            require_in_window(win, t)
        assert str(exc.value) == f"t={t!r} outside window [2.0, 3.0)"


@pytest.mark.parametrize("win, sa, ts, error", [
    # the first point at fault in the points' order, ascending or descending
    ((1.0, 2.0), 0.5, [2.5, 1.5, 0.5], "WindowViolation: t=2.5"),
    ((1.0, 2.0), 0.5, [0.5, 1.5, 2.5], "WindowViolation: t=0.5"),
    ((1.0, 2.0), -0.5, [1.0, 1.5, 2.5], "EvalAtLowerLimit: t = a = 1.0"),
    ((1.0, 2.0), -0.5, [2.5, 1.5, 1.0], "WindowViolation: t=2.5"),
    (None, -0.5, [1.5, 1.0, 0.5], "EvalAtLowerLimit: t = a = 1.0"),
    (None, 0.5, [1.5, 1.0, 0.5], "ValueError: t=0.5 below the lower limit 1.0"),
    # points that keep both rules
    ((1.0, 2.0), 0.5, [1.0, 1.5, 1.9], None),
    ((1.0, 2.0), -1.0, [1.0, 1.5], None),
    ((1.0, 2.0), -0.5, [1.5, 1.9], None),
    (None, -0.5, [5.0, 1.5], None),
])
def test_require_points(win, sa, ts, error):
    window = None if win is None else EvalWindow(*win)
    if error is None:
        require_points(window, 1.0, 0.0, sa, ts)
        return
    with pytest.raises((WindowViolation, EvalAtLowerLimit, ValueError)) as exc:
        require_points(window, 1.0, 0.0, sa, ts)
    assert f"{type(exc.value).__name__}: {exc.value}".startswith(error)


def test_require_points_admits_the_centered_lower_limit():
    # at a = d the derivative's one term is the centered form, which decides
    # on t = a itself
    pf = rl.power_function(1.0, rl.beta_int(2))
    require_points(rl.make_window(1.0, pf), 1.0, 1.0, -0.5, [1.0, 4.0])


def test_branch_power_even_rational_below_shift():
    pf = rl.power_function(2.0, rl.beta_rational(2, 3))
    assert pf.value(1.0) == pytest.approx(1.0)
    assert pf.value(2.0) == 0.0
    assert pf.value(10.0) == pytest.approx(4.0, rel=1e-14)


def test_branch_power_integer_below_shift():
    pf = rl.power_function(2.0, rl.beta_int(-3))
    assert pf.value(1.0) == pytest.approx(-1.0)
    assert pf.value(0.0) == pytest.approx(-0.125)


def test_value_outside_domain_raises():
    pf = rl.power_function(0.0, rl.beta_real(0.5))
    with pytest.raises(ValueError):
        pf.value(-1.0)


def test_format_domain_strings():
    assert format_domain(DomainSpec.OPEN_FROM_D, 1.0) == "(1, +inf)"
    assert format_domain(DomainSpec.ALL_REALS, 0.0) == "R"


@pytest.mark.parametrize("d, beta", [
    (math.inf, rl.beta_int(2)),
    (math.nan, rl.beta_int(2)),
    (0.0, rl.beta_real(math.inf)),
    (0.0, rl.beta_real(-math.inf)),
    (0.0, rl.beta_real(math.nan)),
    (0.0, rl.beta_int(10**309)),
    (0.0, rl.beta_rational(10**400, 3)),
], ids=["d-inf", "d-nan", "beta-inf", "beta-neg-inf", "beta-nan",
        "beta-huge-int", "beta-huge-rational"])
def test_power_function_rejects_non_finite(d, beta):
    # an exponent a float cannot hold is a ValueError, not an OverflowError
    # from a kernel further down
    with pytest.raises(ValueError, match="finite"):
        rl.power_function(d, beta)
