"""Quadrature oracle: hand-integrable cases, the derivative (the Caputo
split on product rules) and its bound against 40-digit mpmath on both
backends, the log case, the Chebyshev product rules (their moments, nodes and
proven bounds on window cells and on the graded panels) and the route body
over a grid against the one-point entries."""

from __future__ import annotations

import math
import random
import time

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rlpower as rl
from rlpower import _kernels_py, oracle
from rlpower.domain import IntegerExp, RationalExp, beta_value, branch_power
from rlpower.errors import (EvalAtLowerLimit, PoleInsideInterval, ToleranceNotMet,
                            ValueOverflow)

from conftest import KERNEL_MODULES, use_kernels
from reference import (centered_exact, displaced_exact, log_reference,
                       shift_inside_exact)

SQRT_PI = 1.7724538509055160273


def _antiderivative_shift(beta):
    if isinstance(beta, IntegerExp):
        return rl.beta_int(beta.m + 1)
    if isinstance(beta, RationalExp):
        return rl.beta_rational(beta.p + beta.q, beta.q)
    return rl.beta_real(beta.x + 1.0)


def classical_integral(pf, a, t):
    """Exact integral of (x-d)^beta over [a, t] on the real branch."""
    b = beta_value(pf.beta)
    if abs(b + 1.0) < 1e-12:
        return math.log(abs(t - pf.d)) - math.log(abs(a - pf.d))
    up = _antiderivative_shift(pf.beta)
    upper = branch_power(t - pf.d, up)
    lower = branch_power(a - pf.d, up)
    return (upper - lower) / (b + 1.0)


def test_quad_hand_integrable_case():
    pf = rl.power_function(0.0, rl.beta_int(1))
    got = rl.quad_rlfi(pf, 1.0, 0.5, 1.5).value
    hand = (3.0 * math.sqrt(0.5) - (2.0 / 3.0) * 0.5 ** 1.5) / SQRT_PI
    assert got == pytest.approx(hand, rel=1e-11)


def test_quad_zero_length():
    pf = rl.power_function(0.0, rl.beta_int(2))
    assert rl.quad_rlfi(pf, 1.0, 0.5, 1.0).value == 0.0


def test_quad_alpha_one_is_classical_integral():
    for beta, a, t, d in (
        (rl.beta_int(3), 1.0, 1.8, 0.0),
        (rl.beta_rational(1, 2), 1.0, 1.9, 0.0),
        (rl.beta_real(-1.5), 0.5, 0.9, 0.0),
        (rl.beta_int(-2), 1.0, 1.4, 2.0),
    ):
        pf = rl.power_function(d, beta)
        got = rl.quad_rlfi(pf, a, 1.0, t).value
        assert got == pytest.approx(classical_integral(pf, a, t), rel=1e-11)


def test_quad_alpha_one_log_case():
    pf = rl.power_function(0.0, rl.beta_int(-1))
    got = rl.quad_rlfi(pf, 2.0, 1.0, 2.5).value
    assert got == pytest.approx(math.log(1.25), rel=1e-12)


def test_quad_alpha_zero_is_identity():
    pf = rl.power_function(0.0, rl.beta_rational(1, 2))
    assert rl.quad_rlfi(pf, 1.0, 0.0, 1.44).value == pytest.approx(1.2, rel=1e-13)


def test_quad_pole_inside_interval():
    pf = rl.power_function(1.5, rl.beta_int(-2))
    with pytest.raises(PoleInsideInterval):
        rl.quad_rlfi(pf, 1.0, 0.5, 2.0)


def test_quad_refinement_monotone():
    # halving tolerances never worsens the error against a hand value
    pf = rl.power_function(0.0, rl.beta_rational(1, 2))
    exact = classical_integral(pf, 1.0, 1.9)
    errs = []
    for tol in (1e-7, 1e-9, 1e-11):
        errs.append(abs(rl.quad_rlfi(pf, 1.0, 1.0, 1.9, tol).value - exact))
    assert errs[2] <= errs[0] + 1e-15


def test_quad_rlfd_linear_centered():
    pf = rl.power_function(0.0, rl.beta_int(1))
    got = rl.quad_rlfd(pf, 0.0, 0.5, 1.0)
    assert got.value == pytest.approx(2.0 / SQRT_PI, rel=1e-8)
    assert got.error_estimate < 1e-6


def test_quad_rlfd_constant():
    pf = rl.power_function(0.0, rl.beta_int(0))
    got = rl.quad_rlfd(pf, 0.0, 0.5, 1.0)
    assert got.value == pytest.approx(1.0 / SQRT_PI, rel=1e-8)


def test_quad_rlfd_alpha_one_classical():
    pf = rl.power_function(0.0, rl.beta_int(2))
    got = rl.quad_rlfd(pf, 0.0, 1.0, 1.5)
    assert got.value == pytest.approx(3.0, rel=1e-8)


def test_quad_rlfd_at_lower_limit_is_typed():
    pf = rl.power_function(0.0, rl.beta_int(2))
    for alpha, t in ((1.0, 1.0), (0.5, 1.0), (0.5, 0.5)):
        with pytest.raises(EvalAtLowerLimit):
            rl.quad_rlfd(pf, 1.0, alpha, t)


def test_log_reference_values():
    closed, ser = log_reference(2.0, 0.0, 2.5)
    assert closed == pytest.approx(math.log(1.25), rel=1e-15)
    assert ser == pytest.approx(closed, rel=1e-12)


def test_log_reference_at_start():
    closed, ser = log_reference(2.0, 0.0, 2.0)
    assert closed == 0.0
    assert ser == 0.0


def test_log_reference_near_radius_edge():
    closed, ser = log_reference(2.0, 0.0, 3.9)
    assert abs(ser - closed) <= 1e-12 * max(1.0, abs(closed))


def test_log_reference_out_of_radius():
    with pytest.raises(ValueError, match="radius"):
        log_reference(2.0, 0.0, 4.1)
    with pytest.raises(ValueError, match="d < a"):
        log_reference(2.0, 3.0, 3.5)


def test_quadrature_config_floor():
    # the tolerance floor applies to both oracles before any other check; a
    # NaN tolerance fails it too, where the panels would otherwise be halved
    # down to the float resolution
    pf = rl.power_function(0.0, rl.beta_int(2))
    for quad in (rl.quad_rlfi, rl.quad_rlfd):
        for tol in (1e-17, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="not achievable"):
                quad(pf, 1.0, 0.0, 1.2, tol)


def test_quad_far_shift_is_not_a_staircase():
    # t - a = 4e5 next to |d| = 5e15: the integrand is evaluated in offsets
    # from the shift, so rounding leaves it smooth, and the call is fast
    d = -5354913003596034.0
    alpha = 0.3103265718398221
    pf = rl.power_function(d, rl.beta_int(1))
    t = d + 379420.59870354056
    exact = math.exp(-math.lgamma(2.0 + alpha)) * (t - d) ** (1.0 + alpha)
    start = time.perf_counter()
    got = rl.quad_rlfi(pf, d, alpha, t)
    assert time.perf_counter() - start < 1.0
    assert abs(got.value - exact) <= 1e-13 * exact


def test_quad_small_order_sees_the_lower_end():
    # at order 0.001 every node of a whole-range panel sits next to t, where
    # f is 5e-10; the value, 3.5e-5, comes from x next to a
    pf = rl.power_function(0.0, rl.beta_int(-31))
    got = rl.quad_rlfi(pf, 1.0, 0.001, 1.99)
    ref = displaced_exact(pf.beta, 0.0, 1.0, 0.001, 1.99)
    assert ref == pytest.approx(3.4957811e-5, rel=1e-7)
    assert abs(got.value - ref) <= got.error_estimate


def test_quad_steep_centered_integral_is_fast():
    # global error control: panels next to x = d, where f = (x-d)^33 is
    # nothing next to the total, are not refined to their own relative tol
    d = 0.5118673749031352
    alpha = 0.35205802831600513
    t = 511867.88677051006
    pf = rl.power_function(d, rl.beta_int(33))
    start = time.perf_counter()
    got = rl.quad_rlfi(pf, d, alpha, t)
    assert time.perf_counter() - start < 1.0
    with mp.workdps(40):
        exact = mp.gamma(34) / mp.gamma(34 + mp.mpf(alpha)) \
            * (mp.mpf(t) - d) ** (33 + mp.mpf(alpha))
    assert abs(got.value - exact) <= got.error_estimate


def test_fallback_passes_the_tests_written_for_it(monkeypatch):
    # the three tests above were written for a fallback quadrature's
    # offsets, small orders and steep centered integrands; their cells take
    # the single product rule on [a, t], so they run again here with it off:
    # on the graded panels
    monkeypatch.setattr(oracle, "_by_rule", lambda *args: None)
    test_quad_small_order_sees_the_lower_end()
    test_quad_steep_centered_integral_is_fast()
    test_quad_far_shift_is_not_a_staircase()


@pytest.mark.parametrize("beta", [rl.beta_rational(2, 7), rl.beta_int(-3)])
@pytest.mark.parametrize("alpha", [1e-3, 1e-2])
def test_quad_small_order_shift_just_beyond_t(beta, alpha, monkeypatch):
    # the shift 1e-9 beyond t leaves the single product rule on [a, t] short
    # of its tolerance, so the graded panels run; at a small order nearly
    # all the weight's mass sits next to t, on the panels graded toward it
    calls = []
    graded = oracle._graded

    def counted(*args, **kwargs):
        calls.append(args)
        return graded(*args, **kwargs)

    monkeypatch.setattr(oracle, "_graded", counted)
    d = 1.0 + 1e-9
    got = rl.quad_rlfi(rl.power_function(d, beta), 0.0, alpha, 1.0)
    assert len(calls) == 1
    ref = displaced_exact(beta, d, 0.0, alpha, 1.0)
    assert abs(got.value - ref) <= got.error_estimate


# the in-domain sweep of displaced derivative cells: exponents of every
# class from -30 to 40/3, both sides of the shift where the domain allows
_SWEEP_TOKENS = ("-30", "-9.7", "-3", "-3/2", "-1", "-1/3", "0", "1/2", "2/3",
                 "4/3", "2", "0.45", "5", "7.3", "40/3")
_SWEEP_ALPHAS = (0.001, 0.05, 0.3, 0.7, 0.95, 0.999)
_SWEEP_FRACS = (0.1, 0.5, 0.9, 0.99)


def _token_beta(token):
    if "/" in token:
        return rl.beta_rational(*map(int, token.split("/")))
    if "." in token:
        return rl.beta_real(float(token))
    return rl.beta_int(int(token))


def _sweep_cells():
    """120 of the 576 (exponent, side, alpha, fraction) cells: five orders
    per exponent and side, the fraction turning with the order."""
    placements = []
    for token in _SWEEP_TOKENS:
        beta = _token_beta(token)
        placements.append((beta, 0.0, 1.0, 1.0))
        if isinstance(beta, IntegerExp) or (
                isinstance(beta, RationalExp) and beta.p % 2 == 0):
            placements.append((beta, 0.0, -1.0, 0.5))
    cells = []
    for i, (beta, d, a, width) in enumerate(placements):
        for j, alpha in enumerate(_SWEEP_ALPHAS):
            if (i + j) % 6 != 2:
                frac = _SWEEP_FRACS[(i + 3 * j) % 4]
                cells.append((beta, d, a, alpha, a + frac * width))
    return cells


@pytest.fixture(scope="module")
def sweep():
    return [(cell, displaced_exact(cell[0], cell[1], cell[2], -cell[3], cell[4]))
            for cell in _sweep_cells()]


def test_sweep_holds_the_hard_cells(sweep):
    cells = [cell for cell, _ in sweep]
    assert len(cells) == 120
    # head and body cancel to 1 part in 6e4 at beta = -30, alpha = 0.999,
    # and beta = 0 is the head alone
    assert (rl.beta_int(-30), 0.0, 1.0, 0.999, 1.99) in cells
    assert sum(beta == rl.beta_int(0) for beta, *_ in cells) == 10


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_quad_rlfd_within_estimate_of_2f1(sweep, backend, monkeypatch,
                                          compiled_kernels):
    kernels = _kernels_py if backend == "pure" else compiled_kernels
    use_kernels(monkeypatch, kernels)
    for (beta, d, a, alpha, t), ref in sweep:
        got = rl.quad_rlfd(rl.power_function(d, beta), a, alpha, t)
        assert abs(got.value - ref) <= got.error_estimate, (beta, a, alpha, t)


def test_quad_rlfd_order_zero_is_f():
    # J^0 = D^0 = f(t), whose rounding, of t - d and of the power, lies
    # within the bound
    for d, beta, a, t in ((0.0, rl.beta_rational(-3, 2), 1.0, 1.7),
                          (0.1, rl.beta_rational(1, 3), 0.15, 0.7),
                          (0.1, rl.beta_int(3), 0.15, 12345.6789),
                          (1e-20, rl.beta_int(25), 1.0, 3.0)):
        pf = rl.power_function(d, beta)
        with mp.workdps(40):
            want = (mp.mpf(t) - mp.mpf(d)) ** _mp_beta(beta)
        for quad in (rl.quad_rlfi, rl.quad_rlfd):
            got = quad(pf, a, 0.0, t)
            assert got.value == pf.value(t)
            assert abs(got.value - want) <= got.error_estimate, (beta, t)


@pytest.mark.parametrize("beta, a, t, sign", [
    (rl.beta_int(-3), 1.0, 1.6, 1),
    (rl.beta_int(0), 1.0, 1.6, 1),
    (rl.beta_rational(2, 3), -1.0, -0.6, -1),
    (rl.beta_real(7.3), 1.0, 1.6, 1),
    # a rational beta's rounding, which |t-d|^beta magnifies by |ln|t-d||
    (rl.beta_rational(61, 7), 1e-12, 1.3e-12, 1),
    (rl.beta_rational(61, 7), 1e-30, 1.3e-30, 1),
    (rl.beta_rational(22, 9), 1e-12, 1.3e-12, 1),
    (rl.beta_rational(22, 9), 1e-30, 1.3e-30, 1),
    # f'(t) of 2.2e-377 below the float range, which rounds to 0
    (rl.beta_int(40), 1e-10, 2e-10, 1),
])
def test_quad_rlfd_order_one_is_f_prime(beta, a, t, sign):
    got = rl.quad_rlfd(rl.power_function(0.0, beta), a, 1.0, t)
    with mp.workdps(40):
        b = _mp_beta(beta)
        want = sign * b * abs(mp.mpf(t)) ** (b - 1)
    assert abs(got.value - want) <= got.error_estimate
    # plus two smallest subnormals for a value that rounds to 0
    assert got.error_estimate <= 1e-14 * abs(got.value) \
        * max(1.0, abs(math.log(abs(t)))) + (2.0 ** -1073 if not got.value else 0.0)


def test_quad_rlfd_centered_fractional_exponent():
    # f' = (x-d)^-1/2 / 2 is infinite at a = d; the divided difference is not
    pf = rl.power_function(0.0, rl.beta_rational(1, 2))
    start = time.perf_counter()
    got = rl.quad_rlfd(pf, 0.0, 0.3, 1.0)
    assert time.perf_counter() - start < 1.0
    exact = math.gamma(1.5) / math.gamma(1.2)
    assert got.value == pytest.approx(exact, rel=1e-8)
    assert abs(got.value - _centered_exact(pf.beta, 0.0, 0.3, 1.0)) \
        <= got.error_estimate


def test_quad_rlfd_centered_polynomial():
    d, alpha, t = 0.25, 0.4, 2.0
    pf = rl.power_function(d, rl.beta_int(3))
    got = rl.quad_rlfd(pf, d, alpha, t)
    with mp.workdps(40):
        sa = -mp.mpf(alpha)
        exact = 6 / mp.gamma(4 + sa) * (mp.mpf(t) - d) ** (3 + sa)
    assert abs(got.value - exact) <= got.error_estimate


def _mp_beta(beta):
    return mp.mpf(beta.p) / beta.q if isinstance(beta, RationalExp) \
        else mp.mpf(beta_value(beta))


def _centered_exact(beta, d, alpha, t):
    """D^alpha (t-d)^beta from a = d: the gamma ratio at 40 digits."""
    with mp.workdps(40):
        b, alpha = _mp_beta(beta), mp.mpf(alpha)
        return +(mp.gamma(b + 1) / mp.gamma(b + 1 - alpha)
                 * (mp.mpf(t) - d) ** (b - alpha))


# fractional exponents whose domain holds the shift, from a = d
_CENTERED_CELLS = [
    (rl.beta_rational(*pq), 0.25, alpha, 0.25 + width)
    for pq in ((1, 2), (3, 2), (2, 3), (4, 3), (5, 2), (1, 3), (5, 3), (7, 2),
               (9, 4))
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9)
    for width in (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_quad_rlfd_centered_fractional_grid(backend, monkeypatch,
                                            compiled_kernels):
    use_kernels(monkeypatch,
                _kernels_py if backend == "pure" else compiled_kernels)
    assert len(_CENTERED_CELLS) == 135
    for beta, d, alpha, t in _CENTERED_CELLS:
        got = rl.quad_rlfd(rl.power_function(d, beta), d, alpha, t)
        ref = _centered_exact(beta, d, alpha, t)
        assert abs(got.value - ref) <= got.error_estimate, (beta, alpha, t)


# even-numerator rationals, defined on both sides of a shift inside (a, t)
_INSIDE_CELLS = [
    (rl.beta_rational(*pq), d, 0.0, alpha, 1.0)
    for pq in ((2, 3), (4, 3), (2, 5), (40, 3))
    for alpha in (0.05, 0.3, 0.5, 0.7, 0.95)
    for d in (0.1, 0.5, 0.999)]


@pytest.fixture(scope="module")
def inside():
    return [(cell, shift_inside_exact(*cell)) for cell in _INSIDE_CELLS]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_quad_rlfd_shift_inside_interval(inside, backend, monkeypatch,
                                         compiled_kernels):
    use_kernels(monkeypatch,
                _kernels_py if backend == "pure" else compiled_kernels)
    for (beta, d, a, alpha, t), ref in inside:
        got = rl.quad_rlfd(rl.power_function(d, beta), a, alpha, t)
        assert abs(got.value - ref) <= got.error_estimate, (beta, d, alpha)


# the shift 1e-3 to 1e-11 beyond t, or below a, from a = 0 to t = 1: f is
# analytic on [a, t] but the single product rule misses its tolerance
_BEYOND_CELLS = [
    (op, beta, d, 0.0, alpha, 1.0)
    for i, (beta, sides) in enumerate((
        (rl.beta_int(-3), "ta"), (rl.beta_rational(2, 7), "ta"),
        (rl.beta_rational(4, 3), "ta"), (rl.beta_real(-1.5), "a"),
        (rl.beta_real(7.3), "a"), (rl.beta_rational(1, 2), "a")))
    for side in sides
    for j, gap in enumerate((1e-3, 1e-5, 1e-7, 1e-9, 1e-11))
    for alpha in ((1e-3, 0.5, 0.95)[(i + j) % 3],)
    for d in ((1.0 + gap) if side == "t" else -gap,)
    for op in "JD"]


@pytest.fixture(scope="module")
def graded():
    """J and D cells that only the graded panels serve, with their 40-digit
    values: from a = d, fractional exponents (as J; D is the centered grid
    above) and integers whose integrand's degree, 49 to 80, is beyond the
    largest rule's; the shift inside [a, t] as J; D where f(t) leaves the
    float range; and the shift just beyond t or below a."""
    cells = [("J", beta, d, d, alpha, t) for beta, d, alpha, t in _CENTERED_CELLS]
    cells += [(op, rl.beta_int(degree + (op == "D")), 0.25, 0.25, alpha,
               0.25 + width)
              for degree in (49, 56, 64, 80) for alpha in (0.3, 0.9)
              for width in (0.5, 2.0) for op in "JD"]
    centered = [(cell, centered_exact(cell[1], cell[2],
                                      cell[4] if cell[0] == "J" else -cell[4],
                                      cell[5]))
                for cell in cells]
    inside = [(("J",) + cell, shift_inside_exact(*cell, integral=True))
              for cell in _INSIDE_CELLS]
    beyond = [(cell, displaced_exact(cell[1], cell[2], cell[3],
                                     cell[4] if cell[0] == "J" else -cell[4],
                                     cell[5]))
              for cell in _BEYOND_CELLS]
    # f(t) beyond the float range where D is not: f(t) underflows with the
    # shift below a, and overflows with the shift inside [a, t]; and f' =
    # beta f/x underflows where f does not
    beta = rl.beta_rational(22, 9)
    scaled = [(("D", beta, 0.0, 1e-135, 0.37, 1.5e-135),
               displaced_exact(beta, 0.0, 1e-135, -0.37, 1.5e-135))]
    beta = rl.beta_rational(8, 5)
    scaled += [(("D", beta, 6.31e225, 2.62e225, 0.954, 6.32e225),
                shift_inside_exact(beta, 6.31e225, 2.62e225, 0.954, 6.32e225))]
    beta, d, a, t = (rl.beta_rational(-25, 3), 2.7047623544403685e34,
                     2.941729864009291e34, 2.943133708102492e34)
    scaled += [(("D", beta, d, a, 0.06215523949978858, t),
                displaced_exact(beta, d, a, -0.06215523949978858, t))]
    # J and D below the float range, 3.2e-544 and 3.0e-497: the value
    # rounds to 0, and its bound is not 0
    beta, d, a, alpha, t = (rl.beta_real(9.699864823646791), 3.53786830737773e-54,
                            5.833331481783392e-54, 0.42885126145679775,
                            6.009552585608829e-54)
    scaled += [((op, beta, d, a, alpha, t),
                displaced_exact(beta, d, a, alpha if op == "J" else -alpha, t))
               for op in "JD"]
    # |beta| = 1100, whose node powers leave the float range in a panel's
    # units (0.5^-1100) where J is 5.1e-4 and D -2.6e-4
    beta = rl.beta_int(-1100)
    scaled += [((op, beta, 0.0, 1.0, 0.5, 2.0),
                displaced_exact(beta, 0.0, 1.0, 0.5 if op == "J" else -0.5, 2.0))
               for op in "JD"]
    return centered + inside + scaled, beyond


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_graded_panels_lie_within_their_bound(graded, backend, monkeypatch,
                                              compiled_kernels):
    # every cell takes the graded panels, and its value lies within the
    # proven bound; with the shift outside [a, t] the bound is within 1e-11
    # of max(1, |value|)
    use_kernels(monkeypatch,
                _kernels_py if backend == "pure" else compiled_kernels)
    calls = []
    panels = oracle._graded

    def counted(*args):
        calls.append(args)
        return panels(*args)

    monkeypatch.setattr(oracle, "_graded", counted)
    windowed, beyond = graded
    for (op, beta, d, a, alpha, t), ref in windowed + beyond:
        quad = rl.quad_rlfi if op == "J" else rl.quad_rlfd
        got = quad(rl.power_function(d, beta), a, alpha, t)
        assert abs(got.value - ref) <= got.error_estimate, (op, beta, d, alpha, t)
        if (op, beta, d, a, alpha, t) in _BEYOND_CELLS:
            assert got.error_estimate <= 1e-11 * max(1.0, abs(ref)), \
                (op, beta, d, alpha, t)
    assert len(calls) == len(windowed) + len(beyond)


def _random_cells(count, seed, window=True):
    """Displaced cells of every exponent class on either side of the shift,
    orders from 1e-4 to 0.99999 and window fractions from 1e-6 to 0.999;
    without `window`, t reaches 0.999 of the way to a shift above a, and 4
    gaps above a shift below a."""
    rng = random.Random(seed)
    cells = []
    while len(cells) < count:
        kind = rng.randrange(3)
        if kind == 0:
            beta = rl.beta_int(rng.randint(-30, 30))
        elif kind == 1:
            beta = rl.beta_rational(rng.randint(-60, 60), rng.choice((2, 3, 5, 7)))
        else:
            beta = rl.beta_real(rng.uniform(-20.0, 20.0))
        d = rng.uniform(-5.0, 5.0)
        gap = math.exp(rng.uniform(math.log(0.1), math.log(3.0)))
        below = rl.power_function(d, beta).contains(d - gap) and rng.random() < 0.5
        a = d - gap if below else d + gap
        alpha = min(0.99999, math.exp(rng.uniform(math.log(1e-4), 0.0)))
        frac = math.exp(rng.uniform(math.log(1e-6),
                                    math.log(0.999 if window or below else 4.0)))
        t = a + frac * (gap / 2.0 if below and window else gap)
        if t > a:
            cells.append((beta, d, a, alpha, t))
    return cells


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_quad_rlfd_random_displaced_cells(backend, monkeypatch,
                                          compiled_kernels):
    use_kernels(monkeypatch,
                _kernels_py if backend == "pure" else compiled_kernels)
    for beta, d, a, alpha, t in _random_cells(300, 11):
        got = rl.quad_rlfd(rl.power_function(d, beta), a, alpha, t)
        ref = displaced_exact(beta, d, a, -alpha, t)
        assert abs(got.value - ref) <= got.error_estimate, (beta, d, a, alpha, t)


@pytest.fixture(scope="module")
def unwindowed():
    return [(cell, displaced_exact(cell[0], cell[1], cell[2], -cell[3], cell[4]))
            for cell in _random_cells(300, 23, window=False)]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_quad_rlfd_random_cells_without_a_window(unwindowed, backend,
                                                 monkeypatch, compiled_kernels):
    # beyond the series window too each value lies within its estimate, and
    # the estimate within 1e-11 of max(1, |value|).  The Caputo split with
    # its head at f(a) cancels at small orders where f(a) is far from f(t):
    # on 3 000 random cells of this kind its estimates reached 2.2e-9
    use_kernels(monkeypatch,
                _kernels_py if backend == "pure" else compiled_kernels)
    for (beta, d, a, alpha, t), ref in unwindowed:
        got = rl.quad_rlfd(rl.power_function(d, beta), a, alpha, t)
        assert abs(got.value - ref) <= got.error_estimate, (beta, d, a, alpha, t)
        assert got.error_estimate <= 1e-11 * max(1.0, abs(ref)), (beta, d, a, alpha, t)


@pytest.mark.parametrize("beta", [rl.beta_rational(2, 3), rl.beta_rational(4, 3)])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.999999, 1.0])
def test_quad_rlfd_fractional_exponent_at_the_shift_is_not_a_value(beta, alpha):
    # at t = d = 1, f(x) = (1-x)^beta folds into the weight while beta >
    # alpha, and f'(1) = 0 of (x-1)^(4/3) is D^1; for beta <= alpha f' is
    # not integrable at t, and (x-1)^(2/3) has f' infinite: no value
    pf = rl.power_function(1.0, beta)
    if beta_value(beta) <= alpha:
        with pytest.raises(ToleranceNotMet):
            rl.quad_rlfd(pf, 0.0, alpha, 1.0)
        return
    got = rl.quad_rlfd(pf, 0.0, alpha, 1.0)
    want = 0.0 if alpha == 1.0 else displaced_exact(beta, 1.0, 0.0, -alpha, 1.0)
    assert abs(got.value - want) <= got.error_estimate
    assert got.error_estimate <= 1e-13 * max(1.0, abs(got.value))


def _shift_cells(n, seed):
    # D at t = d of (x-d)^(p/q), p even, with beta > alpha: orders from
    # 1e-6 to next to 1 and next to beta, t - a from 1e-3 to 1e3
    rng = random.Random(seed)
    cells = []
    while len(cells) < n:
        q = rng.choice([3, 5, 7, 9, 15, 101])
        beta = rl.beta_rational(2 * rng.randint(1, 15 * q), q)
        b = beta_value(beta)
        alpha = rng.choice([10 ** rng.uniform(-6, -1), 1 - 10 ** rng.uniform(-9, -1),
                            b * (1 - 10 ** rng.uniform(-12, -1)), rng.random()])
        if isinstance(beta, RationalExp) and 0.0 < alpha < min(b, 1.0):
            d = rng.uniform(-5.0, 5.0)
            cells.append((beta, d, d - 10 ** rng.uniform(-3, 3), alpha))
    return cells


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_quad_rlfd_at_the_shift_folds_f_into_the_weight(backend, monkeypatch,
                                                       compiled_kernels):
    # -alpha (t-a)^(beta-alpha) / ((beta-alpha) Gamma(1-alpha)) within its
    # estimate; 6 000 such cells needed at most 0.09 of it.  The last two
    # cells fold J and D below the float range, about 2.8e-412 and
    # -2.2e-387, which round to 0
    use_kernels(monkeypatch,
                _kernels_py if backend == "pure" else compiled_kernels)
    cells = [(rl.quad_rlfd, cell) for cell in _shift_cells(200, 17)]
    cells += [(rl.quad_rlfi, (rl.beta_int(20), 0.0, -1e-20, 0.5)),
              (rl.quad_rlfd, (rl.beta_rational(40, 3), 0.0, -1e-30, 0.5))]
    for quad, (beta, d, a, alpha) in cells:
        got = quad(rl.power_function(d, beta), a, alpha, d)
        sa = alpha if quad is rl.quad_rlfi else -alpha
        ref = displaced_exact(beta, d, a, sa, d)
        assert abs(got.value - ref) <= got.error_estimate, (beta, d, a, alpha)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.3, 0.999, 1.0])
def test_quad_rlfd_integer_exponent_at_the_shift(m, alpha):
    # D^alpha (x-1)^m from a = 0 at t = 1; f'(1) at order 1
    pf = rl.power_function(1.0, rl.beta_int(m))
    got = rl.quad_rlfd(pf, 0.0, alpha, 1.0)
    want = float(m == 1) if alpha == 1.0 \
        else displaced_exact(pf.beta, 1.0, 0.0, -alpha, 1.0)
    assert abs(got.value - want) <= got.error_estimate


def test_quad_rlfd_pole_names_the_interval():
    # inside [a, t] and within SPLIT_GUARD of either end
    for d in (0.5, -0.5 * oracle.SPLIT_GUARD, 1.0 + 0.5 * oracle.SPLIT_GUARD):
        pf = rl.power_function(d, rl.beta_int(-2))
        with pytest.raises(PoleInsideInterval, match=r"touches \[0\.0, 1\.0\]"):
            rl.quad_rlfd(pf, 0.0, 0.5, 1.0)


_OUTSIDE = (ValueError, "-1.0 outside the power function's domain")
# (d, beta, a, points, the first error at each point): at a point the pole
# comes first, then a, then t, and a job's first error is its first point's
# in t-major order
_INTERVAL_JOBS = {
    # a outside f's domain [0, inf), at every point
    "a outside": (0.0, rl.beta_rational(1, 2), -1.0, [-0.5, 0.0, 0.5],
                  [_OUTSIDE] * 3),
    # with a inside the domain, only a NaN t lies outside it
    "t outside": (0.0, rl.beta_rational(1, 2), 0.5, [0.75, math.nan],
                  [None, (ValueError, "nan outside the power function's domain")]),
    # the pole at 1 touches [0, t] from the third point on, there within
    # SPLIT_GUARD of t
    "later pole": (1.0, rl.beta_int(-1), 0.0, [0.2, 0.6, 1.0 - 0.5e-12, 1.4],
                   [None, None,
                    (PoleInsideInterval,
                     "integrand pole at x=1.0 touches [0.0, 0.9999999999995]"),
                    (PoleInsideInterval,
                     "integrand pole at x=1.0 touches [0.0, 1.4]")]),
    # a outside (0, inf), and the pole at 0 touches [a, t] from the last
    # point, where it comes first
    "a outside, later pole": (0.0, rl.beta_rational(-1, 2), -1.0,
                              [-0.9, -0.2, 0.5],
                              [_OUTSIDE, _OUTSIDE,
                               (PoleInsideInterval,
                                "integrand pole at x=0.0 touches [-1.0, 0.5]")]),
}


@pytest.mark.parametrize("job", sorted(_INTERVAL_JOBS))
@pytest.mark.parametrize("quad", [rl.quad_rlfi, rl.quad_rlfd])
def test_interval_errors_come_pole_then_a_then_t(job, quad):
    # each point on its own, then the route body over the job's points
    d, beta, a, ts, errors = _INTERVAL_JOBS[job]
    pf = rl.power_function(d, beta)
    for t, error in zip(ts, errors):
        if error is None:
            quad(pf, a, 0.5, t)
            continue
        with pytest.raises(error[0]) as info:
            quad(pf, a, 0.5, t)
        assert (type(info.value), str(info.value)) == error
    first = next(error for error in errors if error)
    with pytest.raises(first[0]) as info:
        oracle._quad(pf, a, 0.5, ts, oracle.DEFAULT_TOL, quad is rl.quad_rlfd)
    assert (type(info.value), str(info.value)) == first


@pytest.mark.parametrize("beta, d, a", [
    (rl.beta_real(1e-11), 9.999999999989999e-12, 1e-11),  # shift below a
    (rl.beta_rational(2, 2000000001), 0.5, 0.0),  # even f, shift inside
])
def test_tiny_exponent_is_fast_and_exact(beta, d, a):
    # f(t) - f(x) of (x-d)^1e-9 cancels to 1e-9 on either side of the
    # shift: it is taken through expm1, not as a noisy difference that the
    # panels would halve up to the panel cap
    alpha, t = 0.5, 1.0
    start = time.perf_counter()
    got = rl.quad_rlfd(rl.power_function(d, beta), a, alpha, t)
    assert time.perf_counter() - start < 1.0
    ref = shift_inside_exact(beta, d, a, alpha, t) if a < d \
        else displaced_exact(beta, d, a, -alpha, t)
    assert abs(got.value - ref) <= got.error_estimate


@pytest.mark.parametrize("d, a, t", [
    # -inf with an infinite estimate
    (7.662552188327264e299, 0.0, 7.662552188327264e299),
    # panels of -inf and +inf, whose fsum raised a bare ValueError
    (7.988667511742946e299, 5.57588800781179e299, 1.115177601562358e300),
    # finite panels whose fsum overflowed with a bare OverflowError
    (-6.606934480075857e154, 0.0, 6.606934480075857e154),
])
@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_quad_rlfi_beyond_the_float_range_is_typed(d, a, t, backend, monkeypatch,
                                                   compiled_kernels):
    # t - a next to the float range: the integral's u^(1+alpha) overflows
    use_kernels(monkeypatch,
                _kernels_py if backend == "pure" else compiled_kernels)
    with pytest.raises(ValueOverflow, match="beyond the float range"):
        rl.quad_rlfi(rl.power_function(d, rl.beta_int(1)), a, 0.99, t)


def _exact_shifted_moments(order, n):
    """M_k - M_0 for the weight (1-y)^(order-1), k <= n, at 60 digits: the
    finite sum of T_k(y) = 2F1(-k, k; 1/2; (1-y)/2) integrated term by term."""
    with mp.workdps(60):
        lam = mp.mpf(order) - 1
        moments = [2 ** (lam + 1) * mp.fsum(
            mp.rf(-k, j) * mp.rf(k, j)
            / (mp.rf(mp.mpf(1) / 2, j) * mp.factorial(j) * (lam + j + 1))
            for j in range(k + 1)) for k in range(n + 1)]
        return [m - moments[0] for m in moments], moments[0]


def test_rule_constants_are_pi_and_log_2():
    with mp.workdps(60):
        assert oracle._FIX_PI == int(mp.nint(mp.pi * 2 ** oracle._BITS))
        assert oracle._FIX_LN2 == int(mp.nint(mp.log(2) * 2 ** oracle._BITS))


@pytest.mark.parametrize("order", [1e-3, 0.5, 1.0 - 1e-3])
def test_rule_moments_match_mpmath(order):
    # the rule integrates T_k exactly for k <= n: sum_j W_j (T_k(y_j) - 1)
    # is M_k - M_0, and sum_j W_j is M_0 = 2^order / order
    n = 48
    rule = oracle._rule(order, n)
    shifted, mass = _exact_shifted_moments(order, n)
    size = max(abs(m) for m in shifted)
    with mp.workdps(60):
        assert abs(mp.fsum(w for _, _, w in rule) - mass) <= 4e-16 * mass
        for k in range(1, n + 1):
            got = mp.fsum(mp.mpf(w) * (mp.cos(mp.pi * j * k / n) - 1)
                          for j, (_, _, w) in enumerate(rule))
            assert abs(got - shifted[k]) <= 1e-15 * size, k


@pytest.mark.parametrize("alpha", [1e-4, 1.0 - 1e-3])
def test_lifted_rule_moments_match_mpmath(alpha):
    # the derivative's rule integrates T_k exactly against the lifted weight
    # (1-y)^-alpha - 2^-alpha, k <= n: its moments are those of (1-y)^-alpha
    # less 2^-alpha integral T_k = 2/(1-k^2) for even k.  They are about
    # alpha in size, so a rule of order fl(1 - alpha) would miss them by
    # eps/alpha of it
    n = 48
    rule = oracle._rule(alpha, n, True)
    with mp.workdps(60):
        a = mp.mpf(alpha)
        moments = [2 ** (1 - a) * mp.fsum(
            mp.rf(-k, j) * mp.rf(k, j)
            / (mp.rf(mp.mpf(1) / 2, j) * mp.factorial(j) * (j + 1 - a))
            for j in range(k + 1))
            - (2 ** -a * 2 / (1 - k * k) if k % 2 == 0 else 0)
            for k in range(n + 1)]
        size = max(abs(m) for m in moments)
        assert moments[0] == pytest.approx(2 ** (1 - alpha) * alpha / (1 - alpha))
        for k in range(n + 1):
            got = mp.fsum(mp.mpf(w) * mp.cos(mp.pi * j * k / n)
                          for j, (_, _, w) in enumerate(rule))
            assert abs(got - moments[k]) <= 1e-15 * size, k


@pytest.mark.parametrize("n", oracle._RULE_SIZES)
def test_rule_nodes_are_the_chebyshev_points(n):
    rule = oracle._rule(0.5, n)
    assert len(rule) == n + 1
    assert rule[0][:2] == (1.0, 0.0) and rule[-1][:2] == (0.0, 1.0)
    for j, (h, r, _) in enumerate(rule):
        assert h + r == pytest.approx(1.0, abs=1e-16)
        assert 1.0 - 2.0 * r == pytest.approx(math.cos(math.pi * j / n), abs=1e-15)


def test_power_holds_any_exponent():
    # x^y as m 2^n with m near 1, past the float range on either side and
    # for |y| beyond 1023, where f^y of x's mantissa f would overflow
    rng = random.Random(3)
    cases = [(0.5, -1400.5), (2.0, 1400.5), (5e-324, 1400.5), (1.7e308, -1400.5),
             (0.45, -1400.5), (2.0, -1100.0)]
    for _ in range(300):
        x = math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1074, 1023))
        scale = rng.choice((1.0, 100.0, 1000.0, 1e4))
        cases.append((x, rng.uniform(-scale, scale)))
    with mp.workdps(30):
        for x, y in cases:
            m, n = oracle._power(x, y)
            assert 2.0 ** -512 < m < 2.0 ** 513, (x, y)
            exact = mp.power(mp.mpf(x), mp.mpf(y))
            assert abs(mp.ldexp(mp.mpf(m), n) / exact - 1) \
                <= (2.0 + abs(y) / 256.0) * math.ulp(1.0), (x, y)


def _window_cells(count, seed):
    """J and D cells inside the series window: exponents of every class with
    |beta| <= 30 (integer, rational, real and within 1e-3 of an integer),
    orders in [1e-3, 1 - 1e-3] and fractions up to 0.999 on either side of
    the shift, a tenth of them at 0.999."""
    rng = random.Random(seed)
    cells = []
    while len(cells) < count:
        kind = rng.randrange(4)
        if kind == 0:
            beta = rl.beta_int(rng.randint(-30, 30))
        elif kind == 1:
            q = rng.choice((2, 3, 5, 7))
            beta = rl.beta_rational(rng.randint(-30 * q, 30 * q), q)
        elif kind == 2:
            beta = rl.beta_real(rng.randint(-29, 29)
                                + rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -3))
        else:
            beta = rl.beta_real(rng.uniform(-30.0, 30.0))
        d = rng.uniform(-5.0, 5.0)
        gap = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
        below = rl.power_function(d, beta).contains(d - gap) and rng.random() < 0.5
        a = d - gap if below else d + gap
        alpha = rng.choice((1e-3, 1.0 - 1e-3, rng.uniform(1e-3, 1.0 - 1e-3)))
        frac = 0.999 if rng.random() < 0.1 else rng.uniform(0.0, 0.999)
        t = a + frac * (gap / 2.0 if below else gap)
        if t > a:
            cells.append((rng.choice("JD"), beta, d, a, alpha, t))
    return cells


# the window-edge cells of the hyp route's tests, at fraction 0.999 above a
# shift at 0 from a = 1
_EDGE_CELLS = [(op, _token_beta(token), 0.0, 1.0, alpha, 1.999)
               for token in ("-9.7", "-1", "-3", "-3/2", "-5/3", "1/2", "0.45",
                             "-0.3")
               for alpha in (0.05, 0.5, 0.95) for op in "JD"]


# a rational beta's rounding, which |x-d|^beta magnifies by |ln|x-d||: d = 0,
# t - a = 0.3 (a - d) with a - d tiny
_ROUNDING_CELLS = [(op, rl.beta_rational(61, 7), 0.0, gap, 0.3, 1.3 * gap)
                   for gap in (1e-12, 1e-30) for op in "JD"]
# D's scale (u/2)^(1-alpha) takes 1 - alpha rounded, which ln(u/2) = 179
# magnifies past the floor where head and body cancel at far offsets
_FAR_CELLS = [("D", rl.beta_int(2), -2.5853665419124254e77, -2.4131045771079455e78,
               0.4691963531439633, -1.5675688893556235e78)]
# orders below about 5.6e-309, where Gamma(alpha) overflows: f(t) and the
# bound of the rest of J
_TINY_ORDER_CELLS = [("J", rl.beta_int(0), 0.0, 1.0, 2.225073858507e-311, 1.5),
                     ("J", rl.beta_int(3), 5.0, 1.0, 2.225073858507e-311, 1.5),
                     ("J", rl.beta_rational(-5, 2), 0.0, 1.0, 5e-324, 1.5),
                     ("J", rl.beta_real(0.4), -1e-200, 0.0, 5.5e-309, 1e-100)]


@pytest.fixture(scope="module")
def window():
    return [(cell, displaced_exact(cell[1], cell[2], cell[3],
                                   cell[4] if cell[0] == "J" else -cell[4],
                                   cell[5]))
            for cell in _window_cells(300, 16) + _EDGE_CELLS + _ROUNDING_CELLS
            + _FAR_CELLS + _TINY_ORDER_CELLS]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_rule_values_lie_within_their_bound(window, backend, monkeypatch,
                                           compiled_kernels):
    # every window cell with |beta| <= 30 takes a product rule, whose tail
    # bound plus floor holds the 40-digit value; at a subnormal order J is
    # f(t) with the bound of the rest
    use_kernels(monkeypatch,
                _kernels_py if backend == "pure" else compiled_kernels)

    def no_fallback(*args, **kwargs):
        raise AssertionError("a window cell fell back to the graded panels")

    monkeypatch.setattr(oracle, "_graded", no_fallback)
    for (op, beta, d, a, alpha, t), ref in window:
        quad = rl.quad_rlfi if op == "J" else rl.quad_rlfd
        got = quad(rl.power_function(d, beta), a, alpha, t)
        assert abs(got.value - ref) <= got.error_estimate, (op, beta, d, a, alpha, t)


@pytest.mark.parametrize("beta", [rl.beta_rational(2, 7), rl.beta_int(0),
                                  rl.beta_int(1), rl.beta_int(2), rl.beta_int(7)])
@pytest.mark.parametrize("alpha", [1e-6, 1e-3, 0.5, 0.999])
def test_quad_rlfi_at_the_shift_folds_f_into_the_weight(beta, alpha):
    # at t = d, f(x) = (-1)^beta (t-x)^beta: J is (t-a)^(alpha+beta) /
    # ((alpha+beta) Gamma(alpha)) up to the floor, also at orders where the
    # mass sits next to t
    pf = rl.power_function(1.0, beta)
    got = rl.quad_rlfi(pf, 0.0, alpha, 1.0)
    ref = displaced_exact(beta, 1.0, 0.0, alpha, 1.0)
    assert abs(got.value - ref) <= got.error_estimate
    assert got.error_estimate <= 1e-14 * abs(got.value)


def _one_point(quad, pf, a, alpha, t):
    # a one-point entry's result as the body's column entries, ToleranceNotMet
    # as a truncated point
    try:
        value, estimate = quad(pf, a, alpha, t)
    except ToleranceNotMet:
        return math.nan, 0, math.inf, "truncated"
    return value, 0, estimate, "converged"


# exponents of every class; with the shift above a, 2/3 and 4/3 reach the
# shift's fold and the graded panels beyond it, 2/3 at orders above 2/3
# the fold's ToleranceNotMet, and the rest a domain or pole error there
_GRID_BETAS = (rl.beta_int(-3), rl.beta_int(0), rl.beta_int(2),
               rl.beta_rational(2, 3), rl.beta_rational(4, 3),
               rl.beta_rational(-5, 3), rl.beta_real(0.45), rl.beta_real(-1.5))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(op=st.sampled_from("JD"), beta=st.sampled_from(_GRID_BETAS),
       side=st.sampled_from((-1.0, 0.0, 1.0)),
       alpha=st.one_of(st.sampled_from((0.0, 0.9, 1.0)), st.floats(1e-3, 1.0)),
       fracs=st.lists(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 3.0)),
                      min_size=1, max_size=6))
# the shift's fold, its ToleranceNotMet, the graded panels and t = a
@example(op="D", beta=rl.beta_rational(2, 3), side=-1.0, alpha=0.9,
         fracs=[0.5, 1.0, 2.0])
@example(op="D", beta=rl.beta_rational(4, 3), side=-1.0, alpha=0.3,
         fracs=[0.5, 1.0, 2.5])
@example(op="D", beta=rl.beta_rational(4, 3), side=-1.0, alpha=0.3,
         fracs=[1.0, 0.0])
@example(op="J", beta=rl.beta_rational(2, 3), side=-1.0, alpha=0.3,
         fracs=[0.0, 0.5, 1.0, 2.0])
@example(op="D", beta=rl.beta_int(2), side=0.0, alpha=0.5, fracs=[0.5, 1.0])
def test_route_body_is_the_one_point_entries(compiled_kernels, op, beta, side,
                                             alpha, fracs):
    # the body over a sorted grid returns, bit for bit, what quad_rlfi or
    # quad_rlfd returns at each point, and raises the error of the first
    # point that raises one other than ToleranceNotMet
    d, gap = 0.25, 0.75
    a = d + side * gap
    ts = sorted(a + frac * gap for frac in fracs)
    pf = rl.power_function(d, beta)
    quad = rl.quad_rlfd if op == "D" else rl.quad_rlfi
    saved = [(module, module.kernels) for module in KERNEL_MODULES]
    try:
        for kernels in (_kernels_py, compiled_kernels):
            for module, _ in saved:
                module.kernels = kernels
            try:
                columns = oracle._quad(pf, a, alpha, ts, oracle.DEFAULT_TOL,
                                       op == "D")
            except (rl.RLPowerError, ValueError) as exc:
                for t in ts:
                    try:
                        _one_point(quad, pf, a, alpha, t)
                    except (rl.RLPowerError, ValueError) as first:
                        assert (type(first), str(first)) == (type(exc), str(exc))
                        break
                else:
                    raise AssertionError(f"the body raised {exc!r}, no point did")
                continue
            points = [_one_point(quad, pf, a, alpha, t) for t in ts]
            assert [tuple(map(repr, row)) for row in zip(*columns)] == \
                [tuple(map(repr, row)) for row in points]
    finally:
        for module, kernels in saved:
            module.kernels = kernels
