"""2F1 series, Euler transformation, closed operator forms, connection split."""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest

import rlpower as rl
from rlpower import hypergeom
from rlpower._backend import kernels
from rlpower.errors import ArgOutOfDisk, HypNotConverged, ParamPole

from conftest import rel_err
from reference import connection_a6, rlfd_polynomial, rlfi_polynomial

mp.mp.dps = 30


def test_hyp2f1_at_zero_is_one():
    assert rl.hyp2f1(0.3, -2.7, 1.9, 0.0) == 1.0


def test_hyp2f1_log_case():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    got = rl.hyp2f1(1.0, 1.0, 2.0, 0.5)
    assert got == pytest.approx(2.0 * math.log(2.0), rel=1e-13)


def test_hyp2f1_binomial_identity():
    got = rl.hyp2f1(0.5, 7.0, 7.0, 0.25)
    assert got == pytest.approx(0.75 ** -0.5, rel=1e-13)


def test_hyp2f1_against_mpmath():
    rng = random.Random(3)
    for _ in range(60):
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        c = rng.uniform(0.2, 4.0)
        z = rng.uniform(-0.9, 0.9)
        ref = float(mp.hyp2f1(a, b, c, z))
        assert rl.hyp2f1(a, b, c, z) == pytest.approx(
            ref, rel=1e-11, abs=1e-13)


def test_hyp2f1_terminating_outside_disk():
    # polynomial case is exact for any argument
    got = rl.hyp2f1(-3.0, 1.2, 0.9, 2.5)
    assert got == pytest.approx(float(mp.hyp2f1(-3, mp.mpf("1.2"), mp.mpf("0.9"), mp.mpf("2.5"))), rel=1e-12)


def test_hyp2f1_arg_out_of_disk():
    with pytest.raises(ArgOutOfDisk):
        rl.hyp2f1(0.5, 0.5, 1.5, 1.0)


def test_hyp2f1_param_pole():
    with pytest.raises(ParamPole):
        rl.hyp2f1(0.5, 0.5, -2.0, 0.3)


def test_hyp2f1_pole_masked_by_termination():
    # a = -1 terminates before c = -2 poles
    got = rl.hyp2f1(-1.0, 1.0, -2.0, 0.3)
    assert got == pytest.approx(1.0 - 1.0 * 0.3 / -2.0, rel=1e-14)


def test_hyp_not_converged_is_typed():
    # x -> 1 is not transformed: the series runs into the term cap
    with pytest.raises(HypNotConverged) as info:
        rl.hyp2f1(0.5, 0.5, 1.5, 0.99999)
    assert isinstance(info.value, rl.RLPowerError)
    assert isinstance(info.value, ArithmeticError)


def test_hyp_not_converged_names_the_callers_parameters(monkeypatch):
    # the Pfaff branch sums 2F1(1, 0.5; 1.5; 0.4997...), which the message
    # must not leak
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 4)
    with pytest.raises(HypNotConverged) as info:
        rl.hyp2f1(1.0, 1.0, 1.5, -0.999)
    assert str(info.value) == ("2F1 series failed to converge for "
                               "a=1.0, b=1.0, c=1.5, arg=-0.999")


@pytest.mark.parametrize("x", [-0.5, -0.9, -0.99, -0.999])
def test_hyp2f1_pfaff_near_minus_one(x):
    # the direct series at x -> -1 cancels or hits the term cap; b = 30.3
    # needs the transform on b
    for b in (30.3, 9.7, 5.0 / 3.0, 1.5, 0.3, -0.45, -7.3, -30.3):
        for c in (1.05, 0.5, 1.95):
            ref = float(mp.hyp2f1(1, b, c, x))
            assert abs(rl.hyp2f1(1.0, b, c, x) - ref) <= 1e-12 * abs(ref)


def euler_transform(a, b, c, x):
    # 2F1(a, b; c; x) = (1-x)^(c-a-b) 2F1(c-a, c-b; c; x)
    return (c - a, c - b, c, x), (1.0 - x) ** (c - a - b)


def test_euler_transform_parameter_map():
    # (1, -beta; 1-alpha-beta) maps to (-alpha-beta, 1-alpha) and prefactor
    # (1-z)^(-alpha)
    alpha, beta = 0.4, 0.9
    p = (1.0, -beta, 1.0 - alpha - beta, 0.3)
    tp, pref = euler_transform(*p)
    assert tp[:2] == pytest.approx((-alpha - beta, 1.0 - alpha))
    assert pref == pytest.approx((1.0 - 0.3) ** -alpha)
    assert pref * rl.hyp2f1(*tp) == pytest.approx(rl.hyp2f1(*p), rel=1e-12)


def test_euler_transform_identity_at_zero():
    tp, pref = euler_transform(0.7, 1.3, 2.1, 0.0)
    assert pref * rl.hyp2f1(*tp) == pytest.approx(1.0, rel=1e-14)


def test_euler_transform_self_consistency():
    tp, pref = euler_transform(0.3, 0.7, 1.1, 0.4)
    assert rl.hyp2f1(0.3, 0.7, 1.1, 0.4) == pytest.approx(
        pref * rl.hyp2f1(*tp), rel=1e-12)


def test_rlfi_hyp_form_matches_series_above():
    pf = rl.power_function(0.0, rl.beta_real(-1.5))
    win = rl.make_window(1.0, pf)
    hyp = rl.rlfi_hyp_form(pf, win, 0.5, 1.3)
    ser = rl.rlfi_series_displaced(pf, win, 0.5, 1.3)
    assert rel_err(hyp, ser.value) <= 1e-8


def test_rlfi_hyp_form_zero_at_lower_limit():
    pf = rl.power_function(0.0, rl.beta_real(0.8))
    win = rl.make_window(1.0, pf)
    assert rl.rlfi_hyp_form(pf, win, 0.5, 1.0) == 0.0


@pytest.mark.parametrize("d, a", [(0.0, 2.0), (1.0, 0.0)],
                         ids=["above", "below"])
def test_integral_order_zero_at_lower_limit_is_identity(d, a):
    # J^0 f(a) = f(a) on the hyp and oracle routes, as on the series route,
    # which carries the gamma ratio's rounding inside its reported bound
    pf = rl.power_function(d, rl.beta_int(3))
    win = rl.make_window(a, pf)
    want = pf.value(a)
    assert want not in (0.0, 1.0)
    assert rl.rlfi_hyp_form(pf, win, 0.0, a) == want
    assert rl.quad_rlfi(pf, a, 0.0, a).value == want
    res = rl.rlfi_series_displaced(pf, win, 0.0, a)
    assert abs(res.value - want) <= res.remainder_bound


def test_rlfi_hyp_form_terminating_matches_polynomial():
    pf = rl.power_function(0.0, rl.beta_int(2))
    win = rl.make_window(1.0, pf)
    hyp = rl.rlfi_hyp_form(pf, win, 0.5, 1.7)
    poly = rlfi_polynomial(pf, 1.0, 0.5, 1.7)
    assert rel_err(hyp, poly) <= 1e-13


def test_rlfd_hyp_form_matches_series():
    pf = rl.power_function(0.0, rl.beta_real(0.7))
    win = rl.make_window(1.0, pf)
    hyp = rl.rlfd_hyp_form(pf, win, 0.4, 1.2)
    ser = rl.rlfd_series(pf, win, 0.4, 1.2)
    assert rel_err(hyp, ser.value) <= 1e-8


def test_rlfd_hyp_form_alpha_one_is_classical_derivative():
    # c = 1 - alpha = 0 is the removable pole of 2F1/Gamma(c): D^1 = f'
    pf = rl.power_function(0.0, rl.beta_real(0.7))
    win = rl.make_window(1.0, pf)
    assert rl.rlfd_hyp_form(pf, win, 1.0, 1.4) == pytest.approx(
        0.7 * 1.4 ** -0.3, rel=1e-13)


def test_rlfd_hyp_form_next_to_order_one_is_typed():
    # c = 1 - alpha within 1e-12 of the pole c = 0 but not on it
    pf = rl.power_function(0.0, rl.beta_int(-2))
    win = rl.make_window(1.0, pf)
    with pytest.raises(rl.HypNotConverged):
        rl.rlfd_hyp_form(pf, win, 0.9999999999991, 1.000001)


# (op, alpha, beta, d, a, t grid) whose 2F1 needs 10 to 58 terms over its
# points at tolerance 1e-14: above the shift, below it, and D of order 1,
# the removable pole c = 0, whose 2F1(2, 1-beta; 2; x) is Pfaff-transformed
_CAP_JOBS = (
    ("J", 0.5, rl.beta_real(2.7), 0.0, 1.0, (1.0, 1.01, 1.3, 1.6, 1.8, 1.95)),
    ("D", 0.4, rl.beta_rational(-7, 3), 0.0, 1.0, (1.01, 1.3, 1.6, 1.95)),
    ("J", 0.35, rl.beta_rational(2, 3), 2.0, 1.0, (1.0, 1.05, 1.3, 1.45, 1.49)),
    ("D", 1.0, rl.beta_real(-1.7), 0.0, 1.0, (1.0, 1.2, 1.6, 1.95)),
)


@pytest.mark.parametrize("op,alpha,beta,d,a,ts", _CAP_JOBS)
def test_hyp_form_truncates_exactly_the_points_at_the_term_cap(
        monkeypatch, op, alpha, beta, d, a, ts):
    # with the cap lowered, only the far points reach it: those are truncated
    # records, and every other point is the scalar entry's value, bit for bit
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 30)
    pf = rl.power_function(d, beta)
    win = rl.make_window(a, pf)
    entry = rl.rlfi_hyp_form if op == "J" else rl.rlfd_hyp_form
    sa = alpha if op == "J" else -alpha
    columns = hypergeom._hyp_form(pf, win, sa, list(ts))
    truncated = 0
    for t, value, terms, remainder, status in zip(ts, *columns):
        try:
            expected = entry(pf, win, alpha, t)
        except HypNotConverged:
            truncated += 1
            assert math.isnan(value)
            assert (terms, remainder, status) == (0, math.inf, "truncated")
            continue
        assert value.hex() == expected.hex()
        assert (terms, remainder, status) == (0, 0.0, "converged")
    assert 0 < truncated < len(ts)


def test_hyp_form_next_to_order_one_truncates_every_point():
    # c = 1 - alpha within 1e-12 of the pole c = 0: no point has a value
    pf = rl.power_function(0.0, rl.beta_int(-2))
    win = rl.make_window(1.0, pf)
    values, terms, remainders, statuses = hypergeom._hyp_form(
        pf, win, -0.9999999999991, [1.000001, 1.2, 1.5])
    assert all(map(math.isnan, values))
    assert (terms, remainders, statuses) == \
        ([0] * 3, [math.inf] * 3, ["truncated"] * 3)


# (beta, its value, sign of f(t) = (t - d)^beta below the shift) for
# D^1 = f' on both sides of the shift; 2/3 has a real power below it
_ORDER_ONE_BETAS = (
    (rl.beta_int(2), mp.mpf(2), 1),
    (rl.beta_int(-3), mp.mpf(-3), -1),
    (rl.beta_rational(2, 3), mp.mpf(2) / 3, 1),
    (rl.beta_rational(1, 2), mp.mpf(1) / 2, None),
    (rl.beta_real(-1.5), mp.mpf(-1.5), None),
    (rl.beta_real(7.3), mp.mpf(7.3), None),
    (rl.beta_real(-30.5), mp.mpf(-30.5), None),
)


@pytest.mark.parametrize("d, a", [(0.0, 1.0), (2.0, 1.0)])
def test_rlfd_hyp_form_alpha_one_matches_classical_derivative(d, a):
    checked = 0
    for beta, b, sign_below in _ORDER_ONE_BETAS:
        if d > a and sign_below is None:
            continue   # no real power below the shift
        pf = rl.power_function(d, beta)
        win = rl.make_window(a, pf)
        for frac in (0.0, 0.3, 0.9, 0.999):
            t = a + frac * (win.t_sup - a)
            x = mp.mpf(t) - d
            f = mp.power(abs(x), b) * (sign_below if x < 0 else 1)
            ref = float(b * f / x)
            got = rl.rlfd_hyp_form(pf, win, 1.0, t)
            assert abs(got - ref) <= 1e-13 * abs(ref), (beta, frac)
            checked += 1
    assert checked == (28 if d < a else 12)


def _beta(token):
    """Exponent from its CLI token (``-3``, ``-5/3``, ``0.45``) and its
    exact value for the mpmath reference."""
    if "/" in token:
        p, q = map(int, token.split("/"))
        return rl.beta_rational(p, q), mp.mpf(p) / q
    if "." in token:
        return rl.beta_real(float(token)), mp.mpf(float(token))
    return rl.beta_int(int(token)), mp.mpf(int(token))


def _hyp_form_reference(beta, sa, a, t):
    # d = 0 < a: a^beta (t-a)^sa / Gamma(1+sa) * 2F1(1, -beta; 1+sa; -(t-a)/a)
    with mp.workdps(40):
        A = mp.mpf(a)
        u = mp.mpf(t) - A
        sa = mp.mpf(sa)
        return float(A ** beta * u ** sa / mp.gamma(1 + sa)
                     * mp.hyp2f1(1, -beta, 1 + sa, -u / A))


# (exponent, window fraction above the shift, alpha, operator), each once
_EDGE_CELLS = list(dict.fromkeys(
    # the direct series cancels to a wrong value here
    [("-9.7", 0.99, alpha, op) for alpha in (0.05, 0.5) for op in "JD"]
    # the fixed hyp-fault inputs of perfbench/workloads.py
    + [(token, frac, 0.5, op)
       for token, frac in (("-9.7", 0.99), ("-1", 0.999), ("-3", 0.999),
                           ("-3/2", 0.999), ("-5/3", 0.999))
       for op in "JD"]
    # the direct series runs into its term cap here
    + [(token, 0.999, alpha, op)
       for token, ops in (("1/2", "D"), ("0.45", "D"), ("-0.3", "JD"))
       for op in ops for alpha in (0.05, 0.5, 0.95)]
))


@pytest.mark.parametrize("token, frac, alpha, op", _EDGE_CELLS)
def test_hyp_forms_near_window_edge_match_mpmath(token, frac, alpha, op):
    beta, b = _beta(token)
    pf = rl.power_function(0.0, beta)
    win = rl.make_window(1.0, pf)
    t = 1.0 + frac
    fn, sa = (rl.rlfi_hyp_form, alpha) if op == "J" else (rl.rlfd_hyp_form, -alpha)
    ref = _hyp_form_reference(b, sa, 1.0, t)
    assert abs(fn(pf, win, alpha, t) - ref) <= 1e-12 * abs(ref)


def test_hyp_form_cost_stays_flat_to_the_window_edge(monkeypatch):
    terms = []
    kernel = kernels.hyp2f1_series

    def counting(*args):
        result = kernel(*args)
        terms.append(result[1])
        return result

    monkeypatch.setattr(kernels, "hyp2f1_series", counting)
    for token in ("-9.7", "-3", "-1", "1/2", "7.3"):
        pf = rl.power_function(0.0, _beta(token)[0])
        win = rl.make_window(1.0, pf)
        for frac in (0.9, 0.99, 0.999):
            for alpha in (0.05, 0.5, 0.95):
                for fn in (rl.rlfi_hyp_form, rl.rlfd_hyp_form):
                    terms.clear()
                    fn(pf, win, alpha, 1.0 + frac)
                    assert 0 < sum(terms) <= 80, (token, frac, alpha, fn)


def test_rlfd_hyp_form_identity_at_alpha_zero():
    pf = rl.power_function(0.0, rl.beta_real(0.7))
    win = rl.make_window(1.0, pf)
    assert rl.rlfd_hyp_form(pf, win, 0.0, 1.45) == pytest.approx(
        1.45 ** 0.7, rel=1e-10)


def test_rlfd_hyp_form_centered_limit_linear():
    # beta = 1: two-term polynomial; compare with the centered gamma form
    pf = rl.power_function(0.0, rl.beta_int(1))
    alpha = 0.4
    win = rl.make_window(1e-9, pf)
    got = rl.rlfd_hyp_form(pf, win, alpha, 1.5e-9)
    want = rlfd_polynomial(pf, 1e-9, alpha, 1.5e-9)
    assert rel_err(got, want) <= 1e-9


def test_connection_a6_recombination():
    t1, t2 = connection_a6(0.5, 0.3, 0.6)
    assert isinstance(t1, float) and isinstance(t2, float)
    direct = rl.hyp2f1(1.0, -0.3, 1.5, 0.4)
    assert abs(t1 + t2 - direct) <= 1e-9


def test_connection_a6_degenerate_sum():
    with pytest.raises(ValueError, match="is an integer"):
        connection_a6(0.5, 1.5, 0.6)     # alpha + beta = 2 exactly


def test_connection_a6_near_one_tends_to_one():
    # as z -> 1- the left side tends to 2F1(...; 0) = 1
    t1, t2 = connection_a6(0.45, 0.35, 0.99)
    assert t1 + t2 == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("z", [0.0, -0.5, 1.0, 1.5])
def test_connection_a6_needs_z_inside_unit_interval(z):
    with pytest.raises(ArgOutOfDisk):
        connection_a6(0.5, 0.3, z)
