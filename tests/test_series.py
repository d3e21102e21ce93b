"""Series engine: operation examples, truncation behavior, cross routes."""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest

import rlpower as rl
from rlpower import SeriesStatus, _kernels_py, series
from rlpower.domain import beta_value
from rlpower.errors import (
    BetaOutOfRange,
    EvalAtLowerLimit,
    SeriesNotConverged,
    WindowViolation,
)

from conftest import rel_err
from reference import (
    _polynomial,
    centered_exact,
    displaced_exact,
    gamma_ratio,
    gamma_value,
    partial_sum,
    remainder_bound,
    rlfd_neg_integer,
    rlfd_polynomial,
    rlfi_neg_integer,
    rlfi_polynomial,
    taylor_route,
    upper_limit_exact,
)

SQRT_PI = 1.7724538509055160273


def _win(pf, a, **kw):
    return rl.make_window(a, pf, **kw)


def _closed(beta, d, sa, t):
    return rl.closed_centered(rl.power_function(d, rl.beta_real(beta)), sa, t)


# --- integral series -------------------------------------------------------

def test_rlfi_displaced_hand_integrable_case():
    # beta=1, d=0, a=1, alpha=0.5, t=1.5: (3 sqrt(.5) - (2/3) .5^1.5)/sqrt(pi)
    pf = rl.power_function(0.0, rl.beta_int(1))
    res = rl.rlfi_series_displaced(pf, _win(pf, 1.0), 0.5, 1.5)
    hand = (3.0 * math.sqrt(0.5) - (2.0 / 3.0) * 0.5 ** 1.5) / SQRT_PI
    assert res.value == pytest.approx(hand, rel=1e-12)
    assert res.terms_used == 2          # exact two-term sum
    assert res.status is SeriesStatus.CONVERGED


def test_rlfi_at_lower_limit_is_zero():
    pf = rl.power_function(0.0, rl.beta_real(-1.5))
    res = rl.rlfi_series_displaced(pf, _win(pf, 1.0), 0.5, 1.0)
    assert res.value == 0.0
    assert res.terms_used >= 0


def test_rlfi_rational_matches_oracle():
    pf = rl.power_function(0.0, rl.beta_rational(1, 2))
    res = rl.rlfi_series_displaced(pf, _win(pf, 1.0), 0.5, 1.4)
    assert rel_err(res.value, rl.quad_rlfi(pf, 1.0, 0.5, 1.4).value) <= 1e-8


def test_rlfi_above_log_case():
    pf = rl.power_function(0.0, rl.beta_int(-1))
    res = rl.rlfi_series_displaced(pf, _win(pf, pf.d + 2.0), 1.0, 2.5)
    assert res.value == pytest.approx(math.log(1.25), rel=1e-9)


def test_rlfi_above_at_start_is_zero():
    pf = rl.power_function(0.0, rl.beta_real(2.2))
    assert rl.rlfi_series_displaced(pf, _win(pf, pf.d + 1.0), 0.5, 1.0).value == 0.0


def test_window_violation_raised_before_compute():
    pf = rl.power_function(0.0, rl.beta_int(-2))
    win = _win(pf, 1.0)
    with pytest.raises(WindowViolation):
        rl.rlfi_series_displaced(pf, win, 0.5, 2.0)   # exact open boundary
    with pytest.raises(WindowViolation):
        rl.rlfd_series(pf, win, 0.5, 5.0)


def test_series_not_converged_carries_partial_result():
    pf = rl.power_function(0.0, rl.beta_real(-1.5))
    win = _win(pf, 1.0)
    with pytest.raises(SeriesNotConverged) as exc:
        rl.rlfi_series_displaced(pf, win, 0.5, 1.9, max_terms=5)
    res = exc.value.result
    assert res.terms_used == 5
    assert res.status is SeriesStatus.TRUNCATED
    assert res.remainder_bound > 0.0


def test_natural_termination_term_count():
    # integer beta >= 0: exactly m+1 terms, and only the roundoff floor
    # remains, which bounds the error
    for m in (0, 1, 2, 5):
        pf = rl.power_function(0.0, rl.beta_int(m))
        res = rl.rlfi_series_displaced(pf, _win(pf, 1.0), 0.7, 1.6)
        assert res.terms_used == m + 1
        err = abs(mp.mpf(res.value) - upper_limit_exact(m, 0.0, 1.0, 0.7, 1.6))
        assert err <= res.remainder_bound


def test_polynomial_sum_examples():
    pf0 = rl.power_function(0.0, rl.beta_int(0))
    assert rlfi_polynomial(pf0, 0.0, 0.5, 1.0) == pytest.approx(
        2.0 / SQRT_PI, rel=1e-13)
    pf1 = rl.power_function(0.0, rl.beta_int(1))
    assert rlfi_polynomial(pf1, 0.0, 0.5, 1.0) == pytest.approx(
        0.75225277806367504, rel=1e-12)    # Gamma(2)/Gamma(2.5)
    pf2 = rl.power_function(0.0, rl.beta_int(2))
    assert rlfi_polynomial(pf2, 0.0, 0.0, 1.7) == pytest.approx(1.7 ** 2, rel=1e-13)


def test_polynomial_centered_reduces_to_single_term():
    pf = rl.power_function(0.4, rl.beta_int(3))
    got = rlfi_polynomial(pf, 0.4, 0.6, 2.0)
    want = gamma_ratio(4.0, 4.6) * (2.0 - 0.4) ** 3.6
    assert got == pytest.approx(want, rel=1e-12)


def test_neg_integer_route_agrees_with_general():
    # each route lies within its own bound of the exact value, so they agree
    # within the sum of their bounds
    pf = rl.power_function(0.0, rl.beta_int(-2))
    win = _win(pf, 1.0)
    alt = rlfi_neg_integer(pf, win, 0.5, 1.2)
    gen = rl.rlfi_series_displaced(pf, win, 0.5, 1.2)
    exact = upper_limit_exact(-2, 0.0, 1.0, 0.5, 1.2)
    for res in (alt, gen):
        assert abs(mp.mpf(res.value) - exact) <= res.remainder_bound
    assert abs(alt.value - gen.value) <= alt.remainder_bound + gen.remainder_bound


def test_neg_integer_log_reduction():
    pf = rl.power_function(0.0, rl.beta_int(-1))
    res = rlfi_neg_integer(pf, _win(pf, 2.0), 1.0, 2.5)
    assert res.value == pytest.approx(math.log(1.25), rel=1e-9)


def test_neg_integer_at_lower_limit():
    pf = rl.power_function(0.0, rl.beta_int(-2))
    assert rlfi_neg_integer(pf, _win(pf, 1.0), 0.5, 1.0).value == 0.0
    with pytest.raises(EvalAtLowerLimit):
        rlfd_neg_integer(pf, _win(pf, 1.0), 0.5, 1.0)


# --- derivative series -----------------------------------------------------

def test_rlfd_centered_linear():
    pf = rl.power_function(0.0, rl.beta_int(1))
    res = rl.rlfd_series(pf, _win(pf, 0.0), 0.5, 1.0)
    assert res.value == pytest.approx(2.0 / SQRT_PI, rel=1e-12)  # Gamma(2)/Gamma(1.5)


def test_rlfd_constant_is_not_zero():
    pf = rl.power_function(0.0, rl.beta_int(0))
    got = rlfd_polynomial(pf, 0.0, 0.5, 1.0)
    assert got == pytest.approx(1.0 / SQRT_PI, rel=1e-12)


def test_rlfd_alpha_one_classical_derivative():
    pf = rl.power_function(0.0, rl.beta_int(2))
    res = rl.rlfd_series(pf, _win(pf, 1.0), 1.0, 1.2)
    assert res.value == pytest.approx(2.4, rel=1e-10)


def test_rlfd_neg_integer_alpha_one():
    pf = rl.power_function(0.0, rl.beta_int(-1))
    res = rlfd_neg_integer(pf, _win(pf, 2.0), 1.0, 2.5)
    assert res.value == pytest.approx(-0.16, rel=1e-9)


def test_rlfd_polynomial_example():
    pf = rl.power_function(0.0, rl.beta_int(1))
    assert rlfd_polynomial(pf, 0.0, 0.5, 4.0) == pytest.approx(
        2.0 * math.sqrt(4.0 / math.pi), rel=1e-12)


def test_rlfd_polynomial_constant_alpha_one_is_zero():
    pf = rl.power_function(0.0, rl.beta_int(0))
    assert rlfd_polynomial(pf, 0.0, 1.0, 2.3) == 0.0


def test_rlfd_polynomial_identity_alpha_zero():
    pf = rl.power_function(0.5, rl.beta_int(3))
    assert rlfd_polynomial(pf, 2.0, 0.0, 3.1) == pytest.approx(
        (3.1 - 0.5) ** 3, rel=1e-12)


def test_rlfd_at_lower_limit_raises():
    pf = rl.power_function(0.0, rl.beta_rational(1, 2))
    with pytest.raises(EvalAtLowerLimit):
        rl.rlfd_series(pf, _win(pf, 1.0), 0.5, 1.0)


# --- closed centered forms -------------------------------------------------

def test_closed_centered_integral():
    got = _closed(1.0, 0.0, 0.5, 1.0)
    assert got == pytest.approx(0.75225277806367504, rel=1e-12)


def test_closed_centered_derivative():
    got = _closed(0.5, 0.0, -0.5, 1.0)
    assert got == pytest.approx(0.88622692545275801, rel=1e-12)  # Gamma(1.5)


def test_closed_centered_identity_at_alpha_zero():
    got = _closed(0.7, 0.0, 0.0, 1.9)
    assert got == pytest.approx(1.9 ** 0.7, rel=1e-13)


def test_closed_centered_beta_out_of_range():
    with pytest.raises(BetaOutOfRange):
        _closed(-1.0, 0.0, 0.5, 1.0)
    with pytest.raises(BetaOutOfRange):
        _closed(-2.5, 0.0, 0.5, 1.0)
    # within 1e-12 of -1 is the pole of Gamma(beta+1), for every order
    for sa in (0.5, 0.0, -1.0):
        with pytest.raises(BetaOutOfRange):
            _closed(-1.0 + 1e-13, 0.0, sa, 1.0)


def test_closed_centered_derivative_kills_power_alpha_minus_one():
    # D^alpha (t-d)^(alpha-1) = 0 through the gamma pole
    assert _closed(-0.5, 0.0, -0.5, 2.0) == 0.0


# --- centered window -------------------------------------------------------

@pytest.mark.parametrize("m", range(6))
def test_centered_series_is_closed_centered(m):
    # the m + 1 polynomial terms collapse to the one centered term
    pf = rl.power_function(0.3, rl.beta_int(m))
    win = _win(pf, 0.3)
    for alpha in (0.0, 0.35, 1.0):
        for t in (0.8, 2.0, 5.3):
            for entry, sa in ((rl.rlfi_series_displaced, alpha),
                              (rl.rlfd_series, -alpha)):
                res = entry(pf, win, alpha, t)
                closed = rl.closed_centered(pf, sa, t)
                assert res.value == closed
                assert (res.terms_used, res.status) == \
                    (m + 1, SeriesStatus.CONVERGED)
                assert 0.0 <= res.remainder_bound <= 1e-13 * max(1.0, abs(closed))
                assert rel_err(closed, _polynomial(pf, 0.3, sa, t)) <= 1e-14


def test_centered_derivative_at_lower_limit():
    # (t-d)^(m-alpha) vanishes at t = a = d for m >= 1; for m = 0 the one
    # term is singular there
    for m in (1, 2, 5):
        pf = rl.power_function(0.3, rl.beta_int(m))
        for alpha in (0.35, 0.5):
            assert rl.rlfd_series(pf, _win(pf, 0.3), alpha, 0.3).value == 0.0
    pf = rl.power_function(0.3, rl.beta_int(0))
    with pytest.raises(EvalAtLowerLimit):
        rl.rlfd_series(pf, _win(pf, 0.3), 0.35, 0.3)


def _centered_probes():
    """(pf, sa, sorted ts, 40-digit values): random centered jobs, m <= 60
    (most <= 12), J and D, orders 0 to 1, shifts whose t - d is exact or
    rounded, t - d from 1e-8 to 1e6, and points whose value is subnormal."""
    rng = random.Random(15)
    probes = []
    for i in range(300):
        m = rng.randint(0, 12) if i % 4 else rng.randint(0, 60)
        alpha = rng.choice((0.0, 1.0, 0.5, rng.random(), rng.random()))
        sa = alpha if i % 2 else -alpha
        d = rng.choice((0.0, rng.uniform(-10.0, 10.0), rng.uniform(-1e6, 1e6)))
        if i % 10 == 9 and m + sa >= 1.0:
            # values from 1e-323 to 1e-300
            xs = [10.0 ** (rng.uniform(-323.0, -300.0) / (m + sa))
                  for _ in range(3)]
        else:
            top = min(6.0, 300.0 / max(1.0, m + sa))  # below the float range
            xs = [10.0 ** rng.uniform(-8.0, top) for _ in range(3)]
        ts = sorted(d + x for x in xs)
        pf = rl.power_function(d, rl.beta_int(m))
        e = m + mp.mpf(sa)
        refs = [mp.gamma(m + 1) * mp.rgamma(e + 1) * (mp.mpf(t) - mp.mpf(d)) ** e
                for t in ts]
        probes.append((pf, sa, ts, refs))
    return probes


@pytest.fixture(scope="module")
def centered_probes():
    with mp.workdps(40):
        return _centered_probes()


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_centered_series_lies_within_its_bound(centered_probes, backend,
                                               monkeypatch, compiled_kernels):
    monkeypatch.setattr(series, "kernels",
                        _kernels_py if backend == "pure" else compiled_kernels)
    checked = 0
    for pf, sa, ts, refs in centered_probes:
        columns = series._series(pf, rl.make_window(pf.d, pf), sa, ts,
                                 series.DEFAULT_TOL, series.DEFAULT_MAX_TERMS)
        for t, ref, value, terms, bound, status in zip(ts, refs, *columns):
            assert (terms, status) == (pf.beta.m + 1, "converged")
            assert abs(mp.mpf(value) - ref) <= bound, (pf, sa, t, value, bound)
            checked += 1
    assert checked >= 800


def _closed_beta(rng, kind, sa):
    """A beta > -1 of one probe class at the signed order sa, or None."""
    if kind == 0:
        return rl.beta_int(rng.randint(0, 12) if rng.random() < 0.7
                           else rng.randint(0, 200))
    if kind == 1:
        q = rng.choice((3, 7, 11, 97, 1000))
        return rl.beta_rational(rng.randint(1 - q, 60 * q), q)
    if kind == 2:
        b = rng.uniform(-1.0, 1.0) if rng.random() < 0.7 \
            else rng.uniform(-1.0, 150.0)
        return rl.beta_real(b) if b > -1.0 + 1e-9 else None
    if kind == 5:  # beta within 1e-2 of -1
        if rng.random() < 0.5:
            q = rng.choice((1000, 12345, 99991))
            return rl.beta_rational(rng.randint(1, 20) - q, q)
        return rl.beta_real(-1.0 + 10.0 ** rng.uniform(-11.0, -2.0))
    # beta + sa near 0 (kind 3), or beta + sa + 1 from 1e-11 to 1e-2 off
    # the pole of Gamma(beta+sa+1) at 0 (kind 4)
    b = -sa if kind == 3 else -1.0 - sa + rng.choice((1.0, -1.0)) * 10.0 \
        ** rng.uniform(-11.0, -2.0)
    if rng.random() < 0.5:
        q = rng.choice((3, 7, 11, 97, 1000))
        p = round(b * q)
        return rl.beta_rational(p, q) if p and p > -q else None
    offset = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-15.0, -3.0)
    b += offset if kind == 3 else 0.0
    return rl.beta_real(b) if b > -1.0 + 1e-9 else None


def _closed_probes():
    """(pf, sa, sorted ts, 40-digit values): random closed-route jobs, J and
    D, orders 0 to 1, in six classes: integer m <= 200; rational p/q, q up to
    1000; declared-real beta; beta + sa near 0; beta + sa + 1 from 1e-11 to
    1e-2 off 0; beta within 1e-2 of -1.  t - d runs from 1e-300 to 1e300 as
    far as the value stays a float, and some points give subnormal values."""
    rng = random.Random(22)
    probes = []
    while len(probes) < 360:
        kind = len(probes) % 6
        alpha = rng.choice((0.0, 1.0, 0.5, rng.random(), rng.random()))
        sa = alpha if rng.random() < 0.5 else -alpha
        if kind in (3, 4):
            sa = -rng.uniform(0.01, 1.0)
        beta = _closed_beta(rng, kind, sa)
        if beta is None:
            continue
        e = beta_value(beta) + sa
        if rng.random() < 0.1 and e > 0.2:
            xs = [10.0 ** (rng.uniform(-323.0, -308.0) / e) for _ in range(3)]
        else:
            span = 300.0 / max(1.0, abs(e))
            xs = [10.0 ** rng.uniform(-span, span) for _ in range(3)]
        d = rng.choice((0.0, rng.uniform(-10.0, 10.0), rng.uniform(-1e6, 1e6)))
        pf = rl.power_function(d, beta)
        ts = sorted(t for t in (d + x for x in xs) if t > d)
        probes.append((pf, sa, ts, [centered_exact(beta, d, sa, t) for t in ts]))
    return probes


@pytest.fixture(scope="module")
def closed_probes():
    return _closed_probes()


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_closed_route_lies_within_its_remainder(closed_probes, backend,
                                                monkeypatch, compiled_kernels):
    # the closed route's columns: terms 0, and a remainder that holds the
    # 40-digit gamma ratio, converged where it meets the tolerance
    monkeypatch.setattr(series, "kernels",
                        _kernels_py if backend == "pure" else compiled_kernels)
    checked = 0
    for pf, sa, ts, refs in closed_probes:
        columns = series._centered(pf, sa, ts, series.DEFAULT_TOL)
        for t, ref, value, terms, bound, status in zip(ts, refs, *columns):
            assert terms == 0
            assert abs(mp.mpf(value) - ref) <= bound, (pf, sa, t, value, bound)
            assert (status == "converged") == \
                (bound <= series.DEFAULT_TOL * max(1.0, abs(value)))
            checked += 1
    assert checked >= 800


def test_centered_constant_next_to_order_one_is_not_converged():
    # Gamma(1 + sa) at sa = -1 + 1e-13 is taken for its pole: the 0 returned
    # for the true 1e-13 / (t - d) has no bound
    pf = rl.power_function(0.3, rl.beta_int(0))
    with pytest.raises(SeriesNotConverged) as info:
        rl.rlfd_series(pf, _win(pf, 0.3), 1.0 - 1e-13, 1.3)
    assert info.value.result == rl.SeriesResult(0.0, 1, math.inf,
                                                SeriesStatus.TRUNCATED)


# --- remainder machinery ---------------------------------------------------

def test_remainder_bound_zero_at_lower_limit():
    pf = rl.power_function(0.0, rl.beta_int(-2))
    win = _win(pf, 1.0)
    for p in (1, 3, 10):
        assert remainder_bound(pf, win, 0.5, 1.0, p) == 0.0


def test_remainder_bound_geometric_ratio_above():
    # above the shift the sound geometric factor is |t-a|/|a-d|
    pf = rl.power_function(0.0, rl.beta_int(-2))
    win = _win(pf, 1.0)
    b40 = remainder_bound(pf, win, 0.5, 1.2, 40)
    b41 = remainder_bound(pf, win, 0.5, 1.2, 41)
    assert b41 / b40 == pytest.approx(0.2, rel=0.1)


def test_remainder_bound_geometric_ratio_below():
    # below the shift the factor is |t-a|/|t-d|
    pf = rl.power_function(1.0, rl.beta_int(-2))
    win = _win(pf, 0.0)
    t = 0.3
    b40 = remainder_bound(pf, win, 0.5, t, 40)
    b41 = remainder_bound(pf, win, 0.5, t, 41)
    assert b41 / b40 == pytest.approx(0.3 / 0.7, rel=0.1)


def test_remainder_bound_monotone_past_crossover():
    pf = rl.power_function(0.0, rl.beta_real(-1.5))
    win = _win(pf, 1.0)
    bounds = [remainder_bound(pf, win, 0.5, 1.6, p) for p in range(3, 40)]
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_remainder_bound_dominates_true_tail():
    pf = rl.power_function(0.0, rl.beta_rational(1, 2))
    win = _win(pf, 1.0)
    t = 1.8
    exact = rl.quad_rlfi(pf, 1.0, 0.5, t).value
    for p in range(1, 30):
        err = abs(exact - partial_sum(pf, win, 0.5, t, p))
        assert err <= remainder_bound(pf, win, 0.5, t, p)


def test_remainder_bound_deriv_dominates_tail():
    pf = rl.power_function(0.0, rl.beta_real(-1.5))
    win = _win(pf, 1.0)
    t = 1.8
    converged = rl.rlfd_series(pf, win, 0.5, t, tol=1e-13).value
    for p in range(1, 25):
        err = abs(converged - partial_sum(pf, win, -0.5, t, p))
        assert err <= remainder_bound(pf, win, -0.5, t, p) + 1e-12


def test_term_ratio_tends_to_window_ratio():
    # |term_{k+1}/term_k| -> |(t-a)/(a-d)| inside the window
    pf = rl.power_function(0.0, rl.beta_real(-1.5))
    win = _win(pf, 1.0)
    t = 1.6
    p40 = partial_sum(pf, win, 0.5, t, 41)
    p39 = partial_sum(pf, win, 0.5, t, 40)
    p38 = partial_sum(pf, win, 0.5, t, 39)
    ratio = (p40 - p39) / (p39 - p38)
    assert abs(ratio) == pytest.approx(0.6, rel=0.05)


def test_recurrence_matches_fresh_gamma_coefficients():
    # first 20 terms from the recurrence against direct gamma-ratio values
    pf = rl.power_function(0.0, rl.beta_real(-1.5))
    win = _win(pf, 1.0)
    alpha, t = 0.5, 1.7
    b = beta_value(pf.beta)
    prev = 0.0
    for p in range(1, 21):
        term = partial_sum(pf, win, alpha, t, p) - prev
        prev = partial_sum(pf, win, alpha, t, p)
        direct = (gamma_ratio(b + 1.0, b - (p - 1) + 1.0)
                  / gamma_value(alpha + (p - 1) + 1.0)
                  * (1.0) ** (b - (p - 1)) * (t - 1.0) ** (alpha + p - 1))
        assert term == pytest.approx(direct, rel=1e-10, abs=1e-250)


# --- taylor route ----------------------------------------------------------

def test_taylor_route_matches_displaced_series():
    pf = rl.power_function(0.0, rl.beta_real(math.pi))
    tay = taylor_route(pf, 1.0, 0.3, 1.3)
    ser = rl.rlfi_series_displaced(pf, _win(pf, 1.0), 0.3, 1.3)
    assert rel_err(tay.value, ser.value) <= 1e-10


def test_taylor_route_alpha_one_antiderivative():
    pf = rl.power_function(0.0, rl.beta_rational(1, 2))
    tay = taylor_route(pf, 1.0, 1.0, 1.4)
    want = (1.4 ** 1.5 - 1.0) / 1.5
    assert tay.value == pytest.approx(want, rel=1e-9)


def test_taylor_route_alpha_zero_is_taylor_sum():
    pf = rl.power_function(0.0, rl.beta_real(-0.7))
    tay = taylor_route(pf, 1.0, 0.0, 1.35)
    assert tay.value == pytest.approx(1.35 ** -0.7, rel=1e-9)


def test_roundoff_floor_reported_honestly():
    # steep exponent near the window edge below the shift: the displaced
    # series' terms alternate and grow ~4e6 above the result, but Euler's
    # form sums terms of one sign, so its roundoff floor stays below 1e-10
    # and the value converges within its bound
    pf = rl.power_function(0.0, rl.beta_rational(80, 3))
    win = _win(pf, -4.0)
    alpha, t = 0.05, -2.2
    exact = displaced_exact(pf.beta, 0.0, -4.0, alpha, t)
    res = rl.rlfi_series_displaced(pf, win, alpha, t)
    assert res.status is SeriesStatus.CONVERGED
    assert abs(mp.mpf(res.value) - exact) <= res.remainder_bound
    assert res.remainder_bound <= 1e-10 * abs(res.value)
    # a looser tolerance stops sooner, with an honest bound
    loose = rl.rlfi_series_displaced(pf, win, alpha, t, tol=1e-3)
    assert loose.status is SeriesStatus.CONVERGED
    assert loose.terms_used < res.terms_used
    assert abs(mp.mpf(loose.value) - exact) <= loose.remainder_bound
    assert loose.remainder_bound <= 1e-3 * max(1.0, abs(loose.value))


def test_steep_exponent_above_the_shift_converges():
    # beta = -9 near the window edge above the shift: the upper-limit
    # expansion sums terms of one sign after the first and converges within
    # its bound
    pf = rl.power_function(-3.097620834595584, rl.beta_int(-9))
    win = _win(pf, -2.5142743197150135)
    alpha, t = 0.05, -1.9757011216363423
    oracle = rl.quad_rlfi(pf, win.a, alpha, t).value
    res = rl.rlfi_series_displaced(pf, win, alpha, t)
    assert res.status is SeriesStatus.CONVERGED
    assert abs(res.value - oracle) <= res.remainder_bound


def test_route_equivalence_pairwise():
    # series, taylor, neg-int alternate and (centered polynomial) closed form
    pf = rl.power_function(0.0, rl.beta_int(-2))
    win = _win(pf, 1.0)
    alpha, t = 0.6, 1.5
    values = [
        rl.rlfi_series_displaced(pf, win, alpha, t).value,
        taylor_route(pf, 1.0, alpha, t).value,
        rlfi_neg_integer(pf, win, alpha, t).value,
        rl.rlfi_hyp_form(pf, win, alpha, t),
    ]
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert rel_err(values[i], values[j]) <= 1e-8

    # centered polynomial: finite sum against the closed gamma form
    pfm = rl.power_function(0.5, rl.beta_int(3))
    poly = rlfi_polynomial(pfm, 0.5, alpha, 2.0)
    closed = _closed(3.0, 0.5, alpha, 2.0)
    assert rel_err(poly, closed) <= 1e-12

