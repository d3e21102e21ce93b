"""The series route sums a Gauss series in an argument below 1/2 up to the
window edge on both sides of the shift: above it the upper-limit expansion

    (t-d)^beta (t-a)^sa / Gamma(1+sa) 2F1(sa, -beta; 1+sa; (t-a)/(t-d)),

and below it Euler's form of the displaced series, with w = (t-a)/(a-d),

    (a-d)^beta (1+w)^(sa+beta) (t-a)^sa / Gamma(1+sa)
        2F1(sa, 1+sa+beta; 1+sa; -w).

Checked against 40-digit mpmath on both kernel backends: every converged
value lies within its reported bound after a bounded number of terms, and
the orders 0 and 1 and the lower limit reduce as they should, all without
the displaced kernel."""

from __future__ import annotations

import contextlib
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rlpower as rl
from rlpower import SeriesStatus, _kernels_py, series

from reference import displaced_exact, upper_limit_exact

# exponent tokens as the CLI takes them: -3 integer, -5/3 rational, 0.45 real
BETAS = ("-30.3", "-9.7", "-3", "-5/3", "-1", "-0.3", "1/2", "2", "7/3", "7.3")
SIGNED_ORDERS = (0.05, -0.05, 0.5, -0.5, 0.95, -0.95)
FRACS = (0.5, 0.9, 0.99, 0.999)
# (d, a): windows of width 1, 0.3 and 2.5 above the shift
PLACEMENTS = ((0.0, 1.0), (-1.25, -0.95), (0.5, 3.0))
MAX_TERMS_SEEN = 130


def _beta(token):
    """The exponent and its exact value for the reference."""
    if "/" in token:
        p, q = map(int, token.split("/"))
        return rl.beta_rational(p, q), mp.mpf(p) / q
    if "." in token:
        return rl.beta_real(float(token)), mp.mpf(float(token))
    return rl.beta_int(int(token)), mp.mpf(int(token))


def _entry(sa):
    return (rl.rlfi_series_displaced, sa) if sa >= 0.0 else (rl.rlfd_series, -sa)


class _Without:
    """A kernel module whose power_series, the displaced kernel that the
    compiled module still exports, is replaced."""

    def __init__(self, kernels, power_series):
        self._kernels = kernels
        self.power_series = power_series

    def __getattr__(self, name):
        return getattr(self._kernels, name)


@pytest.fixture(params=["pure", "compiled"])
def backend(request, monkeypatch, compiled_kernels):
    kernels = _kernels_py if request.param == "pure" else compiled_kernels
    monkeypatch.setattr(series, "kernels", kernels)
    return kernels


def _refuse(*args):
    raise AssertionError("power_series called by the series route")


@pytest.fixture
def no_displaced_kernel(monkeypatch, backend):
    """The displaced kernel must never run, on either side of the shift."""
    monkeypatch.setattr(series, "kernels", _Without(backend, _refuse))


@contextlib.contextmanager
def _series_on(kernels):
    # the series route on the kernel module `kernels`, without its displaced
    # kernel, for one block: hypothesis runs a test's examples under one
    # function-scoped fixture, so the property below swaps backends itself
    saved = series.kernels
    series.kernels = _Without(kernels, _refuse)
    try:
        yield
    finally:
        series.kernels = saved


def test_converges_within_bound_to_the_window_edge(no_displaced_kernel):
    cells = 0
    for i, token in enumerate(BETAS):
        beta, b = _beta(token)
        d, a = PLACEMENTS[i % len(PLACEMENTS)]
        pf = rl.power_function(d, beta)
        win = rl.make_window(a, pf)
        for sa in SIGNED_ORDERS:
            fn, alpha = _entry(sa)
            for frac in FRACS:
                t = a + frac * (win.t_sup - a)
                res = fn(pf, win, alpha, t)
                assert res.status is SeriesStatus.CONVERGED
                err = abs(mp.mpf(res.value) - upper_limit_exact(b, d, a, sa, t))
                assert err <= res.remainder_bound, (token, sa, frac)
                assert res.terms_used <= MAX_TERMS_SEEN
                cells += 1
    assert cells == 240


@pytest.mark.parametrize("token", ["-9.7", "-1", "-0.3", "0", "2", "7/3"])
def test_orders_zero_and_one_and_the_lower_limit(token, no_displaced_kernel):
    beta, b = _beta(token)
    d, a = -0.4, 0.35
    pf = rl.power_function(d, beta)
    win = rl.make_window(a, pf)
    for frac in (0.0, 0.3, 0.999):
        t = a + frac * (win.t_sup - a)
        with mp.workdps(40):
            x = mp.mpf(t) - mp.mpf(d)
            f, df = x ** b, b * x ** (b - 1)
        for fn, alpha, sa, want in (
                (rl.rlfi_series_displaced, 0.0, 0.0, f),          # identity
                (rl.rlfd_series, 0.0, 0.0, f),
                (rl.rlfd_series, 1.0, -1.0, df)):                 # f'(t)
            res = fn(pf, win, alpha, t)
            assert res.terms_used == 1
            assert abs(mp.mpf(res.value) - want) <= res.remainder_bound
            exact = upper_limit_exact(b, d, a, sa, t)
            assert abs(exact - want) <= 1e-35 * (1 + abs(want))
        # J^1 is the integral of f from a to t
        res = rl.rlfi_series_displaced(pf, win, 1.0, t)
        assert abs(mp.mpf(res.value) - upper_limit_exact(b, d, a, 1.0, t)) \
            <= res.remainder_bound
    # at t = a the integrals vanish in no terms; the derivatives of order
    # 0 < alpha < 1 are singular there
    for alpha in (0.35, 1.0):
        assert rl.rlfi_series_displaced(pf, win, alpha, a) == \
            rl.SeriesResult(0.0, 0, 0.0, SeriesStatus.CONVERGED)
    with pytest.raises(rl.EvalAtLowerLimit):
        rl.rlfd_series(pf, win, 0.35, a)


def test_term_cap_reports_the_majorant(backend):
    # the cap leaves an unknown tail: the whole closed majorant bounds it
    pf = rl.power_function(0.0, rl.beta_real(-9.7))
    win = rl.make_window(1.0, pf)
    with pytest.raises(rl.SeriesNotConverged) as exc:
        rl.rlfi_series_displaced(pf, win, 0.5, 1.99, max_terms=5)
    res = exc.value.result
    assert (res.terms_used, res.status) == (5, SeriesStatus.TRUNCATED)
    err = abs(mp.mpf(res.value) - upper_limit_exact(-9.7, 0.0, 1.0, 0.5, 1.99))
    assert err <= res.remainder_bound


@pytest.mark.parametrize("token", ["12.5", "15", "31/2"])
def test_steep_positive_exponent_converges(token, backend):
    # the terms alternate below k = beta; the (1+z)^ceil(beta) majorant keeps
    # the proven floor below tolerance where (1-z)^-beta would not
    beta, b = _beta(token)
    pf = rl.power_function(0.0, beta)
    win = rl.make_window(1.0, pf)
    for sa in SIGNED_ORDERS:
        fn, alpha = _entry(sa)
        for frac in FRACS:
            res = fn(pf, win, alpha, 1.0 + frac)
            err = abs(mp.mpf(res.value) - upper_limit_exact(b, 0.0, 1.0, sa, 1.0 + frac))
            assert err <= res.remainder_bound


# below the shift: integer and even-numerator rational exponents up to 30 in
# size (the only ones whose domain reaches below the shift), J and D
MAX_TERMS_BELOW = 200


@st.composite
def _below_cells(draw):
    # (beta, d, a, signed order, window fraction), from a drawn seed
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if rng.random() < 0.5:
        beta = rl.beta_int(rng.randint(-30, 30))
    else:
        q = rng.choice((3, 5, 7))
        beta = rl.beta_rational(2 * rng.randint(1, 15 * q), q)
    d = rng.uniform(-3.0, 3.0)
    a = d - 10.0 ** rng.uniform(-1.0, 0.7)
    alpha = rng.uniform(1e-3, 1.0 - 1e-3)
    frac = rng.choice((rng.uniform(0.1, 0.999), rng.uniform(0.9, 0.999),
                       0.999))
    return beta, d, a, alpha if rng.random() < 0.5 else -alpha, frac


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(cell=_below_cells())
# terminating exponents, where the displaced series left values outside
# their bound (here beta = 0, by 2.8 times)
@example(cell=(rl.beta_int(0), 2.0, 1.0, 0.5, 0.9))
@example(cell=(rl.beta_int(2), 2.0, 1.0, -0.5, 0.999))
@example(cell=(rl.beta_int(5), 0.3, -1.7, 0.25, 0.99))
@example(cell=(rl.beta_int(30), 1.0, 0.0, -0.95, 0.999))
# beta = 80/3 near the edge, where the displaced series' alternating terms
# met its roundoff floor
@example(cell=(rl.beta_rational(80, 3), 0.0, -4.0, 0.05, 0.9))
# Euler's form alternates for beta <= -21 near the edge, and its roundoff
# floor stops it honestly
@example(cell=(rl.beta_int(-23), 0.0, -1.0, 0.685, 0.999))
def test_below_the_shift_lies_within_its_bound(compiled_kernels, cell):
    beta, d, a, sa, frac = cell
    pf = rl.power_function(d, beta)
    win = rl.make_window(a, pf)
    t = a + frac * (win.t_sup - a)
    exact = displaced_exact(beta, d, a, sa, t)
    columns = []
    for kernels in (_kernels_py, compiled_kernels):
        with _series_on(kernels):
            columns.append(series._series(pf, win, sa, [t], 1e-10, 10000))
    # the two kernels return the same bits, so one check holds for both
    assert repr(columns[0]) == repr(columns[1])
    (value,), (terms,), (bound,), (status,) = columns[0]
    assert terms <= MAX_TERMS_BELOW
    if status == "converged":
        assert abs(mp.mpf(value) - exact) <= bound
    else:
        assert status == "truncated" and bound > 1e-10 * max(1.0, abs(value))
