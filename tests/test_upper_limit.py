"""The series route above the shift sums the upper-limit expansion

    (t-d)^beta (t-a)^sa / Gamma(1+sa) 2F1(sa, -beta; 1+sa; (t-a)/(t-d)),

whose argument stays below 1/2 up to the window edge.  Checked against
40-digit mpmath on both kernel backends: every value converges within its
reported bound in a bounded number of terms, and the orders 0 and 1 and the
lower limit reduce as they should, all without the displaced kernel."""

from __future__ import annotations

import mpmath as mp
import pytest

import rlpower as rl
from rlpower import SeriesStatus, _kernels_py, series

from reference import upper_limit_exact

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
    """A kernel module whose power_series is replaced."""

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


@pytest.fixture
def no_displaced_kernel(monkeypatch, backend):
    """Above the shift the displaced kernel must never run."""
    def refuse(*args):
        raise AssertionError("power_series called above the shift")
    monkeypatch.setattr(series, "kernels", _Without(backend, refuse))


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
