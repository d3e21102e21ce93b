"""Quadrature oracle: substitution correctness, the derivative by parts and
its estimate against 40-digit mpmath on both backends, the log case."""

from __future__ import annotations

import math
import time

import mpmath as mp
import pytest

import rlpower as rl
from rlpower import _kernels_py, oracle
from rlpower.domain import IntegerExp, RationalExp, beta_value, branch_power
from rlpower.errors import EvalAtLowerLimit, PoleInsideInterval

from reference import displaced_exact, log_reference

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
    # the tolerance floor applies to both oracles before any other check
    pf = rl.power_function(0.0, rl.beta_int(2))
    for quad in (rl.quad_rlfi, rl.quad_rlfd):
        with pytest.raises(ValueError, match="not achievable"):
            quad(pf, 1.0, 0.0, 1.2, 1e-17)


def test_quad_far_shift_is_not_a_staircase(monkeypatch):
    # t - a = 4e5 next to |d| = 5e15: the integrand is evaluated in offsets
    # from the shift, so rounding leaves it smooth; the shallow depth cap
    # makes a staircase fail fast instead of running for minutes
    monkeypatch.setattr(rl.oracle, "MAX_DEPTH", 8)
    d = -5354913003596034.0
    alpha = 0.3103265718398221
    pf = rl.power_function(d, rl.beta_int(1))
    t = d + 379420.59870354056
    exact = math.exp(-math.lgamma(2.0 + alpha)) * (t - d) ** (1.0 + alpha)
    got = rl.quad_rlfi(pf, d, alpha, t)
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
    monkeypatch.setattr(oracle, "kernels", kernels)
    for (beta, d, a, alpha, t), ref in sweep:
        got = rl.quad_rlfd(rl.power_function(d, beta), a, alpha, t)
        assert abs(got.value - ref) <= got.error_estimate, (beta, a, alpha, t)


def test_quad_rlfd_order_zero_is_f():
    pf = rl.power_function(0.0, rl.beta_rational(-3, 2))
    assert rl.quad_rlfd(pf, 1.0, 0.0, 1.7) == (pf.value(1.7), 0.0)


@pytest.mark.parametrize("beta, a, t, sign", [
    (rl.beta_int(-3), 1.0, 1.6, 1),
    (rl.beta_int(0), 1.0, 1.6, 1),
    (rl.beta_rational(2, 3), -1.0, -0.6, -1),
    (rl.beta_real(7.3), 1.0, 1.6, 1),
])
def test_quad_rlfd_order_one_is_f_prime(beta, a, t, sign):
    got = rl.quad_rlfd(rl.power_function(0.0, beta), a, 1.0, t)
    with mp.workdps(40):
        b = mp.mpf(beta.p) / beta.q if isinstance(beta, RationalExp) \
            else mp.mpf(beta_value(beta))
        want = sign * b * abs(mp.mpf(t)) ** (b - 1)
    assert abs(got.value - want) <= got.error_estimate
    assert got.error_estimate <= 1e-14 * abs(got.value)


def test_quad_rlfd_centered_fractional_exponent_keeps_richardson(monkeypatch):
    # f' = (x-d)^-1/2 / 2 is singular at a = d: no integration by parts
    calls = []
    richardson = oracle._richardson
    monkeypatch.setattr(oracle, "_richardson",
                        lambda *args: calls.append(args) or richardson(*args))
    pf = rl.power_function(0.0, rl.beta_rational(1, 2))
    start = time.perf_counter()
    got = rl.quad_rlfd(pf, 0.0, 0.3, 1.0)
    assert time.perf_counter() - start < 1.0
    assert len(calls) == 1
    exact = math.gamma(1.5) / math.gamma(1.2)
    assert got.value == pytest.approx(exact, rel=1e-8)


def test_quad_rlfd_centered_polynomial_is_by_parts(monkeypatch):
    def refuse(*args):
        raise AssertionError("Richardson path taken")
    monkeypatch.setattr(oracle, "_richardson", refuse)
    d, alpha, t = 0.25, 0.4, 2.0
    pf = rl.power_function(d, rl.beta_int(3))
    got = rl.quad_rlfd(pf, d, alpha, t)
    with mp.workdps(40):
        sa = -mp.mpf(alpha)
        exact = 6 / mp.gamma(4 + sa) * (mp.mpf(t) - d) ** (3 + sa)
    assert abs(got.value - exact) <= got.error_estimate
