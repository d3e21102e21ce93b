"""Quadrature oracle: substitution correctness, derivative estimates, log case."""

from __future__ import annotations

import math

import pytest

import rlpower as rl
from rlpower.domain import IntegerExp, RationalExp, beta_value, branch_power
from rlpower.errors import EvalAtLowerLimit, PoleInsideInterval

from reference import log_reference

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
    with pytest.raises(EvalAtLowerLimit):
        rl.quad_rlfd(pf, 1.0, 1.0, 1.0)


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
