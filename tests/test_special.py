"""Gamma values and ratios, pole rules, Pochhammer identities."""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlpower._backend import kernels

from reference import (
    NumeratorPole,
    gamma_ratio,
    gamma_value,
    gen_binomial,
    pochhammer_asc,
    pochhammer_desc,
)

mp.mp.dps = 30

SQRT_PI = 1.7724538509055160273


def test_gamma_one():
    assert gamma_value(1.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_half_matches_sqrt_pi():
    assert gamma_value(0.5) == pytest.approx(SQRT_PI, rel=1e-13)


@pytest.mark.parametrize("n", [0, -1, -2, -3, -10])
def test_gamma_pole_markers(n):
    # a pole is recognised: 1/Gamma vanishes there, Gamma over a finite
    # value is infinite
    assert kernels.nonpos_int_index(float(n)) == -n
    assert gamma_ratio(1.0, float(n)) == 0.0
    with pytest.raises(NumeratorPole):
        gamma_ratio(float(n), 1.0)


def test_gamma_pole_sign_alternates():
    # Gamma(-n)/Gamma(-m) carries the sign (-1)^(m-n) of the limits from
    # the right
    assert gamma_ratio(0.0, -1.0) < 0
    assert gamma_ratio(0.0, -2.0) > 0
    assert gamma_ratio(-1.0, -2.0) < 0


def test_gamma_not_pole_for_positive():
    assert kernels.nonpos_int_index(2.7) == -1
    assert gamma_ratio(2.7, 1.0) == pytest.approx(gamma_value(2.7),
                                                  rel=1e-14)


def test_gamma_against_mpmath_spot_values():
    for z in (0.1, 0.5, 1.5, 3.25, 7.7, 24.2, -0.3, -2.5, -7.7, -19.25):
        assert gamma_value(z) == pytest.approx(float(mp.gamma(z)),
                                                       rel=5e-13)


def test_gamma_recurrence_near_poles():
    rng = random.Random(7)
    for _ in range(2000):
        z = rng.uniform(-50.0, 50.0)
        if _near_pole(z) or _near_pole(z + 1.0):
            continue
        g = gamma_value(z)
        g1 = gamma_value(z + 1.0)
        assert abs(z * g - g1) <= 1e-13 * abs(g1)


def _near_pole(z, dist=1e-3):
    n = math.floor(z + 0.5)
    return n <= 0 and abs(z - n) <= dist


def test_gamma_ratio_negative_integer_rules():
    assert gamma_ratio(-1.0, -3.0) == pytest.approx(6.0, abs=0)
    assert gamma_ratio(0.0, -3.0) == pytest.approx(-6.0, abs=0)
    assert gamma_ratio(0.0, 0.0) == 1.0
    assert gamma_ratio(2.5, 2.5) == 1.0


def test_gamma_ratio_denominator_pole_is_zero():
    assert gamma_ratio(2.0, -4.0) == 0.0


def test_gamma_ratio_numerator_pole_raises():
    with pytest.raises(NumeratorPole):
        gamma_ratio(-2.0, 1.5)


def test_gamma_ratio_regular_arguments():
    assert gamma_ratio(5.0, 3.0) == pytest.approx(12.0, rel=1e-13)
    assert gamma_ratio(-0.5, 0.5) == pytest.approx(
        float(mp.gamma("-0.5") / mp.gamma("0.5")), rel=1e-12)


def test_pochhammer_asc_basics():
    assert pochhammer_asc(3.0, 2) == 12.0
    assert pochhammer_asc(7.3, 0) == 1.0
    assert pochhammer_asc(-3.0, 2) == 6.0   # (-3)(-2)
    assert pochhammer_asc(-3.0, 5) == 0.0   # hits the zero factor


def test_pochhammer_desc_basics():
    assert pochhammer_desc(3.0, 2) == 6.0
    assert pochhammer_desc(0.5, 1) == 0.5


def test_pochhammer_reflection_exact():
    # (-z)_k == (-1)^k (z)_{-k} must hold bit for bit
    for z in range(-20, 21):
        for k in range(0, 21):
            lhs = pochhammer_asc(float(-z), k)
            rhs = (-1.0) ** k * pochhammer_desc(float(z), k)
            assert lhs == rhs


@given(st.floats(-30, 30, allow_nan=False), st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_pochhammer_reflection_exact_floats(z, k):
    assert pochhammer_asc(-z, k) == (-1.0) ** k * pochhammer_desc(z, k)
    assert pochhammer_desc(-z, k) == (-1.0) ** k * pochhammer_asc(z, k)


def test_pochhammer_gamma_bridge():
    rng = random.Random(11)
    for _ in range(300):
        z = rng.uniform(-20.0, 20.0)
        if abs(z - round(z)) < 1e-6:
            continue
        k = rng.randint(0, 12)
        asc = pochhammer_asc(z, k)
        assert asc == pytest.approx(gamma_ratio(z + k, z), rel=1e-11, abs=1e-300)
        desc = pochhammer_desc(z, k)
        assert desc == pytest.approx(gamma_ratio(z + 1.0, z - k + 1.0),
                                     rel=1e-11, abs=1e-300)


def test_pochhammer_large_k_log_route():
    z = 2.5
    k = 120
    ref = float(mp.rf(mp.mpf("2.5"), k))
    assert pochhammer_asc(z, k) == pytest.approx(ref, rel=1e-11)


def test_gen_binomial_values():
    assert gen_binomial(0.5, 2) == pytest.approx(-0.125, rel=1e-14)
    assert gen_binomial(5.0, 2) == pytest.approx(10.0, rel=1e-14)
    assert gen_binomial(3.0, 5) == 0.0


def test_gen_binomial_negative_integer_large_k():
    # C(-2, k) = (-1)^k (k+1); exercise the log-space branch
    k = 80
    assert gen_binomial(-2.0, k) == pytest.approx((k + 1.0), rel=1e-11)


def test_gen_binomial_matches_mpmath():
    rng = random.Random(5)
    for _ in range(100):
        b = rng.uniform(-4.0, 6.0)
        if abs(b - round(b)) < 1e-6:
            continue
        k = rng.randint(0, 20)
        ref = float(mp.binomial(mp.mpf(b), k))
        assert gen_binomial(b, k) == pytest.approx(ref, rel=1e-10)
