"""2F1 series, Euler transformation, closed operator forms, connection split."""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest

import rlpower as rl
from rlpower.errors import (
    ArgOutOfDisk,
    DegenerateExponentSum,
    HypNotConverged,
    ParamPole,
)

from conftest import rel_err

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
    # beta = -1 at 99.9% of the window above the shift: the alternating
    # series at x -> -1 runs into the term cap
    pf = rl.power_function(0.0, rl.beta_int(-1))
    win = rl.make_window(1.0, pf)
    with pytest.raises(HypNotConverged) as info:
        rl.rlfi_hyp_form(pf, win, 0.5, 1.999)
    assert isinstance(info.value, rl.RLPowerError)
    assert isinstance(info.value, ArithmeticError)


def test_euler_transform_parameter_map():
    # (1, -beta; 1-alpha-beta) maps to prefactor (1-z)^(-alpha)
    alpha, beta = 0.4, 0.9
    tp, pref = rl.euler_transform(1.0, -beta, 1.0 - alpha - beta, 0.3)
    assert tp[0] == pytest.approx(-alpha - beta)
    assert tp[1] == pytest.approx(1.0 - alpha)
    assert tp[2] == pytest.approx(1.0 - alpha - beta)
    assert tp[3] == 0.3
    assert pref == pytest.approx((1.0 - 0.3) ** -alpha)


def test_euler_transform_identity_at_zero():
    tp, pref = rl.euler_transform(0.7, 1.3, 2.1, 0.0)
    assert pref * rl.hyp2f1(*tp) == pytest.approx(1.0, rel=1e-14)


def test_euler_transform_self_consistency():
    tp, pref = rl.euler_transform(0.3, 0.7, 1.1, 0.4)
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
    poly = rl.rlfi_polynomial(pf, 1.0, 0.5, 1.7)
    assert rel_err(hyp, poly) <= 1e-13


def test_rlfd_hyp_form_matches_series():
    pf = rl.power_function(0.0, rl.beta_real(0.7))
    win = rl.make_window(1.0, pf)
    hyp = rl.rlfd_hyp_form(pf, win, 0.4, 1.2)
    ser = rl.rlfd_series(pf, win, 0.4, 1.2)
    assert rel_err(hyp, ser.value) <= 1e-8


def test_rlfd_hyp_form_alpha_one_hits_parameter_pole():
    # c = 1 - alpha = 0 with a non-terminating series: rejected, not silent
    pf = rl.power_function(0.0, rl.beta_real(0.7))
    win = rl.make_window(1.0, pf)
    with pytest.raises(ParamPole):
        rl.rlfd_hyp_form(pf, win, 1.0, 1.4)


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
    want = rl.rlfd_polynomial(pf, 1e-9, alpha, 1.5e-9)
    assert rel_err(got, want) <= 1e-9


def test_connection_a6_recombination():
    t1, t2 = rl.connection_a6(0.5, 0.3, 0.6)
    assert isinstance(t1, float) and isinstance(t2, float)
    direct = rl.hyp2f1(1.0, -0.3, 1.5, 0.4)
    assert abs(t1 + t2 - direct) <= 1e-9


def test_connection_a6_degenerate_sum():
    with pytest.raises(DegenerateExponentSum):
        rl.connection_a6(0.5, 1.5, 0.6)     # alpha + beta = 2 exactly


def test_connection_a6_near_one_tends_to_one():
    # as z -> 1- the left side tends to 2F1(...; 0) = 1
    t1, t2 = rl.connection_a6(0.45, 0.35, 0.99)
    assert t1 + t2 == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("z", [0.0, -0.5, 1.0, 1.5])
def test_connection_a6_needs_z_inside_unit_interval(z):
    with pytest.raises(ArgOutOfDisk):
        rl.connection_a6(0.5, 0.3, z)
