"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import json
import math
import random

import mpmath as mp
import pytest

import rlpower as rl
from rlpower import SeriesStatus
from rlpower._backend import kernels
from rlpower.cli import main
from rlpower.domain import IntegerExp, RationalExp, beta_value, branch_power
from rlpower.errors import EvalAtLowerLimit, WindowViolation

from conftest import rel_err
from reference import (
    connection_a6,
    gamma_ratio,
    gen_binomial,
    parse_csv_records,
    partial_sum,
    pochhammer_asc,
    pochhammer_desc,
    remainder_bound,
    rlfd_neg_integer,
    rlfd_polynomial,
    rlfi_neg_integer,
    rlfi_polynomial,
    taylor_route,
)

mp.mp.dps = 30


def _report(num: int, label: str) -> None:
    print(f"[acceptance] criterion {num:2d} ({label}): PASS")


# -- criterion 1: centered closed forms -------------------------------------

def test_criterion_1_centered_closed_forms():
    alphas = [0.1 * k for k in range(1, 10)]
    betas = [-0.5, 0.0, 0.5, 1.0, 2.5]
    offsets = [0.5, 1.0, 2.0]
    d = 0.3
    checked = 0
    for alpha in alphas:
        for b in betas:
            for x in offsets:
                t = d + x
                ref_j = _centered_reference(b, alpha, x, +1)
                ref_d = _centered_reference(b, alpha, x, -1)
                if b in (0.0, 1.0):
                    pf = rl.power_function(d, rl.beta_int(int(b)))
                    got_j = rlfi_polynomial(pf, d, alpha, t)
                    got_d = rlfd_polynomial(pf, d, alpha, t)
                else:
                    pf = rl.power_function(d, rl.beta_real(b))
                    got_j = rl.closed_centered(pf, alpha, t)
                    got_d = rl.closed_centered(pf, -alpha, t)
                assert rel_err(got_j, ref_j) <= 1e-9, (alpha, b, x, "J")
                assert rel_err(got_d, ref_d) <= 1e-9, (alpha, b, x, "D")
                checked += 2
    assert checked == 2 * 9 * 5 * 3
    _report(1, "centered closed forms")


def _centered_reference(b: float, alpha: float, x: float, sign: int) -> float:
    # independent high-precision gamma evaluation of the centered formulas
    expo = b + sign * alpha
    denom_arg = expo + 1.0
    if denom_arg <= 0.0 and abs(denom_arg - round(denom_arg)) < 1e-12:
        return 0.0  # gamma pole in the denominator kills the coefficient
    coeff = mp.gamma(b + 1.0) / mp.gamma(denom_arg)
    return float(coeff * mp.mpf(x) ** expo)


# -- criterion 2: series vs definition oracle (integral) --------------------

def test_criterion_2_series_vs_oracle(grid, oracle_values):
    assert len(grid) >= 500
    for case, ref in zip(grid, oracle_values):
        res = rl.rlfi_series_displaced(case.pf, case.win, case.alpha, case.t)
        assert res.status is SeriesStatus.CONVERGED
        assert res.terms_used <= 10000
        assert rel_err(res.value, ref) <= 1e-8, case
    _report(2, f"series vs oracle on {len(grid)} tuples")


# -- criterion 3: derivative series vs the oracle's derivative --------------

def test_criterion_3_derivative_vs_oracle(grid):
    for case in grid:
        res = rl.rlfd_series(case.pf, case.win, case.alpha, case.t)
        est = rl.quad_rlfd(case.pf, case.a, case.alpha, case.t)
        assert rel_err(res.value, est.value) <= 1e-6, case
    _report(3, f"derivative series vs oracle on {len(grid)} tuples")


# -- criterion 4: remainder soundness ----------------------------------------

def test_criterion_4_remainder_soundness(grid, oracle_values, deep_window_idx):
    assert len(deep_window_idx) == 100
    violations = 0
    for i in deep_window_idx:
        case = grid[i]
        ref = oracle_values[i]
        for p in range(1, 51):
            partial = partial_sum(case.pf, case.win, case.alpha, case.t, p)
            bound = remainder_bound(case.pf, case.win, case.alpha, case.t, p)
            if abs(ref - partial) > bound:
                violations += 1
    assert violations == 0
    _report(4, "remainder bounds sound on 100 tuples x p=1..50")


# -- criterion 5: integer-order reductions ----------------------------------

def _antideriv_beta(beta):
    if isinstance(beta, IntegerExp):
        return rl.beta_int(beta.m + 1)
    if isinstance(beta, RationalExp):
        return rl.beta_rational(beta.p + beta.q, beta.q)
    return rl.beta_real(beta.x + 1.0)


def _classical_integral(pf, a, t):
    b = beta_value(pf.beta)
    if abs(b + 1.0) < 1e-12:
        return math.log(abs(t - pf.d)) - math.log(abs(a - pf.d))
    up = _antideriv_beta(pf.beta)
    return (branch_power(t - pf.d, up)
            - branch_power(a - pf.d, up)) / (b + 1.0)


def _classical_derivative(pf, t):
    b = beta_value(pf.beta)
    x = t - pf.d
    if b == 0.0:
        return 0.0
    down = (rl.beta_int(pf.beta.m - 1) if isinstance(pf.beta, IntegerExp)
            else rl.beta_rational(pf.beta.p - pf.beta.q, pf.beta.q)
            if isinstance(pf.beta, RationalExp) else rl.beta_real(b - 1.0))
    return b * branch_power(x, down)


def test_criterion_5_integer_order_reductions(grid):
    # one tuple per (pf, a, t) geometry; alpha in {0, 1} on every route
    seen = set()
    configs = []
    for case in grid:
        key = (id(case.pf), case.a, case.t)
        if key not in seen:
            seen.add(key)
            configs.append(case)
    assert len(configs) >= 100
    for case in configs:
        pf, win, t = case.pf, case.win, case.t
        ident = pf.value(t)
        integ = _classical_integral(pf, case.a, t)
        deriv = _classical_derivative(pf, t)

        assert rel_err(rl.rlfi_series_displaced(pf, win, 0.0, t).value, ident) <= 1e-9
        assert rel_err(rl.rlfi_series_displaced(pf, win, 1.0, t).value, integ) <= 1e-9
        assert rel_err(rl.rlfd_series(pf, win, 0.0, t).value, ident) <= 1e-9
        assert rel_err(rl.rlfd_series(pf, win, 1.0, t).value, deriv) <= 1e-9
        assert rel_err(taylor_route(pf, case.a, 0.0, t).value, ident) <= 1e-9
        assert rel_err(taylor_route(pf, case.a, 1.0, t).value, integ) <= 1e-9
        assert rel_err(rl.rlfi_hyp_form(pf, win, 0.0, t), ident) <= 1e-9
        assert rel_err(rl.rlfi_hyp_form(pf, win, 1.0, t), integ) <= 1e-9
        assert rel_err(rl.rlfd_hyp_form(pf, win, 0.0, t), ident) <= 1e-9
        if isinstance(pf.beta, IntegerExp) and pf.beta.m < 0:
            m = -pf.beta.m
            assert rel_err(rlfi_neg_integer(pf, win, 1.0, t).value, integ) <= 1e-9
            assert rel_err(rlfd_neg_integer(pf, win, 1.0, t).value, deriv) <= 1e-9

    # E1 = E2: order-1 series equals the binomial-expansion integral
    for beta, a, t in ((rl.beta_rational(1, 2), 1.0, 1.4),
                       (rl.beta_real(-1.5), 1.0, 1.7)):
        pf = rl.power_function(0.0, beta)
        win = rl.make_window(a, pf)
        e1 = rl.rlfi_series_displaced(pf, win, 1.0, t).value
        e2 = _binomial_expansion_integral(beta_value(beta), a, t)
        assert rel_err(e1, e2) <= 1e-9
        assert rel_err(e1, _classical_integral(pf, a, t)) <= 1e-9

    # the logarithm reduction at order 1
    pf = rl.power_function(0.0, rl.beta_int(-1))
    win = rl.make_window(2.0, pf)
    val = rl.rlfi_series_displaced(pf, win, 1.0, 2.5).value
    assert rel_err(val, math.log(1.25)) <= 1e-9
    assert rel_err(val, 0.22314355131420976) <= 1e-9
    _report(5, f"alpha in {{0,1}} reductions on {len(configs)} geometries")


def _binomial_expansion_integral(b: float, a: float, t: float) -> float:
    # sum_k C(b,k) (a-d)^(b-k) (t-a)^(k+1)/(k+1) with d = 0
    total = 0.0
    for k in range(0, 400):
        term = gen_binomial(b, k) * a ** (b - k) * (t - a) ** (k + 1) / (k + 1)
        total += term
        if abs(term) < 1e-16 * max(1.0, abs(total)) and k > 4:
            break
    return total


# -- criterion 6: negative-integer alternates --------------------------------

def test_criterion_6_negative_integer_alternates(grid):
    picked = [c for c in grid
              if isinstance(c.pf.beta, IntegerExp) and c.pf.beta.m in (-1, -2, -3)]
    assert len(picked) >= 100
    for case in picked:
        gen_j = rl.rlfi_series_displaced(case.pf, case.win, case.alpha, case.t)
        alt_j = rlfi_neg_integer(case.pf, case.win, case.alpha, case.t)
        assert rel_err(alt_j.value, gen_j.value) <= 1e-10, case
        m = -case.pf.beta.m
        gen_d = rl.rlfd_series(case.pf, case.win, case.alpha, case.t)
        alt_d = rlfd_neg_integer(case.pf, case.win, case.alpha, case.t)
        assert rel_err(alt_d.value, gen_d.value) <= 1e-10, case
    _report(6, f"negative-integer alternates on {len(picked)} tuples")


# -- criterion 7: hypergeometric route ---------------------------------------

def test_criterion_7_hypergeometric_route(grid):
    for case in grid:
        ser = rl.rlfi_series_displaced(case.pf, case.win, case.alpha, case.t)
        hyp = rl.rlfi_hyp_form(case.pf, case.win, case.alpha, case.t)
        assert rel_err(hyp, ser.value) <= 1e-8, case
        serd = rl.rlfd_series(case.pf, case.win, case.alpha, case.t)
        hypd = rl.rlfd_hyp_form(case.pf, case.win, case.alpha, case.t)
        assert rel_err(hypd, serd.value) <= 1e-8, case

    rng = random.Random(202)
    for _ in range(1000):
        alpha = rng.uniform(0.01, 0.99)
        c = rng.uniform(0.1, 5.0)
        z = rng.uniform(-0.95, 0.95)
        got = rl.hyp2f1(alpha, c, c, z)
        assert rel_err(got, (1.0 - z) ** -alpha) <= 1e-10

    # strongly negative arguments with large transformed parameters hit
    # double-precision cancellation, so the draw stays in the region where
    # both evaluations are well conditioned
    for _ in range(1000):
        a, b, c, x = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                      rng.uniform(0.3, 4.0), rng.uniform(-0.7, 0.9))
        euler = (1.0 - x) ** (c - a - b) * rl.hyp2f1(c - a, c - b, c, x)
        assert rel_err(euler, rl.hyp2f1(a, b, c, x)) <= 1e-10

    count = 0
    while count < 100:
        alpha = rng.uniform(0.05, 0.95)
        beta = rng.uniform(-2.5, 2.5)
        s = alpha + beta
        if abs(s - round(s)) < 0.05:
            continue
        z = rng.uniform(0.05, 0.9)
        t1, t2 = connection_a6(alpha, beta, z)
        direct = rl.hyp2f1(1.0, -beta, alpha + 1.0, 1.0 - z)
        assert abs(t1 + t2 - direct) <= 1e-9 * max(1.0, abs(direct))
        count += 1
    _report(7, "hypergeometric route, A8/Euler identities, connection split")


# -- criterion 8: window enforcement -----------------------------------------

def test_criterion_8_window_enforcement(grid):
    rng = random.Random(99)
    rejected = 0
    cases = [c for c in grid if c.frac == 0.35][:50]
    for case in cases:
        width = case.win.t_sup - case.win.a
        for t_bad in (case.win.t_sup + rng.uniform(0.0, 2.0),
                      case.a - rng.uniform(1e-9, 1.0) * width):
            with pytest.raises(WindowViolation):
                rl.rlfi_series_displaced(case.pf, case.win, case.alpha, t_bad)
            rejected += 1
    assert rejected >= 100

    pf = rl.power_function(0.0, rl.beta_real(-1.5))
    win = rl.make_window(1.0, pf)
    with pytest.raises(WindowViolation):
        rl.rlfi_series_displaced(pf, win, 0.5, win.t_sup)  # exact open boundary
    assert rl.rlfi_series_displaced(pf, win, 0.5, 1.0).value == 0.0
    with pytest.raises(EvalAtLowerLimit):
        rl.rlfd_series(pf, win, 0.5, 1.0)
    _report(8, f"{rejected} out-of-window rejections, boundary and t=a rules")


# -- criterion 9: special-function layer -------------------------------------

def test_criterion_9_special_layer():
    # negative-integer gamma ratios, exhaustively for n, m <= 20
    for n in range(0, 21):
        for m in range(0, 21):
            got = gamma_ratio(float(-n), float(-m))
            want = (-1.0) ** (m - n) * math.factorial(m) / math.factorial(n)
            assert got == pytest.approx(want, rel=1e-13), (n, m)
    assert gamma_ratio(-1.0, -3.0) == 6.0
    assert gamma_ratio(0.0, -3.0) == -6.0
    assert gamma_ratio(0.0, 0.0) == 1.0

    # Pochhammer reflections, exact, integers |z| <= 20 and k <= 20
    for z in range(-20, 21):
        for k in range(0, 21):
            zf = float(z)
            assert pochhammer_asc(-zf, k) == (-1.0) ** k * pochhammer_desc(zf, k)
            assert pochhammer_desc(-zf, k) == (-1.0) ** k * pochhammer_asc(zf, k)

    rng = random.Random(31)
    for _ in range(1000):
        z = rng.uniform(-25.0, 25.0)
        k = rng.randint(0, 20)
        assert pochhammer_asc(-z, k) == (-1.0) ** k * pochhammer_desc(z, k)
        assert pochhammer_desc(-z, k) == (-1.0) ** k * pochhammer_asc(z, k)

    # recurrence z Gamma(z) = Gamma(z+1) on 1e4 random points in [-50, 50]
    checked = 0
    while checked < 10000:
        z = rng.uniform(-50.0, 50.0)
        if _near_pole(z) or _near_pole(z + 1.0):
            continue
        checked += 1
        g = kernels.gamma_value(z)
        g1 = kernels.gamma_value(z + 1.0)
        assert abs(z * g - g1) <= 1e-12 * abs(g1), z

    # pochhammer/gamma bridge on random non-integer arguments
    for _ in range(500):
        z = rng.uniform(-20.0, 20.0)
        if abs(z - round(z)) < 1e-6:
            continue
        k = rng.randint(0, 15)
        assert rel_err(pochhammer_asc(z, k), gamma_ratio(z + k, z)) <= 1e-11
        assert rel_err(pochhammer_desc(z, k),
                       gamma_ratio(z + 1.0, z - k + 1.0)) <= 1e-11
    _report(9, "gamma recurrence, pole ratios, Pochhammer identities")


def _near_pole(z, dist=1e-3):
    n = math.floor(z + 0.5)
    return n <= 0 and abs(z - n) <= dist


# -- criterion 10: CLI contract ----------------------------------------------

def test_criterion_10_cli_contract(capsys, tmp_path):
    # eval, CSV golden round-trip
    out_csv = tmp_path / "eval.csv"
    code = main(["eval", "--op", "J", "--alpha", "0.5", "--beta-rational",
                 "1/2", "--d", "0", "--a", "1", "--t", "1.1:1.4:4",
                 "--route", "series,hyp,oracle", "--format", "csv",
                 "--out", str(out_csv)])
    assert code == 0
    text = out_csv.read_text()
    records = parse_csv_records(text)
    assert len(records) == 12
    for rec, line in zip(records, text.splitlines()[1:]):
        parts = line.split(",")
        assert (float(parts[1]), float(parts[5]), float(parts[7])) == \
            (rec.alpha, rec.t, rec.value)

    # jsonl mirrors the field names and round-trips
    code = main(["eval", "--op", "D", "--alpha", "0.5", "--beta-int", "0",
                 "--a", "0", "--t", "1", "--route", "series",
                 "--format", "jsonl"])
    out = capsys.readouterr().out
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["value"] == pytest.approx(0.5641895835477563, rel=1e-9)

    # exit code table: 0 converged / 1 validation / 2 truncated / 3 deviation
    capsys.readouterr()
    assert main(["eval", "--op", "J", "--alpha", "0.5", "--beta-int", "2",
                 "--d", "0", "--a", "1", "--t", "1.5",
                 "--route", "series"]) == 0
    assert main(["eval", "--op", "J", "--alpha", "0.5", "--beta-int", "-2",
                 "--d", "0", "--a", "1", "--t", "3.5",
                 "--route", "series"]) == 1
    assert main(["eval", "--op", "J", "--alpha", "0.5", "--beta-real", "-1.5",
                 "--d", "0", "--a", "1", "--t", "1.4", "--route", "series",
                 "--max-terms", "4"]) == 2
    assert main(["compare", "--op", "J", "--alpha", "0.5", "--beta-real",
                 "-1.5", "--d", "0", "--a", "1", "--t", "1.4",
                 "--route", "series,oracle", "--tol-compare", "1e-18"]) == 3
    assert main(["compare", "--op", "J", "--alpha", "0.5", "--beta-int", "2",
                 "--d", "0", "--a", "1", "--t", "1.4",
                 "--route", "series,hyp,oracle"]) == 0

    # domain subcommand
    assert main(["domain", "--beta-rational", "-1/2", "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert "(1, +inf)" in out
    _report(10, "CLI round-trips and exit codes")
