"""Inputs of the three workloads, drawn from the seed.

A workload is a list of units.  A unit is the smallest piece that is timed on
its own: one CLI job for ``grid-mid`` and ``oracle-compare``, one exponent and
side of the shift for ``edge-sweep``.  Every unit is plain data (numbers,
strings, lists) so that the parent process, which computes the references,
and the measuring children, which import rlpower, build identical inputs from
the same seed without passing anything but the seed.

The seed draws the placement of each window (shift d and width eps) and
moves each order alpha and the ends of each t grid a little around fixed
values.  It never draws the exponents, the sides, the window fractions or the
number of points, so every seed asks for nearly the same amount of work and
the same operations can fail.
"""

from __future__ import annotations

import random

WORKLOADS = ("grid-mid", "edge-sweep", "oracle-compare")

GRID_POINTS = 2000
ORACLE_POINTS = 24
EDGE_FRACTIONS = (0.9, 0.99, 0.999)
EDGE_ALPHAS = (0.25, 0.5, 0.75)
EDGE_ALPHA_JITTER = 0.05
ALPHA_JITTER = 0.02
EPS_RANGE = (0.9, 1.1)

SERIES_FUNCTIONS = ("rlfi_series_displaced", "rlfd_series")
HYP_FUNCTIONS = ("rlfi_hyp_form", "rlfd_hyp_form")


def beta_spec(token: str) -> dict:
    """Exponent from its CLI token: ``-3`` integer, ``-5/3`` rational,
    ``0.45`` declared real."""
    if "/" in token:
        p, q = token.split("/")
        return {"cls": "rational", "p": int(p), "q": int(q), "token": token}
    if "." in token:
        return {"cls": "real", "x": float(token), "token": token}
    return {"cls": "int", "m": int(token), "token": token}


def beta_flag(beta: dict) -> list[str]:
    flag = {"int": "--beta-int", "rational": "--beta-rational",
            "real": "--beta-real"}[beta["cls"]]
    return [flag, beta["token"]]


def grid_ts(start: float, stop: float, num: int) -> list[float]:
    """The points of the CLI's documented ``start:stop:num`` grid."""
    if num == 1:
        return [start]
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num)]


# grid-mid: (operator, exponent, side, format, alpha).  Every class and both sides
# appear for both operators.  Below the shift the domain admits integer
# exponents and rationals p/q with p even; integer exponents are negative
# because the displaced polynomial series is left out (see the README).
GRID_JOBS = (
    ("J", "-3", "above", "jsonl", 0.35),
    ("D", "-3", "below", "csv", 0.5),
    ("J", "-1", "below", "jsonl", 0.65),
    ("D", "-1", "above", "csv", 0.35),
    ("J", "1/2", "above", "jsonl", 0.5),
    ("D", "4/3", "below", "csv", 0.65),
    ("J", "2/3", "below", "jsonl", 0.35),
    ("D", "-3/2", "above", "csv", 0.5),
    ("J", "0.45", "above", "jsonl", 0.65),
    ("D", "-9.7", "above", "csv", 0.35),
    ("D", "-0.3", "above", "jsonl", 0.5),
)
GRID_CENTERED = ("J", "3", "csv", 0.65)

# oracle-compare: (operator, exponent, side, alpha)
ORACLE_JOBS = (
    ("J", "-3", "above", 0.3),
    ("D", "-3", "above", 0.5),
    ("D", "-1", "below", 0.7),
    ("J", "1/2", "above", 0.5),
    ("D", "2/3", "below", 0.3),
    ("J", "4/3", "below", 0.7),
    ("J", "-0.3", "above", 0.7),
    ("D", "0.45", "above", 0.3),
)

# edge-sweep: (exponent, side, fractions with series calls, fractions with
# hyp calls).  A fraction is left out of a route where that route stops with
# SeriesNotConverged or meets the hyp fault for some of the drawn inputs.
EDGE_GROUPS = (
    ("-3", "above", (0.9,), (0.9, 0.99)),
    ("-3", "below", (0.9, 0.99), (0.9, 0.99, 0.999)),
    ("-1", "above", (0.9, 0.99), (0.9, 0.99)),
    ("-1", "below", (0.9, 0.99), (0.9, 0.99, 0.999)),
    ("-5/3", "above", (0.9,), (0.9, 0.99)),
    ("2/3", "below", (0.9, 0.99, 0.999), (0.9, 0.99, 0.999)),
    ("-3/2", "above", (0.9, 0.99), (0.9, 0.99)),
    ("1/2", "above", (0.9, 0.99), (0.9, 0.99)),
    ("7/3", "above", (0.9, 0.99, 0.999), (0.9, 0.99, 0.999)),
    ("4/3", "below", (0.9, 0.99, 0.999), (0.9, 0.99, 0.999)),
    ("-0.3", "above", (0.9, 0.99), (0.9, 0.99)),
    ("0.45", "above", (0.9, 0.99), (0.9, 0.99)),
    ("7.3", "above", (0.9, 0.99, 0.999), (0.9, 0.99, 0.999)),
)

# Fixed inputs, not drawn from the seed, that meet the hyp route's fault:
# a wrong value reported as converged (beta = -9.7 at fraction 0.99) and a
# bare ArithmeticError after 20000 terms (fraction 0.999 above the shift).
HYP_FAULT_INPUTS = (
    ("-9.7", 0.99),
    ("-1", 0.999),
    ("-3", 0.999),
    ("-3/2", 0.999),
    ("-5/3", 0.999),
)


def _window(rng: random.Random, side: str) -> tuple[float, float, float]:
    """(d, a, window length) for a lower limit on the given side."""
    d = rng.uniform(-2.0, 2.0)
    eps = rng.uniform(*EPS_RANGE)
    if side == "above":
        return d, d + eps, eps
    return d, d - eps, eps / 2.0


def _jitter(rng: random.Random, alpha: float) -> float:
    return alpha + rng.uniform(-ALPHA_JITTER, ALPHA_JITTER)


def _cli_job(name, command, op, beta, d, a, alpha, ts, routes, fmt,
             centered=False) -> dict:
    argv = [command, "--op", op, "--alpha", repr(alpha), *beta_flag(beta),
            "--d", repr(d)]
    argv += ["--centered"] if centered else ["--a", repr(a)]
    argv += ["--t", f"{ts[0]!r}:{ts[1]!r}:{ts[2]}",
             "--route", ",".join(routes), "--format", fmt]
    return {"kind": "cli", "name": name, "command": command, "argv": argv,
            "op": op, "beta": beta, "d": d, "a": a, "alpha": alpha,
            "ts": grid_ts(*ts), "routes": sorted(routes), "format": fmt}


def _grid_mid(rng: random.Random) -> list[dict]:
    units = []
    for i, (op, token, side, fmt, alpha) in enumerate(GRID_JOBS):
        d, a, length = _window(rng, side)
        alpha = _jitter(rng, alpha)
        lo, hi = rng.uniform(0.01, 0.015), rng.uniform(0.49, 0.5)
        ts = (a + lo * length, a + hi * length, GRID_POINTS)
        units.append(_cli_job(f"grid{i:02d}", "eval", op, beta_spec(token),
                              d, a, alpha, ts, ["hyp", "series"], fmt))
    op, token, fmt, alpha = GRID_CENTERED
    d = rng.uniform(-2.0, 2.0)
    alpha = _jitter(rng, alpha)
    ts = (d + rng.uniform(0.01, 0.015), d + rng.uniform(1.9, 2.0), GRID_POINTS)
    units.append(_cli_job("grid-centered", "eval", op, beta_spec(token), d, d,
                          alpha, ts, ["closed"], fmt, centered=True))
    return units


def _oracle_compare(rng: random.Random) -> list[dict]:
    units = []
    for i, (op, token, side, alpha) in enumerate(ORACLE_JOBS):
        d, a, length = _window(rng, side)
        alpha = _jitter(rng, alpha)
        lo, hi = rng.uniform(0.05, 0.06), rng.uniform(0.89, 0.9)
        ts = (a + lo * length, a + hi * length, ORACLE_POINTS)
        units.append(_cli_job(f"oracle{i:02d}", "compare", op, beta_spec(token),
                              d, a, alpha, ts, ["hyp", "oracle", "series"],
                              "human"))
    return units


def _call(fn, beta, d, a, alpha, t) -> dict:
    return {"fn": fn, "beta": beta, "d": d, "a": a, "alpha": alpha, "t": t}


def _edge_sweep(rng: random.Random) -> list[dict]:
    units = []
    for token, side, series_fracs, hyp_fracs in EDGE_GROUPS:
        beta = beta_spec(token)
        calls = []
        for alpha_slot in EDGE_ALPHAS:
            for frac in EDGE_FRACTIONS:
                # a fresh window and order per (beta, side, alpha, fraction):
                # no two calls of one function share their parameters
                d, a, length = _window(rng, side)
                alpha = alpha_slot + rng.uniform(-EDGE_ALPHA_JITTER,
                                                 EDGE_ALPHA_JITTER)
                t = a + frac * length
                fns = (SERIES_FUNCTIONS if frac in series_fracs else ()) + \
                      (HYP_FUNCTIONS if frac in hyp_fracs else ())
                calls += [_call(fn, beta, d, a, alpha, t) for fn in fns]
        units.append({"kind": "calls", "name": f"edge{token}{side}",
                      "calls": calls})
    fault_calls = []
    for token, frac in HYP_FAULT_INPUTS:
        for fn in HYP_FUNCTIONS:
            fault_calls.append(_call(fn, beta_spec(token), 0.0, 1.0, 0.5,
                                     1.0 + frac * 1.0))
    units.append({"kind": "calls", "name": "hyp-fault", "calls": fault_calls})
    return units


def generate(workload: str, seed: int) -> list[dict]:
    """The units of one workload; the same seed gives the same units."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid-mid":
        return _grid_mid(rng)
    if workload == "edge-sweep":
        return _edge_sweep(rng)
    if workload == "oracle-compare":
        return _oracle_compare(rng)
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")


def operations(unit: dict) -> int:
    """Evaluations in one unit: one per (t, route) record or library call."""
    if unit["kind"] == "cli":
        return len(unit["ts"]) * len(unit["routes"])
    return len(unit["calls"])
