"""Tests of the benchmark's checker: a wrong value, a bare exception and a
backend mismatch each come out as one failed operation, and a run with all
of them still checks to the end.

    python3 -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import copy
import json

import mpmath
import pytest

import checks
import references
import workloads


@pytest.fixture(scope="module", autouse=True)
def _precision():
    with mpmath.workdps(references.DPS):
        yield


def _edge_unit_and_refs():
    unit = workloads.generate("edge-sweep", 1)[0]
    refs = [references.value("J" if c["fn"].startswith("rlfi") else "D",
                             c["beta"], c["d"], c["a"], c["alpha"], c["t"])
            for c in unit["calls"]]
    return unit, refs


def _exact_outcomes(unit, refs):
    """Outcomes as a correct program would report them."""
    out = []
    for call, ref in zip(unit["calls"], refs):
        if call["fn"] in workloads.SERIES_FUNCTIONS:
            out.append([float(ref), 100, 1e-10, "converged"])
        else:
            out.append([float(ref)])
    return out


def _cli_unit_and_entry(fmt="csv"):
    beta = workloads.beta_spec("1/2")
    unit = workloads._cli_job("small", "eval", "J", beta, 0.0, 1.0, 0.5,
                              (1.1, 1.3, 3), ["hyp", "series"], fmt)
    refs = [references.value("J", beta, 0.0, 1.0, 0.5, t) for t in unit["ts"]]
    records = []
    for t, ref in zip(unit["ts"], refs):
        records.append(["J", 0.5, "1/2", 0.0, 1.0, t, "hyp", float(ref), 0,
                        0.0, "converged"])
        records.append(["J", 0.5, "1/2", 0.0, 1.0, t, "series", float(ref), 40,
                        1e-12, "converged"])
    if fmt == "csv":
        lines = [",".join(checks.CSV_COLUMNS)] + [
            ",".join(str(x) if not isinstance(x, float) else "%.17g" % x
                     for x in r) for r in records]
    else:
        lines = [json.dumps(dict(zip(checks.CSV_COLUMNS, r))) for r in records]
    entry = {"rc": 0, "records": records, "output": "\n".join(lines) + "\n"}
    return unit, refs, entry


def test_correct_outputs_pass():
    unit, refs = _edge_unit_and_refs()
    entry = {"outcomes": _exact_outcomes(unit, refs)}
    assert checks.check_call_unit(unit, refs, entry) == {}
    for fmt in ("csv", "jsonl"):
        cli_unit, cli_refs, cli_entry = _cli_unit_and_entry(fmt)
        assert checks.check_cli_unit(cli_unit, cli_refs, cli_entry) == {}


def test_value_beyond_its_bound_fails():
    unit, refs = _edge_unit_and_refs()
    outcomes = _exact_outcomes(unit, refs)
    series_k = next(k for k, c in enumerate(unit["calls"])
                    if c["fn"] in workloads.SERIES_FUNCTIONS)
    hyp_k = next(k for k, c in enumerate(unit["calls"])
                 if c["fn"] not in workloads.SERIES_FUNCTIONS)
    outcomes[series_k][0] += 2 * outcomes[series_k][2]
    outcomes[hyp_k][0] += 1e-6 * max(1.0, abs(outcomes[hyp_k][0]))
    failures = checks.check_call_unit(unit, refs, {"outcomes": outcomes})
    assert set(failures) == {series_k, hyp_k}


def test_bare_exception_fails():
    unit, refs = _edge_unit_and_refs()
    outcomes = _exact_outcomes(unit, refs)
    outcomes[1] = {"error": "ArithmeticError", "message": "no convergence",
                   "rlpower_error": False}
    failures = checks.check_call_unit(unit, refs, {"outcomes": outcomes})
    assert list(failures) == [1]
    assert "untyped ArithmeticError" in failures[1]


def test_backend_mismatch_fails():
    unit, refs = _edge_unit_and_refs()
    pure = {"outcomes": _exact_outcomes(unit, refs)}
    compiled = copy.deepcopy(pure)
    compiled["outcomes"][0][1] += 1                 # term count differs
    compiled["outcomes"][2][0] *= 1 + 1e-8          # value differs by 1e-8
    failures = checks.compare_backends(unit, pure, compiled)
    assert set(failures) == {0, 2}


def test_cli_output_that_does_not_parse_back_fails():
    unit, refs, entry = _cli_unit_and_entry("csv")
    lines = entry["output"].splitlines()
    lines[2] = lines[2].replace("converged", "truncated")
    entry["output"] = "\n".join(lines) + "\n"
    assert set(checks.check_cli_unit(unit, refs, entry)) == {1}
    entry["rc"] = 2
    assert len(checks.check_cli_unit(unit, refs, entry)) == 6


def test_run_with_every_fault_checks_to_the_end():
    unit, refs = _edge_unit_and_refs()
    cli_unit, cli_refs, cli_entry = _cli_unit_and_entry("jsonl")
    pure = _exact_outcomes(unit, refs)
    compiled = copy.deepcopy(pure)
    compiled[0][0] *= 1.5                                # beyond its bound
    compiled[1] = {"error": "ZeroDivisionError", "message": "",
                   "rlpower_error": False}               # bare exception
    compiled[3][0] *= 1 + 1e-8                           # backend mismatch
    entries = {"pure-python": [{"outcomes": pure}, cli_entry],
               "compiled": [{"outcomes": compiled}, copy.deepcopy(cli_entry)]}
    failures = checks.check_workload([unit, cli_unit], [refs, cli_refs],
                                     entries)
    assert set(failures) == {(0, 0), (0, 1), (0, 3)}
