"""The benchmark's contract with the CLI: perfbench's check pass captures
the records of ``cli.run_job`` by wrapping it, and checks them against the
text the job emits.  A change of the job result that breaks this shows here,
not only as a failed benchmark run."""

from __future__ import annotations

import importlib
import json
import math
from pathlib import Path

import pytest

from rlpower import (HypNotConverged, cli, hypergeom, make_window,
                     power_function, rlfd_hyp_form, rlfi_hyp_form)

from reference import parse_csv_records

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (argv, points, routes, truncated hyp records): a csv eval, a jsonl eval
# whose hyp records are truncated with value NaN and remainder inf, a human
# compare, and a csv eval whose far hyp points reach the lowered 2F1 term
# cap (_MAX_TERMS)
_JOBS = (
    (["eval", "--op", "J", "--alpha", "0.35", "--beta-rational", "-3/2",
      "--d", "0", "--a", "1", "--t", "1.05:1.6:7", "--route", "series,hyp",
      "--format", "csv"], 7, 2, 0),
    (["eval", "--op", "D", "--alpha", "0.9999999999999", "--beta-int", "-2",
      "--d", "0", "--a", "1", "--t", "1.2:1.5:3", "--route", "series,hyp",
      "--format", "jsonl"], 3, 2, 3),
    (["compare", "--op", "D", "--alpha", "0.5", "--beta-rational", "4/3",
      "--d", "2", "--a", "1", "--t", "1.05:1.45:4",
      "--route", "series,hyp,oracle"], 4, 3, 0),
    (["eval", "--op", "J", "--alpha", "0.5", "--beta-real", "2.7", "--d", "0",
      "--a", "1", "--t", "1.01:1.95:5", "--route", "hyp,series",
      "--format", "csv"], 5, 2, 2),
)
# the 2F1 terms of the last job's points are 10, 26, 37, 47 and 58; no other
# job's hyp point needs more than 35
_MAX_TERMS = 40


@pytest.fixture
def child(monkeypatch):
    if not (_PERFBENCH / "child.py").is_file():
        pytest.skip("no perfbench/child.py")
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    return importlib.import_module("child")


def _same(x, y):
    return x == y or (isinstance(x, float) and isinstance(y, float)
                      and math.isnan(x) and math.isnan(y))


def _hyp_truncated(job, records) -> int:
    """The hyp records that are truncated, each at a point where the scalar
    entry raises HypNotConverged; every other hyp record holds its value."""
    pf = power_function(job.d, job.beta)
    win = make_window(job.a, pf)
    entry = rlfi_hyp_form if job.op == "J" else rlfd_hyp_form
    truncated = 0
    for record in records:
        if record[6] != "hyp":
            continue
        try:
            value = entry(pf, win, job.alpha, record[5])
        except HypNotConverged:
            truncated += 1
            assert math.isnan(record[7])
            assert record[8:] == [0, math.inf, "truncated"]
            continue
        assert record[7:] == [value, 0, 0.0, "converged"]
    return truncated


def test_check_pass_captures_every_record_of_run_job(child, tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(hypergeom, "MAX_TERMS", _MAX_TERMS)
    units = [{"kind": "cli", "name": f"job{i}", "argv": argv}
             for i, (argv, *_) in enumerate(_JOBS)]
    run_job = cli.run_job
    entries = child._check_pass(child.Runner(units, str(tmp_path)))
    assert cli.run_job is run_job
    for (argv, points, routes, truncated), entry in zip(_JOBS, entries):
        records = entry["records"]
        assert len(records) == points * routes
        job = cli._job_from({**cli._DEFAULTS, **vars(
            cli.build_parser().parse_args(cli._join_negative_values(argv)))})
        assert len(cli.run_job(job)) == len(records)
        assert _hyp_truncated(job, records) == truncated
        if argv[0] == "compare":
            assert entry["rc"] == 0
            assert len(entry["output"].splitlines()) == 1 + points
            continue
        if job.out_format == "csv":
            assert entry["rc"] == (2 if truncated else 0)
            emitted = [list(vars(r).values())
                       for r in parse_csv_records(entry["output"])]
        else:
            assert entry["rc"] == 2
            emitted = [list(json.loads(line).values())
                       for line in entry["output"].splitlines()]
            assert any(math.isnan(r[7]) and r[9] == math.inf for r in records)
        assert len(emitted) == len(records)
        for row, record in zip(emitted, records):
            assert all(map(_same, row, record)), (row, record)
