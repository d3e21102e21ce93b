"""CLI contract: subcommands, formats, round-trips, exit codes."""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import time
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rlpower.cli
import rlpower.hypergeom
from rlpower.cli import EvalRecord, JobResult, _emit_records, main, run_job

from reference import displaced_exact, parse_csv_records


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_series_and_oracle_agree(capsys):
    code, out, _ = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                       "--beta-rational", "1/2", "--d", "0", "--a", "1",
                       "--t", "1.2", "--route", "series,oracle",
                       "--format", "csv")
    assert code == 0
    records = parse_csv_records(out)
    assert len(records) == 2
    vals = {r.route: r.value for r in records}
    assert abs(vals["series"] - vals["oracle"]) <= 1e-8 * max(1.0, abs(vals["oracle"]))


def test_eval_alpha_zero_identity(capsys):
    code, out, _ = run(capsys, "eval", "--op", "J", "--alpha", "0",
                       "--beta-rational", "1/2", "--d", "0", "--a", "1",
                       "--t", "1.3", "--route", "series", "--format", "csv")
    assert code == 0
    rec = parse_csv_records(out)[0]
    assert rec.value == pytest.approx(math.sqrt(1.3), rel=1e-9)


def test_eval_derivative_of_constant(capsys):
    code, out, _ = run(capsys, "eval", "--op", "D", "--alpha", "0.5",
                       "--beta-int", "0", "--a", "0", "--t", "1",
                       "--route", "series", "--format", "csv")
    assert code == 0
    rec = parse_csv_records(out)[0]
    assert rec.value == pytest.approx(0.5641895835477563, rel=1e-7)


def test_eval_t_grid_ordering(capsys):
    code, out, _ = run(capsys, "eval", "--op", "J", "--alpha", "0.4",
                       "--beta-int", "-2", "--d", "0", "--a", "1",
                       "--t", "1.1:1.5:5", "--route", "series,hyp",
                       "--format", "csv")
    assert code == 0
    records = parse_csv_records(out)
    assert len(records) == 10
    keys = [(r.t, r.route) for r in records]
    assert keys == sorted(keys)


def test_csv_round_trip_bit_for_bit(capsys, tmp_path):
    out_file = tmp_path / "records.csv"
    code = main(["eval", "--op", "J", "--alpha", "0.37",
                 "--beta-real", "-1.5", "--d", "0.25", "--a", "1.5",
                 "--t", "1.6:1.9:4", "--route", "series,hyp,oracle",
                 "--format", "csv", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    text = out_file.read_text()
    records = parse_csv_records(text)
    # re-emitting the parsed records reproduces the exact same floats
    for rec, line in zip(records, text.splitlines()[1:]):
        parts = line.split(",")
        assert float(parts[3]) == rec.d
        assert float(parts[5]) == rec.t
        assert float(parts[7]) == rec.value
        assert float(parts[9]) == rec.remainder
    assert len(records) == 12


def test_jsonl_round_trip(capsys):
    code, out, _ = run(capsys, "eval", "--op", "D", "--alpha", "0.6",
                       "--beta-rational", "2/3", "--d", "2", "--a", "1",
                       "--t", "1.2", "--route", "series", "--format", "jsonl")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert set(rec) == {"op", "alpha", "beta", "d", "a", "t", "route",
                        "value", "terms", "remainder", "status"}
    assert rec["beta"] == "2/3"
    assert rec["status"] == "converged"


def test_jsonl_and_csv_carry_identical_floats(capsys):
    args = ["eval", "--op", "J", "--alpha", "0.31", "--beta-real", "-1.5",
            "--d", "0.2", "--a", "1.7", "--t", "1.9:2.8:3",
            "--route", "series,hyp"]
    code, csv_out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    code, jsonl_out, _ = run(capsys, *args, "--format", "jsonl")
    assert code == 0
    csv_records = parse_csv_records(csv_out)
    json_records = [json.loads(ln) for ln in jsonl_out.splitlines()]
    assert len(csv_records) == len(json_records) == 6
    for c, j in zip(csv_records, json_records):
        assert (c.value, c.t, c.a, c.d, c.remainder) == \
            (j["value"], j["t"], j["a"], j["d"], j["remainder"])
        assert (c.route, c.status, c.terms, c.beta) == \
            (j["route"], j["status"], j["terms"], j["beta"])


def test_compare_polynomial_all_routes_tiny_deviation(capsys):
    # exact finite sums: every route within 1e-12 of every other
    code, out, _ = run(capsys, "compare", "--op", "J", "--alpha", "0.5",
                       "--beta-int", "2", "--d", "0", "--a", "1",
                       "--t", "1.4", "--route", "series,hyp,oracle",
                       "--tol-compare", "1e-12")
    assert code == 0
    assert "series" in out or "hyp" in out


def test_compare_exit_three_on_deviation(capsys):
    # absurdly tight comparison tolerance forces exit 3
    code, _, _ = run(capsys, "compare", "--op", "J", "--alpha", "0.5",
                     "--beta-real", "-1.5", "--d", "0", "--a", "1",
                     "--t", "1.4", "--route", "series,oracle",
                     "--tol-compare", "1e-18")
    assert code == 3


def test_compare_integral_order_zero_at_lower_limit(capsys):
    # J^0 is the identity at t = a on every route, so the routes agree there
    code, _, _ = run(capsys, "compare", "--op", "J", "--alpha", "0",
                     "--beta-rational", "1/2", "--d", "0", "--a", "1",
                     "--t", "1:1.4:3", "--route", "series,hyp,oracle")
    assert code == 0


def test_compare_has_one_line_per_grid_point(capsys):
    # a repeated point is a line of its own, not one line for its routes'
    # records at every copy
    code, out, _ = run(capsys, "compare", "--op", "J", "--alpha", "0.5",
                       "--beta-int", "-2", "--d", "0", "--a", "1",
                       "--t", "1.2:1.2:3", "--route", "series,hyp")
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 3
    assert all(line.split() == ["1.2", lines[0].split()[1], "hyp/series"]
               for line in lines)


def test_compare_route_without_a_value_is_nan(capsys):
    # the hyp derivative at an order within 1e-12 of 1 is truncated with
    # value NaN: no agreement to report
    code, out, _ = run(capsys, "compare", "--op", "D", "--alpha",
                       "0.9999999999999", "--beta-int", "-2", "--d", "0",
                       "--a", "1", "--t", "1.2:1.5:2", "--route", "series,hyp")
    assert code == 2
    assert [line.split() for line in out.splitlines()[1:]] == [
        ["1.2", "nan", "hyp/series"], ["1.5", "nan", "hyp/series"]]


def test_compare_needs_two_routes(capsys):
    code, _, err = run(capsys, "compare", "--op", "J", "--alpha", "0.5",
                       "--beta-int", "2", "--d", "0", "--a", "1",
                       "--t", "1.4", "--route", "series")
    assert code == 1
    assert "two routes" in err


def test_out_of_window_t_is_validation_error(capsys):
    code, _, err = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                       "--beta-int", "-2", "--d", "0", "--a", "1",
                       "--t", "3.5", "--route", "series")
    assert code == 1
    assert "WindowViolation" in err


def test_derivative_at_lower_limit_is_rejected(capsys):
    code, _, err = run(capsys, "eval", "--op", "D", "--alpha", "0.5",
                       "--beta-int", "-2", "--d", "0", "--a", "1",
                       "--t", "1", "--route", "series")
    assert code == 1
    assert "EvalAtLowerLimit" in err


def test_not_converged_exit_two(capsys):
    code, out, _ = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                       "--beta-real", "-1.5", "--d", "0", "--a", "1",
                       "--t", "1.4", "--route", "series",
                       "--max-terms", "4", "--format", "csv")
    assert code == 2
    rec = parse_csv_records(out)[0]
    assert rec.status == "truncated"
    assert rec.terms == 4


@pytest.mark.parametrize("job, field, want", [
    (["--beta-real", "-1e-3", "--d", "0", "--a", "1", "--t", "1.2"],
     "beta", "-0.001"),
    (["--beta-real", "0.5", "--d", "-1e-3", "--a", "1", "--t", "1.2"],
     "d", -0.001),
    (["--beta-real", "0.5", "--d", "-3", "--a", "-2e0", "--t", "-1.5"],
     "a", -2.0),
    (["--beta-int", "2", "--d", "0", "--a", "-2", "--t", "-1.5e0"],
     "t", -1.5),
], ids=["beta-real", "d", "a", "t"])
def test_negative_values_in_exponent_notation(capsys, job, field, want):
    # argparse mistakes "-1e-3" for an option; the value of any flag is folded
    code, out, err = run(capsys, "eval", "--op", "J", "--alpha", "0.5", *job,
                         "--format", "csv")
    assert (code, err) == (0, "")
    assert getattr(parse_csv_records(out)[0], field) == want


def test_domain_subcommand_outputs(capsys):
    code, out, _ = run(capsys, "domain", "--beta-rational", "-1/2", "--d", "1")
    assert code == 0
    assert out.splitlines()[0] == "(1, +inf)"
    code, out, _ = run(capsys, "domain", "--beta-int", "4", "--d", "0")
    assert code == 0
    assert out.splitlines()[0] == "R"
    code, out, _ = run(capsys, "domain", "--beta-real", "3.14159", "--d", "0")
    assert code == 0
    assert out.splitlines()[0] == "(0, +inf)"


def test_closed_route_requires_centered(capsys):
    code, _, err = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                       "--beta-real", "0.5", "--d", "0", "--a", "1",
                       "--t", "1.2", "--route", "closed")
    assert code == 1
    assert "centered" in err


def test_closed_route_centered_value(capsys):
    code, out, _ = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                       "--beta-real", "1.0", "--d", "0", "--centered",
                       "--t", "1", "--route", "closed", "--format", "csv")
    assert code == 0
    rec = parse_csv_records(out)[0]
    assert rec.value == pytest.approx(0.75225277806367504, rel=1e-12)


@pytest.mark.parametrize("op", ["J", "D"])
def test_closed_route_reports_the_centered_floor(capsys, op):
    # the closed and series routes run one centered body: the same value and
    # remainder, which is the form's roundoff floor, not 0; the closed route
    # sums no terms
    code, out, err = run(capsys, "eval", "--op", op, "--alpha", "0.5",
                         "--beta-int", "3", "--centered", "--t", "0.5:3:4",
                         "--route", "closed,series", "--format", "csv")
    assert (code, err) == (0, "")
    records = parse_csv_records(out)
    closed, series = records[0::2], records[1::2]
    assert [(r.route, r.terms) for r in closed] == [("closed", 0)] * 4
    assert [(r.route, r.terms) for r in series] == [("series", 4)] * 4
    for c, s in zip(closed, series):
        assert (c.value, c.remainder, c.status) == \
            (s.value, s.remainder, "converged")
        assert 0.0 < c.remainder <= 1e-13 * max(1.0, abs(c.value))


def test_centered_derivative_at_the_shift_is_zero(capsys):
    # on the centered window the one term left is (t-d)^(2-0.5): 0 at t = a
    code, out, err = run(capsys, "eval", "--op", "D", "--alpha", "0.5",
                         "--beta-int", "2", "--d", "1", "--centered", "--t", "1",
                         "--route", "series,closed", "--format", "csv")
    assert (code, err) == (0, "")
    assert [(r.route, r.value, r.status) for r in parse_csv_records(out)] == [
        ("closed", 0.0, "converged"), ("series", 0.0, "converged")]


def test_centered_derivative_of_a_constant_at_the_shift_is_rejected(capsys):
    # (t-d)^(0-0.5) is singular at t = d
    code, out, err = run(capsys, "eval", "--op", "D", "--alpha", "0.5",
                         "--beta-int", "0", "--d", "1", "--centered", "--t", "1",
                         "--route", "series,closed", "--format", "csv")
    assert (code, out) == (1, "")
    assert err.startswith("error: EvalAtLowerLimit:")


def test_closed_route_takes_a_lower_limit_at_the_shift(capsys):
    code, out, err = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                         "--beta-real", "1.0", "--d", "0", "--a", "0",
                         "--t", "1", "--route", "closed", "--format", "csv")
    assert (code, err) == (0, "")
    assert parse_csv_records(out)[0].value == pytest.approx(0.75225277806367504,
                                                            rel=1e-12)


def test_strict_window_is_not_a_flag(capsys):
    code, out, err = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                         "--beta-int", "2", "--d", "0", "--a", "1", "--t", "1.5",
                         "--strict-window")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --strict-window" in err


def test_parsers_are_built_once(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("alpha=0.5\n")
    job = ("eval", "--config", str(cfg), "--op", "J", "--beta-int", "2",
           "--a", "1", "--t", "1.5")
    assert run(capsys, *job)[0] == 0
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, *job)[0] == 0
    assert built == []


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("op=J\nalpha=0.5\nbeta-rational=1/2\nd=0\na=1\n"
                   "t=1.2\nroute=series\nformat=csv\n")
    code, out, _ = run(capsys, "eval", "--config", str(cfg))
    assert code == 0
    base = parse_csv_records(out)[0]
    # the explicit flag overrides alpha from the file
    code, out, _ = run(capsys, "eval", "--config", str(cfg), "--alpha", "0.9")
    assert code == 0
    override = parse_csv_records(out)[0]
    assert base.alpha == 0.5
    assert override.alpha == 0.9
    assert override.value != base.value


def _config_job(capsys, tmp_path, text, *flags):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text)
    return run(capsys, "eval", "--config", str(cfg), *flags)


_JOB = {"op": "J", "alpha": "0.5", "beta-int": "2", "d": "0", "a": "1",
        "t": "1.2", "format": "csv"}
_CFG = "".join(f"{key}={value}\n" for key, value in _JOB.items())


@pytest.mark.parametrize("key, value", [
    ("op", "X"), ("format", "xml"), ("alpha", "abc"), ("beta-rational", "0.5"),
], ids=["op", "format", "alpha", "beta-rational"])
def test_config_values_are_checked_like_flags(capsys, tmp_path, key, value):
    # a config line parses as the flag it names: same exit code, same message
    job = dict(_JOB)
    if key.startswith("beta"):
        del job["beta-int"]
    job[key] = value
    code, out, err = _config_job(
        capsys, tmp_path, "".join(f"{k}={v}\n" for k, v in job.items()))
    flag_code, flag_out, flag_err = run(
        capsys, "eval", *(tok for k, v in job.items() for tok in (f"--{k}", v)))
    assert (code, out) == (flag_code, flag_out) == (1, "")
    assert err.splitlines()[-1] == flag_err.splitlines()[-1]


def test_config_with_two_exponents_is_an_error(capsys, tmp_path):
    code, out, err = _config_job(capsys, tmp_path, _CFG + "beta-real=0.5\n")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].endswith(
        "argument --beta-real: not allowed with argument --beta-int")


def test_config_ignores_unknown_and_abbreviated_keys(capsys, tmp_path):
    code, base, _ = _config_job(capsys, tmp_path, _CFG)
    assert code == 0
    # "rout" would abbreviate --route on the command line; in a file only
    # exact keys count
    code, out, err = _config_job(capsys, tmp_path,
                                 _CFG + "rout=hyp\ncolour=blue\n")
    assert (code, out, err) == (0, base, "")
    assert parse_csv_records(out)[0].route == "series"


def test_exponent_flag_overrides_config_exponent_of_another_class(
        capsys, tmp_path):
    code, out, err = _config_job(capsys, tmp_path, _CFG,
                                 "--beta-rational", "1/2")
    assert (code, err) == (0, "")
    assert parse_csv_records(out)[0].beta == "1/2"


def test_config_lower_limit_and_dplus_flag_conflict(capsys, tmp_path):
    code, _, err = _config_job(capsys, tmp_path, _CFG, "--dplus", "0.5")
    assert code == 1
    assert err == ("error: ValueError: only one of --a / --dplus / --centered "
                   "may be given\n")


def test_bad_config_line_overridden_by_flag_is_ignored(capsys, tmp_path):
    code, out, err = _config_job(capsys, tmp_path,
                                 _CFG.replace("alpha=0.5", "alpha=abc"),
                                 "--alpha", "0.25")
    assert (code, err) == (0, "")
    assert parse_csv_records(out)[0].alpha == 0.25


_FINITE_JOB = ["--op", "J", "--alpha", "0.5", "--beta-int", "2", "--d", "0",
               "--a", "1", "--t", "1.2", "--route", "series,oracle"]


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "nan"), ("--d", "inf"), ("--a", "-inf"), ("--dplus", "inf"),
    ("--tol", "inf"), ("--quad-tol", "nan"), ("--tol-compare", "nan"),
    ("--t", "nan"), ("--t", "inf"), ("--t", "1:inf:3"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_numbers_are_usage_errors(capsys, tmp_path, flag, value,
                                             source):
    job = list(_FINITE_JOB)
    if flag in job:
        del job[job.index(flag):job.index(flag) + 2]
    if flag == "--dplus":
        del job[job.index("--a"):job.index("--a") + 2]
    if source == "flag":
        code, out, err = run(capsys, "compare", *job, f"{flag}={value}")
    else:
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"{flag[2:]}={value}\n")
        code, out, err = run(capsys, "compare", *job, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "finite" in err.splitlines()[-1]


@pytest.mark.parametrize("exponent", [
    ["--beta-real=-inf"], ["--beta-real", "inf"], ["--beta-real", "nan"],
    ["--beta-real", "inf", "--route", "hyp"], ["--beta-int", str(10**309)],
    ["--beta-rational", f"{10**400}/3"],
], ids=["-inf", "inf", "nan", "inf-hyp", "huge-int", "huge-rational"])
def test_exponent_beyond_floats_is_a_usage_error(capsys, exponent):
    code, out, err = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                         "--d", "0", "--a", "1", "--t", "1.2", *exponent)
    assert (code, out) == (1, "")
    assert err == ("error: ValueError: the shift d and the exponent beta "
                   "must be finite floats\n")


@pytest.mark.parametrize("command, job", [
    ("eval", ["--beta-int", "2", "--t", "5", "--format", "csv"]),
    ("compare", ["--beta-int", "2", "--t", "1.2", "--route", "series"]),
    ("eval", ["--beta-rational", "0.5", "--t", "1.2"]),
], ids=["window", "one-route", "bad-exponent"])
def test_failed_job_leaves_out_file_untouched(capsys, tmp_path, command, job):
    out_file = tmp_path / "results.csv"
    out_file.write_text("earlier results\n")
    code, _, _ = run(capsys, command, "--op", "J", "--alpha", "0.5",
                     "--d", "0", "--a", "1", *job, "--out", str(out_file))
    assert code == 1
    assert out_file.read_text() == "earlier results\n"


def test_usage_error_exit_one(capsys):
    code, _, _ = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                     "--beta-int", "1", "--a", "0", "--centered",
                     "--t", "1", "--route", "series")
    assert code == 1


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                       "--beta-int", "1", "--a", "0", "--route", "series")
    assert code == 1
    assert "--t" in err


def test_hyp_not_converged_exit_two(capsys, monkeypatch):
    # the 2F1 series of the hyp route runs into a lowered term cap: a
    # truncated record and exit 2, not a traceback
    monkeypatch.setattr(rlpower.hypergeom, "MAX_TERMS", 4)
    code, out, err = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                         "--beta-int", "-1", "--d", "0", "--a", "1",
                         "--t", "1.999", "--route", "hyp", "--format", "csv")
    assert code == 2
    assert err == ""
    rec = parse_csv_records(out)[0]
    assert rec.status == "truncated"
    assert math.isnan(rec.value)
    assert rec.remainder == math.inf


@pytest.mark.parametrize("op, alpha", [("J", "0.5"), ("D", "0.4"), ("D", "1")])
def test_run_job_truncates_exactly_the_hyp_points_at_the_term_cap(monkeypatch,
                                                                  op, alpha):
    # a lowered term cap that only the far points of the job reach: the hyp
    # route's records are truncated there, and elsewhere they hold the
    # scalar entry's value, bit for bit
    monkeypatch.setattr(rlpower.hypergeom, "MAX_TERMS", 30)
    argv = ["eval", "--op", op, "--alpha", alpha, "--beta-real", "-1.7",
            "--d", "0", "--a", "1", "--t", "1.95:1.01:7", "--route", "hyp,series"]
    cli = rlpower.cli
    job = cli._job_from({**cli._DEFAULTS, **vars(cli.build_parser().parse_args(
        cli._join_negative_values(argv)))})
    pf = rlpower.power_function(0.0, job.beta)
    win = rlpower.make_window(1.0, pf)
    entry = rlpower.rlfi_hyp_form if op == "J" else rlpower.rlfd_hyp_form
    truncated = 0
    for record in run_job(job):
        if record.route != "hyp":
            continue
        point = (record.terms, record.remainder, record.status)
        try:
            value = entry(pf, win, job.alpha, record.t)
        except rlpower.HypNotConverged:
            truncated += 1
            assert math.isnan(record.value)
            assert point == (0, math.inf, "truncated")
            continue
        assert record.value.hex() == value.hex()
        assert point == (0, 0.0, "converged")
    assert 0 < truncated < 7


@pytest.mark.parametrize("route", ["series", "hyp"])
def test_order_one_derivative_at_lower_limit(capsys, route):
    # D^1 = f' is regular at t = a: f'(1) = 2 for f(t) = t^2
    code, out, err = run(capsys, "eval", "--op", "D", "--alpha", "1",
                         "--beta-int", "2", "--d", "0", "--a", "1",
                         "--t", "1", "--route", route, "--format", "csv")
    assert code == 0
    assert err == ""
    assert parse_csv_records(out)[0].value == pytest.approx(2.0, rel=1e-14)


def test_order_one_derivative_at_lower_limit_oracle_is_typed(capsys):
    # the oracle's derivative needs t > a: exit 1, no traceback
    code, out, err = run(capsys, "eval", "--op", "D", "--alpha", "1",
                         "--beta-int", "2", "--d", "0", "--a", "1",
                         "--t", "1", "--route", "oracle", "--format", "csv")
    assert code == 1
    assert err.startswith("error: EvalAtLowerLimit:")


@pytest.mark.parametrize("alpha", ["0.3", "1"])
def test_oracle_derivative_at_the_shift_is_not_converged(capsys, alpha):
    # t = d: D^0.3 of (t-1)^(2/3) folds f into the weight, a converged
    # -0.63031; f' is infinite there, so D^1 is a truncated record
    code, out, err = run(capsys, "eval", "--op", "D", "--alpha", alpha,
                         "--beta-rational", "2/3", "--d", "1", "--a", "0",
                         "--t", "1", "--route", "oracle", "--format", "csv")
    rec, = parse_csv_records(out)
    if alpha == "0.3":
        assert (code, err, rec.status) == (0, "", "converged")
        want = displaced_exact(rlpower.beta_rational(2, 3), 1.0, 0.0, -0.3, 1.0)
        assert abs(rec.value - want) <= rec.remainder
        return
    assert (code, err) == (2, "")
    assert rec.status == "truncated"
    assert math.isnan(rec.value)
    assert rec.remainder == math.inf


def test_hyp_order_next_to_one_is_not_converged(capsys):
    # c = 1 - alpha = 9e-13 is no pole: the hyp route does not return the
    # order-1 limit f'(t), 4.5e-7 off, as converged
    code, out, err = run(capsys, "eval", "--op", "D", "--alpha",
                         "0.9999999999991", "--beta-int", "-2", "--d", "0",
                         "--a", "1", "--t", "1.000001", "--route", "hyp,series",
                         "--format", "csv")
    assert (code, err) == (2, "")
    assert [(r.route, r.status) for r in parse_csv_records(out)] == [
        ("hyp", "truncated"), ("series", "truncated")]


def test_domain_rejects_non_rational_like_eval(capsys):
    code, _, err = run(capsys, "domain", "--beta-rational", "0.5")
    assert code == 1
    eval_code, _, eval_err = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                                 "--beta-rational", "0.5", "--d", "0",
                                 "--a", "1", "--t", "1.2")
    assert eval_code == 1
    assert err == eval_err == "error: ValueError: --beta-rational expects p/q\n"


def test_first_error_in_t_major_order_is_kept(capsys):
    # at t = 0 the oracle's derivative needs t > a, and from
    # t = 250 on the closed value 250**299 overflows: evaluated t by t, as
    # the records list them, the oracle's error comes first
    job = ("eval", "--op", "D", "--alpha", "1", "--beta-int", "300", "--d", "0",
           "--centered", "--t", "0:1000:5", "--format", "csv")
    code, out, err = run(capsys, *job, "--route", "closed")
    assert (code, out) == (1, "")
    assert err == ("error: ValueOverflow: centered value at t - d = 250.0 with "
                   "beta=300.0, sa=-1.0 is beyond the float range\n")
    code, out, err = run(capsys, *job, "--route", "closed,oracle")
    assert (code, out) == (1, "")
    assert err == ("error: EvalAtLowerLimit: the head term (t-a)^-alpha "
                   "needs t > a\n")


def test_hyp_not_converged_at_some_points_only(capsys, monkeypatch):
    # with the 2F1 term cap lowered, the point next to the lower limit still
    # converges and the one at the window edge does not: one truncated record
    monkeypatch.setattr(rlpower.hypergeom, "MAX_TERMS", 4)
    code, out, err = run(capsys, "eval", "--op", "J", "--alpha", "0.5",
                         "--beta-int", "-1", "--d", "0", "--a", "1",
                         "--t", "1.00001:1.9:2", "--route", "hyp,series",
                         "--format", "csv")
    assert code == 2
    assert err == ""
    records = parse_csv_records(out)
    assert [(r.route, r.status) for r in records] == [
        ("hyp", "converged"), ("series", "converged"),
        ("hyp", "truncated"), ("series", "converged")]
    pf = rlpower.power_function(0.0, rlpower.beta_int(-1))
    win = rlpower.make_window(1.0, pf)
    assert records[0].value == rlpower.rlfi_hyp_form(pf, win, 0.5, 1.00001)
    assert math.isnan(records[2].value)


# The heads of the writer's jobs: equal fields, such as 0.0 and -0.0, are
# spelled apart
_HEADS = (("J", 0.35, "-3/2", -2.5, -1.0),
          ("J", 0.5, "-3/2", 0.0, -0.0),
          ("D", 1.0, "0.45000000000000001", 1e16, 5e-324))
_SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7,
             0.1, -1.5e300, 2.0 ** 0.5)
_STATUSES = ("converged", "truncated", "diverged")
_WRITER_ROUTES = ["closed", "hyp", "oracle", "series"]


def _writer_job(head):
    """One job's columns, as the writer takes them: at every route, every
    special float as value and as remainder at every status, and every finite
    one as t, -0.0 next to 0.0."""
    n = len(_SPECIALS)
    ts = [x for x in _SPECIALS if math.isfinite(x)]
    points = range(n * len(_STATUSES))
    columns = [([_SPECIALS[(i + r) % n] for i in points],
                [7 * i for i in points],
                [_SPECIALS[-1 - (i + r) % n] for i in points],
                [_STATUSES[(i // n + r) % len(_STATUSES)] for i in points])
               for r, _ in enumerate(_WRITER_ROUTES)]
    return JobResult(head, [ts[i % len(ts)] for i in points], _WRITER_ROUTES,
                     columns)


def _emitted(result, out_format):
    stream = io.StringIO()
    _emit_records(result, types.SimpleNamespace(out_format=out_format), stream)
    return stream.getvalue()


def _jsonl_lines(records):
    return "".join(json.dumps(vars(r)) + "\n" for r in records)


def _csv_lines(records):
    lines = ["op,alpha,beta,d,a,t,route,value,terms,remainder,status"]
    for r in records:
        lines.append(",".join(field if isinstance(field, str) else
                              str(field) if isinstance(field, int) else
                              "%.17g" % field for field in vars(r).values()))
    return "".join(line + "\n" for line in lines)


def _human_lines(records):
    lines = [f"{'t':>14} {'route':>8} {'value':>16} {'terms':>6} "
             f"{'remainder':>12} {'status':>10}"]
    for r in records:
        lines.append(f"{'%.9g' % r.t:>14} {r.route:>8} {'%.9g' % r.value:>16} "
                     f"{r.terms:>6d} {'%.3g' % r.remainder:>12} {r.status:>10}")
    return "".join(line + "\n" for line in lines)


_WRITERS = {"jsonl": _jsonl_lines, "csv": _csv_lines, "human": _human_lines}


def test_job_result_is_its_records_t_major():
    # sized and re-iterable: record k is point k // 4 at route k % 4
    result = _writer_job(_HEADS[1])
    records = list(result)
    assert len(result) == len(records) == len(result.ts) * 4
    assert [vars(r) for r in result] == [vars(r) for r in records]
    for k, r in enumerate(records):
        i, j = divmod(k, 4)
        values, terms, remainders, statuses = result.columns[j]
        assert type(r) is EvalRecord
        assert list(map(repr, (r.op, r.alpha, r.beta, r.d, r.a, r.t))) == \
            list(map(repr, (*result.head, result.ts[i])))
        assert (r.route, r.terms, r.status) == \
            (result.routes[j], terms[i], statuses[i])
        assert r.value is values[i] and r.remainder is remainders[i]


def test_jsonl_writer_is_json_dumps_byte_for_byte():
    for head in _HEADS:
        result = _writer_job(head)
        assert _emitted(result, "jsonl") == _jsonl_lines(result)


def test_csv_writer_is_the_joined_fields_byte_for_byte():
    for head in _HEADS:
        result = _writer_job(head)
        assert _emitted(result, "csv") == _csv_lines(result)


def test_human_writer_pads_each_field():
    result = _writer_job(_HEADS[0])
    assert _emitted(result, "human") == _human_lines(result)


_FLOATS = st.one_of(st.floats(), st.sampled_from(_SPECIALS))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _job_results(draw):
    routes = draw(st.lists(st.sampled_from(_WRITER_ROUTES), min_size=1,
                           max_size=4, unique=True))
    n = draw(st.integers(1, 12))
    head = (draw(st.sampled_from("JD")), draw(_FINITE),
            draw(st.sampled_from(["2", "-3/2", "0.45000000000000001"])),
            draw(_FINITE), draw(_FINITE))
    columns = [(draw(st.lists(_FLOATS, min_size=n, max_size=n)),
                draw(st.lists(st.integers(0, 10 ** 6), min_size=n, max_size=n)),
                draw(st.lists(_FLOATS, min_size=n, max_size=n)),
                draw(st.lists(st.sampled_from(_STATUSES), min_size=n, max_size=n)))
               for _ in routes]
    ts = draw(st.lists(_FINITE, min_size=n, max_size=n))
    return JobResult(head, ts, routes, columns)


def _two_route_job(values, remainders):
    """A 600-point job on two routes, with the value and remainder columns
    given: three chunks of 256 points, the last one short."""
    n = 600
    ts = [1.0 + i / n for i in range(n)]
    columns = [(values[j], list(range(n)), remainders[j], ["converged"] * n)
               for j in range(2)]
    return JobResult(("J", 0.35, "-3/2", -2.5, -1.0), ts, ["hyp", "series"],
                     columns)


_TINY_REMAINDERS = [[i * 1e-17 for i in range(600)] for _ in range(2)]


@given(result=_job_results(), chunk=st.integers(1, 5),
       out_format=st.sampled_from(sorted(_WRITERS)))
# the only non-finite float of a job is a remainder in the last chunk of its
# second route
@example(result=_two_route_job(
    [[math.sqrt(i) / 3.0 for i in range(600)]] * 2,
    [_TINY_REMAINDERS[0],
     _TINY_REMAINDERS[1][:580] + [math.inf] + _TINY_REMAINDERS[1][581:]]),
    chunk=256, out_format="jsonl")
# a job of finite floats whose values sum beyond the float range
@example(result=_two_route_job([[1e308] * 600] * 2, _TINY_REMAINDERS),
         chunk=256, out_format="jsonl")
@settings(max_examples=200, deadline=None)
def test_emitting_a_job_result_is_writing_its_records(result, chunk, out_format):
    # small chunks, so that a job spans several
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rlpower.cli, "_CHUNK", chunk)
        assert _emitted(result, out_format) == _WRITERS[out_format](result)


class _Sink:
    """A stream that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def test_the_writer_streams_a_job_in_chunks():
    # a 2 000-point, two-route jsonl job writes about 0.78 MB, and its text
    # joined whole would peak near 1.8 MB; a chunk of points at a time peaks
    # near 0.33 MB
    n = 2000
    ts = [1.0 + i / n for i in range(n)]
    columns = [([math.sqrt(t) / 3.0 for t in ts], list(range(n)),
                [t * 1e-17 for t in ts], ["converged"] * n)
               for _ in range(2)]
    result = JobResult(("J", 0.35, "-3/2", -2.5, -1.0), ts, ["hyp", "series"],
                       columns)
    sink = _Sink()
    tracemalloc.start()
    try:
        _emit_records(result, types.SimpleNamespace(out_format="jsonl"), sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 700_000
    assert peak < 400_000, (peak, sink.size)


_ROUTE_SETS = {
    side: [",".join(c) for n in (1, 2, 3)
           for c in itertools.combinations(routes, n)]
    for side, routes in (("displaced", ("hyp", "oracle", "series")),
                         ("centered", ("closed", "oracle", "series")))}


@pytest.mark.parametrize("op", ["J", "D"])
@pytest.mark.parametrize("d, a, lower, grid, side", [
    ("0.0", "1.0", ["--d", "0", "--a", "1"], "1.1:1.9:4", "displaced"),
    ("2.0", "1.0", ["--d", "2", "--a", "1"], "1.4:1.1:4", "displaced"),
    ("-0.0", "-0.0", ["--d", "-0.0", "--centered"], "0.5:3:4", "centered"),
])
def test_every_record_of_a_job_has_the_jobs_head(monkeypatch, capsys, op, d, a,
                                                 lower, grid, side):
    # the writer formats the head of a job's first record for all of them
    jobs = []

    def capture(job):
        jobs.append(run_job(job))
        return jobs[-1]

    monkeypatch.setattr("rlpower.cli.run_job", capture)
    for routes in _ROUTE_SETS[side]:
        code, _, err = run(capsys, "eval", "--op", op, "--alpha", "0.35",
                           "--beta-int", "2", *lower, "--t", grid,
                           "--route", routes)
        assert (code, err) == (0, "")
        records = jobs[-1]
        assert len(records) == 4 * len(routes.split(","))
        assert {(r.op, repr(r.alpha), r.beta, repr(r.d), repr(r.a))
                for r in records} == {(op, "0.35", "2", d, a)}


@pytest.mark.parametrize("op, alpha, grid, routes, error", [
    # a descending grid out of the window at both ends: the first point in
    # job order is named, not the smallest
    ("J", "0.5", "2.5:0.5:5", "series,hyp",
     "WindowViolation: t=2.5 outside window [1.0, 2.0)"),
    ("J", "0.5", "0.5:2.5:5", "series,hyp",
     "WindowViolation: t=0.5 outside window [1.0, 2.0)"),
    # a derivative grid whose smallest point is a
    ("D", "0.5", "1.5:1:3", "series,hyp",
     "EvalAtLowerLimit: t = a = 1.0 is singular for the derivative at alpha=0.5"),
    ("D", "0.5", "1:2.5:4", "series",
     "EvalAtLowerLimit: t = a = 1.0 is singular for the derivative at alpha=0.5"),
    ("D", "0.5", "2.5:1:4", "hyp",
     "WindowViolation: t=2.5 outside window [1.0, 2.0)"),
    # the oracle alone checks the lower limit only
    ("D", "0.5", "1.5:0.5:3", "oracle",
     "EvalAtLowerLimit: t = a = 1.0 is singular for the derivative at alpha=0.5"),
    ("J", "0.5", "1.5:0.5:3", "oracle",
     "ValueError: t=0.5 below the lower limit 1.0"),
])
def test_grid_names_the_first_point_at_fault_in_job_order(capsys, op, alpha, grid,
                                                          routes, error):
    code, out, err = run(capsys, "eval", "--op", op, "--alpha", alpha,
                         "--beta-int", "-3", "--d", "0", "--a", "1",
                         "--t", grid, "--route", routes, "--format", "csv")
    assert (code, out, err) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize("op", ["J", "D"])
@pytest.mark.parametrize("exponent, lower, grid, error", [
    # a outside f's domain [0, inf)
    (["--beta-rational", "1/2"], ["--d", "0", "--a", "-1"], "-0.5:0.5:3",
     "ValueError: -1.0 outside the power function's domain"),
    # the pole at 1 touches [0, t] from t = 1, the third point in t-major
    # order, which the descending grid gives fourth; t = 1 is outside f's
    # domain too, and the pole comes first
    (["--beta-int", "-1"], ["--d", "1", "--a", "0"], "1.8:0.2:5",
     "PoleInsideInterval: integrand pole at x=1.0 touches [0.0, 1.0]"),
    # a outside (0, inf), and the pole at 0 touches [a, t] from the last
    # point: a's error comes first
    (["--beta-rational", "-1/2"], ["--d", "0", "--a", "-1"], "-0.9:0.5:3",
     "ValueError: -1.0 outside the power function's domain"),
    # ... and from the first point, where the pole comes first
    (["--beta-rational", "-1/2"], ["--d", "0", "--a", "-1"], "0.5:0.9:2",
     "PoleInsideInterval: integrand pole at x=0.0 touches [-1.0, 0.5]"),
])
def test_oracle_interval_errors_come_first_in_t_major_order(capsys, op, exponent,
                                                            lower, grid, error):
    # every grid point is finite and at least a, so with a inside f's domain
    # every point is: a point outside it is the library's (test_oracle.py)
    code, out, err = run(capsys, "eval", "--op", op, "--alpha", "0.5",
                         *exponent, *lower, "--t", grid, "--route", "oracle",
                         "--format", "csv")
    assert (code, out, err) == (1, "", f"error: {error}\n")


def test_oracle_integral_beyond_the_float_range_exits_one(capsys):
    # the integral's (t-a)^(1+alpha) overflows: a typed error, not a
    # converged -inf
    code, out, err = run(capsys, "eval", "--op", "J", "--alpha", "0.99",
                         "--beta-int", "1", "--d", "7.662552188327264e+299",
                         "--a", "0", "--t", "7.662552188327264e+299",
                         "--route", "oracle", "--format", "csv")
    assert (code, out) == (1, "")
    assert err.startswith("error: ValueOverflow:")


def test_oracle_with_a_far_shift_is_fast_and_exact(capsys):
    # |d| = 5e15 next to t - a = 4e5: x = t - s**(1/alpha) would round to a
    # staircase; in offsets from the shift the integrand is smooth, and the
    # job is fast
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--op", "J", "--alpha",
                         "0.3103265718398221", "--beta-int", "1",
                         "--d", "-5354913003596034", "--centered",
                         "--t", "-5354913003216613", "--route", "closed,oracle",
                         "--format", "csv")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    closed, quad = parse_csv_records(out)
    assert abs(quad.value - closed.value) <= 1e-13 * abs(closed.value)
