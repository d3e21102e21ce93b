"""Checks of rlpower's outputs against the references and their properties.

Every check returns the failed operations of one unit as ``{op index:
reason}``; an operation is one (t, route) record of a CLI job or one library
call.  A failed check never stops the run: the run goes on and reports the
counts.  Nothing here imports rlpower.

* A converged series value lies within its reported remainder of the
  reference.
* Hyp, closed and oracle values lie within ``REL_TOL`` of the reference,
  scaled by max(1, |ref|): the CLI's own ``--tol-compare`` default.
* Exit codes follow the documented contract: 0 on these workloads.
* csv and jsonl records parse back to the records run_job produced, and the
  compare table matches them.
* Both backends give the same status and term count, and values within
  ``BACKEND_REL_TOL`` of each other.
"""

from __future__ import annotations

import json
import math

import mpmath

from workloads import SERIES_FUNCTIONS

REL_TOL = 1e-7
BACKEND_REL_TOL = 1e-9
CSV_COLUMNS = ("op", "alpha", "beta", "d", "a", "t", "route", "value",
               "terms", "remainder", "status")


def _within(value: float, ref, bound) -> bool:
    """|value - ref| <= bound, exactly.  The float test first: its margin of
    1e-15 relative covers the rounding of ref to a double and of the
    arithmetic, so it never passes a value the exact test would fail."""
    fref = float(ref)
    loose = abs(value - fref) * (1 + 1e-15) + 1e-15 * abs(fref)
    if loose <= bound:
        return True
    return abs(mpmath.mpf(value) - ref) <= bound


def series_failure(value, remainder, status, ref) -> str | None:
    if status != "converged":
        return f"series status {status}"
    if not _within(value, ref, remainder):
        err = abs(mpmath.mpf(value) - ref)
        return f"series error {mpmath.nstr(err, 3)} above remainder {remainder:.3g}"
    return None


def close_failure(value, ref, tol: float = REL_TOL) -> str | None:
    if not _within(value, ref, tol * max(1.0, abs(float(ref)))):
        return f"value {value!r} off the reference {mpmath.nstr(ref, 17)}"
    return None


def values_agree(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=BACKEND_REL_TOL)


def _expected_records(unit: dict):
    a = unit["d"] if "--centered" in unit["argv"] else unit["a"]
    for t in unit["ts"]:
        for route in unit["routes"]:
            yield unit["op"], unit["alpha"], unit["d"], a, t, route


def _beta_matches(text: str, beta: dict) -> bool:
    if beta["cls"] != "real":
        return text == beta["token"]
    try:
        return float(text) == beta["x"]
    except ValueError:
        return False


def _record_failure(rec, expected, beta: dict, ref) -> str | None:
    if len(rec) != len(CSV_COLUMNS):
        return "malformed record"
    op, alpha, d, a, t, route = expected
    got = (rec[0], rec[1], rec[3], rec[4], rec[5], rec[6])
    if got != (op, alpha, d, a, t, route):
        return f"record {got!r} where {(op, alpha, d, a, t, route)!r} was due"
    if not _beta_matches(rec[2], beta):
        return f"beta {rec[2]!r} for {beta['token']}"
    value, terms, remainder, status = rec[7:]
    if route == "series":
        return series_failure(value, remainder, status, ref)
    if status != "converged":
        return f"{route} status {status}"
    return close_failure(value, ref)


def _parse_csv(text: str):
    """Rows of a csv body (None for a line that does not parse); None when
    the header is missing."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        return None
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        try:
            rows.append([f[0], float(f[1]), f[2], float(f[3]), float(f[4]),
                         float(f[5]), f[6], float(f[7]), int(f[8]),
                         float(f[9]), f[10]])
        except (IndexError, ValueError):
            rows.append(None)
    return rows


def _parse_jsonl(text: str):
    rows = []
    for line in text.splitlines():
        try:
            obj = json.loads(line)
            rows.append([obj[k] for k in CSV_COLUMNS])
        except (ValueError, KeyError, TypeError):
            rows.append(None)
    return rows


def _same_fields(x: list, y: list) -> bool:
    # exact equality, nan matching nan: the formats must round-trip
    return len(x) == len(y) and all(
        a == b or (isinstance(a, float) and isinstance(b, float)
                   and math.isnan(a) and math.isnan(b)) for a, b in zip(x, y))


def _compare_table_failures(unit: dict, records: list, text: str) -> dict[int, str]:
    """The compare table: one line per t with the largest pairwise relative
    deviation between the routes, printed with 3 digits."""
    nr = len(unit["routes"])
    lines = text.splitlines()[1:]
    failures = {}
    for j, t in enumerate(unit["ts"]):
        group = records[j * nr:(j + 1) * nr]
        worst = 0.0
        for x in range(nr):
            for y in range(x + 1, nr):
                u, v = group[x][7], group[y][7]
                worst = max(worst, abs(u - v) / max(1.0, abs(u), abs(v)))
        want = f"{'%.9g' % t:>14} {'%.3e' % worst:>14} {'/'.join(unit['routes']):>24}"
        reason = None
        if j >= len(lines) or lines[j] != want:
            reason = "compare table line differs from the records"
        elif worst > REL_TOL:
            reason = f"routes deviate by {worst:.3e}"
        if reason:
            failures.update({j * nr + r: reason for r in range(nr)})
    return failures


def check_cli_unit(unit: dict, refs: list, entry: dict) -> dict[int, str]:
    """Failures of one CLI job: exit code, records, emitted text."""
    nr = len(unit["routes"])
    n = len(unit["ts"]) * nr
    if entry.get("rc") != 0:
        return {k: f"exit code {entry.get('rc')}" for k in range(n)}
    records = entry["records"]
    failures = {}
    expected = list(_expected_records(unit))
    for k in range(n):
        if k >= len(records):
            failures[k] = "record missing"
            continue
        reason = _record_failure(records[k], expected[k], unit["beta"],
                                 refs[k // nr])
        if reason:
            failures[k] = reason
    if len(records) != n:
        failures.update({k: f"{len(records)} records for {n} operations"
                         for k in range(n)})
        return failures
    if unit["format"] == "human":
        failures.update({k: r for k, r in _compare_table_failures(
            unit, records, entry["output"]).items() if k not in failures})
        return failures
    rows = _parse_csv(entry["output"]) if unit["format"] == "csv" \
        else _parse_jsonl(entry["output"])
    if rows is None:
        failures.update({k: "csv header missing" for k in range(n)})
        return failures
    for k in range(n):
        if k >= len(rows) or rows[k] is None or not _same_fields(rows[k], records[k]):
            failures.setdefault(k, f"{unit['format']} line does not parse back "
                                   "to its record")
    if len(rows) != n:
        failures.update({k: f"{len(rows)} {unit['format']} lines for {n} records"
                         for k in range(n)})
    return failures


def check_call_unit(unit: dict, refs: list, entry: dict) -> dict[int, str]:
    """Failures of one unit of library calls."""
    failures = {}
    outcomes = entry["outcomes"]
    for k, call in enumerate(unit["calls"]):
        if k >= len(outcomes):
            failures[k] = "call missing"
            continue
        out = outcomes[k]
        if isinstance(out, dict):
            kind = "typed" if out.get("rlpower_error") else "untyped"
            failures[k] = f"{kind} {out['error']}: {out['message'][:120]}"
        elif call["fn"] in SERIES_FUNCTIONS:
            reason = series_failure(out[0], out[2], out[3], refs[k])
            if reason:
                failures[k] = reason
        else:
            reason = close_failure(out[0], refs[k])
            if reason:
                failures[k] = reason
    return failures


def _outcome_mismatch(x, y) -> str | None:
    """Backend disagreement between two outcomes: a record or call result
    [value, (terms, remainder, status)] or an error dict."""
    if isinstance(x, dict) or isinstance(y, dict):
        if isinstance(x, dict) and isinstance(y, dict) and x["error"] == y["error"]:
            return None
        return "one backend raised where the other did not"
    if x[1:] and (x[1] != y[1] or x[-1] != y[-1]):
        return f"terms/status {x[1]}/{x[-1]} vs {y[1]}/{y[-1]}"
    if not values_agree(x[0], y[0]):
        return f"values {x[0]!r} vs {y[0]!r}"
    return None


def compare_backends(unit: dict, entry_a: dict, entry_b: dict) -> dict[int, str]:
    """Failures where the two backends disagree on an operation."""
    if unit["kind"] == "cli":
        # record -> [value, terms, remainder, status]
        xs = [r[7:] for r in entry_a["records"]]
        ys = [r[7:] for r in entry_b["records"]]
    else:
        xs, ys = entry_a["outcomes"], entry_b["outcomes"]
    failures = {}
    for k in range(max(len(xs), len(ys))):
        if k >= len(xs) or k >= len(ys):
            failures[k] = "backend produced no result"
            continue
        reason = _outcome_mismatch(xs[k], ys[k])
        if reason:
            failures[k] = "backend mismatch: " + reason
    return failures


def check_workload(units: list, refs: list, entries: dict) -> dict:
    """All failed operations of one run as ``{(unit, op): reason}``.

    ``entries`` maps each backend to its check pass.  An operation fails if
    it fails on any backend or the backends disagree on it; it then counts
    as failed on every backend, so the failed share does not depend on how
    many passes each backend ran.
    """
    failures = {}
    backends = list(entries)
    for u, unit in enumerate(units):
        check = check_cli_unit if unit["kind"] == "cli" else check_call_unit
        for backend in backends:
            for k, reason in check(unit, refs[u], entries[backend][u]).items():
                failures.setdefault((u, k), f"{backend}: {reason}")
        for i in range(1, len(backends)):
            for k, reason in compare_backends(unit, entries[backends[0]][u],
                                              entries[backends[i]][u]).items():
                failures.setdefault((u, k), reason)
    return failures
