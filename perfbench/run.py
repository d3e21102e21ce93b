#!/usr/bin/env python3
"""rlpower benchmark: one workload, one seed, both kernel backends.

    python3 perfbench/run.py --workload grid-mid --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run builds the compiled backend from the
shipped C file if needed, draws the workload's inputs from the seed, computes
40-digit references with mpmath, and then starts one child at a time: a check
pass per backend, then timed passes on the pure-Python backend and on the
compiled backend, alternating, with fresh interpreters timed for set-up
before each.  Every output is checked.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  ``--regen-refs`` recomputes the cached references of the
seed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import mpmath

import checks
import extbuild
import references
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = BENCH_DIR / "_build"
BACKENDS = ("pure-python", "compiled")
SHORT = {"pure-python": "pure", "compiled": "compiled"}
TIMED_ROUNDS = 4            # pure, compiled, pure, compiled, ...
SETUP_STARTS_PER_CHILD = 3  # before each timed child, spread over the run
CHILD_SLACK_S = 60
CONFIRM_UNITS = 2           # units whose first points are confirmed by quad
CONFIRM_POINTS = 2
# Calibration sample time (child.calibration_sample) of the host this
# benchmark was written on at its usual speed.  Times are scaled by
# REFERENCE_CALIBRATION_S / (the sample taken next to them), which puts them
# at that speed: on the shared host the speed drifts by 20-50% within
# minutes, far more than the changes the benchmark has to show.
REFERENCE_CALIBRATION_S = 1.2e-3

END_TO_END_UNITS = {"setup_s": "s", "records_per_s.pure": "1/s",
                    "records_per_s.compiled": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def _child_env(backend: str, pythonpath: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("RLPOWER_PURE_PYTHON", "PYTHONPATH")}
    env["PYTHONPATH"] = pythonpath
    env["PYTHONHASHSEED"] = "0"
    if backend == "pure-python":
        env["RLPOWER_PURE_PYTHON"] = "1"
    return env


def _run_child(cfg: dict, pythonpath: str, timeout: float) -> dict:
    """Start one measuring child, wait for it, and read its result."""
    result_path = BUILD_DIR / "run" / f"child-{cfg['backend']}-{cfg['mode']}.json"
    result_path.unlink(missing_ok=True)
    cfg = dict(cfg, result=str(result_path),
               out_dir=str(BUILD_DIR / "run" / "out" / cfg["backend"]))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(cfg)],
        env=_child_env(cfg["backend"], pythonpath), capture_output=True,
        text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{cfg['mode']} child on {cfg['backend']} exited "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def setup_times(pythonpath: str, starts: int) -> list[float]:
    """Wall times of fresh interpreters importing rlpower and its CLI on the
    compiled backend."""
    code = ("import rlpower, rlpower.cli, sys; "
            "sys.exit(rlpower.backend_name() != 'compiled')")
    env = _child_env("compiled", pythonpath)
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=env)
        # a blocking wait: Popen.wait(timeout) polls with sleeps of up to
        # 50 ms, which would quantize the measurement
        watchdog = threading.Timer(CHILD_SLACK_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if rc != 0:
            raise BenchError("the compiled backend did not load in a fresh "
                             "interpreter")
    return times


def _op_kind(fn: str) -> str:
    return "J" if fn.startswith("rlfi") else "D"


def _unit_refs(unit: dict) -> list:
    if unit["kind"] == "cli":
        a = unit["d"] if "--centered" in unit["argv"] else unit["a"]
        return [references.value(unit["op"], unit["beta"], unit["d"], a,
                                 unit["alpha"], t) for t in unit["ts"]]
    return [references.value(_op_kind(c["fn"]), c["beta"], c["d"], c["a"],
                             c["alpha"], c["t"]) for c in unit["calls"]]


def _confirm(units: list, refs: list) -> int:
    """Check the first points of the first units against mpmath.quad of the
    defining integrals; the references are unusable if they disagree."""
    confirmed = 0
    for u in range(min(CONFIRM_UNITS, len(units))):
        unit = units[u]
        for k in range(CONFIRM_POINTS):
            if unit["kind"] == "cli":
                a = unit["d"] if "--centered" in unit["argv"] else unit["a"]
                j = k * (len(unit["ts"]) - 1) // max(1, CONFIRM_POINTS - 1)
                args = (unit["op"], unit["beta"], unit["d"], a, unit["alpha"],
                        unit["ts"][j])
            else:
                j = k
                c = unit["calls"][j]
                args = (_op_kind(c["fn"]), c["beta"], c["d"], c["a"],
                        c["alpha"], c["t"])
            quad = references.quad_value(*args)
            if not references.agree(refs[u][j], quad):
                raise BenchError(f"reference {refs[u][j]} and quadrature "
                                 f"{quad} disagree at {args!r}")
            confirmed += 1
    return confirmed


def load_references(workload: str, seed: int, units: list, regen: bool) -> list:
    """References of every operation, cached per seed under _build/refs."""
    key = hashlib.sha256(b"".join(
        (BENCH_DIR / name).read_bytes()
        for name in ("workloads.py", "references.py"))).hexdigest()[:16]
    path = BUILD_DIR / "refs" / f"{workload}-{seed}-{key}.json"
    if path.is_file() and not regen:
        with open(path, encoding="utf-8") as fh:
            return [[mpmath.mpf(x) for x in row] for row in json.load(fh)]
    refs = [_unit_refs(unit) for unit in units]
    print(f"# references: {sum(map(len, refs))} values at {references.DPS} "
          f"digits, {_confirm(units, refs)} confirmed by quadrature")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[str(x) for x in row] for row in refs], fh)
    return refs


def _pass_seconds(children: list, scaled: bool = True) -> float:
    """Seconds of one pass: the sum over units of that unit's median time
    over every pass of the children, each time put at the reference speed
    by the calibration sample taken next to it (or raw wall time)."""
    samples = [(times, cals) for child in children
               for times, cals in zip(child["passes"], child["calibration"])]
    return sum(statistics.median(
        times[u] * (REFERENCE_CALIBRATION_S / cals[u] if scaled else 1.0)
        for times, cals in samples) for u in range(len(samples[0][0])))


def _digest_mismatches(check: list, children: list) -> Counter:
    """For each unit, the timed or traced passes whose output differs from
    the check pass."""
    return Counter(u for child in children for pass_digests in child["digests"]
                   for u, digest in enumerate(pass_digests)
                   if digest != check[u]["digest"])


def _layer_metrics(traced: dict) -> tuple[dict, bool]:
    """Median per pass of each per-layer metric, per backend; False when a
    count differs between passes or backends."""
    metrics, steady = {}, True
    for backend, child in traced.items():
        for name, unit in spans.LAYER_METRICS.items():
            values = [layer[name] for layer in child["layers"]]
            if name in spans.EXACT_COUNTS and len(set(values)) > 1:
                steady = False
            metrics[f"{name}.{SHORT[backend]}"] = {
                "value": statistics.median(values), "unit": unit}
    for name in spans.EXACT_COUNTS:
        if len({metrics[f"{name}.{SHORT[b]}"]["value"] for b in traced}) > 1:
            steady = False
    return metrics, steady


def _measure(base: dict, pythonpath: str, seconds: float, trace: bool):
    """The timed children per backend, the traced child per backend (trace
    only) and the set-up samples (untraced only), one child at a time."""
    timed, traced, setup_samples = {b: [] for b in BACKENDS}, {}, []

    def child(backend, mode, share, **extra):
        return _run_child(dict(base, backend=backend, mode=mode, seconds=share,
                               **extra), pythonpath, share + CHILD_SLACK_S)

    if trace:
        share = seconds / (2 * len(BACKENDS))
        for backend in BACKENDS:
            timed[backend].append(child(backend, "time", share))
            traced[backend] = child(
                backend, "trace", share, span_path=str(
                    BUILD_DIR / "run" / f"spans-{base['workload']}-"
                    f"{SHORT[backend]}.jsonl"))
        return timed, traced, setup_samples
    share = seconds / (TIMED_ROUNDS * len(BACKENDS))
    for _ in range(TIMED_ROUNDS):
        for backend in BACKENDS:
            setup_samples += setup_times(pythonpath, SETUP_STARTS_PER_CHILD)
            timed[backend].append(child(backend, "time", share))
    return timed, traced, setup_samples


def run(workload: str, seed: int, seconds: float, trace: bool,
        regen: bool) -> dict:
    info = extbuild.prepare(ROOT, BUILD_DIR)
    pythonpath = info["pythonpath"]
    print(f"# kernels: _kernels_cy.c sha256 {info['kernels_c_sha256']}, "
          f"_kernels_cy.pyx sha256 {info['kernels_pyx_sha256']}")
    units = workloads.generate(workload, seed)
    refs = load_references(workload, seed, units, regen)
    setup_times(pythonpath, 1)  # writes the bytecode cache; not counted

    base = {"workload": workload, "seed": seed}
    entries = {b: _run_child(dict(base, backend=b, mode="check", seconds=0),
                             pythonpath, CHILD_SLACK_S)["units"]
               for b in BACKENDS}
    timed, traced, setup_samples = _measure(base, pythonpath, seconds, trace)

    failures = checks.check_workload(
        units, refs, {b: entries[b] for b in BACKENDS})
    ops_per_pass = sum(workloads.operations(u) for u in units)
    children = {b: timed[b] + ([traced[b]] if b in traced else [])
                for b in BACKENDS}
    failed_per_pass = len(failures)
    correct = True
    # Each operation counts once per backend, as its check pass ran it, so
    # the counts do not follow how many timed passes fit in the run.  A
    # timed or traced pass that gives other outputs fails the unit's
    # operations that passed their checks, once per backend.
    digest_failed = 0
    for backend in BACKENDS:
        for u, count in _digest_mismatches(entries[backend],
                                           children[backend]).items():
            correct = False
            digest_failed += sum(
                1 for k in range(workloads.operations(units[u]))
                if (u, k) not in failures)
            print(f"# {backend}: unit {units[u]['name']} gave other outputs "
                  f"than its check pass in {count} passes")
    for (u, k), reason in sorted(failures.items())[:20]:
        print(f"# failed: {units[u]['name']} op {k}: {reason}")
    if len(failures) > 20:
        print(f"# failed: ... {len(failures) - 20} more")

    est = {b: _pass_seconds(timed[b]) for b in BACKENDS}
    wall = {b: _pass_seconds(timed[b], scaled=False) for b in BACKENDS}
    passed = ops_per_pass - failed_per_pass
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, **{k: v for k, v in info.items() if k != "pythonpath"},
        "ops_per_pass": ops_per_pass, "failed_per_pass": failed_per_pass,
        "passes": {b: [len(c["passes"]) for c in children[b]] for b in BACKENDS},
        "pass_s": est, "pass_wall_s": wall,
        "children": {b: [{"passes": c["passes"], "calibration": c["calibration"]}
                         for c in timed[b]] for b in BACKENDS},
        "setup_samples": setup_samples,
    }
    if trace:
        metrics, steady = _layer_metrics(traced)
        correct = correct and steady
        if not steady:
            print("# per-layer counts differ between passes or backends")
        for backend in BACKENDS:
            traced_s = _pass_seconds([traced[backend]])
            print(f"# tracing overhead, {SHORT[backend]}: {traced_s:.4g} s per "
                  f"traced pass against {est[backend]:.4g} s untraced "
                  f"({traced_s / est[backend]:.2f}x)")
    else:
        print(f"# unscaled wall clock: records/s pure "
              f"{passed / wall['pure-python']:.6g}, compiled "
              f"{passed / wall['compiled']:.6g}")
        peak_kb = max(c["peak_rss_kb"] for c in timed["compiled"])
        values = {"setup_s": statistics.median(setup_samples),
                  "records_per_s.pure": passed / est["pure-python"],
                  "records_per_s.compiled": passed / est["compiled"],
                  "peak_rss_mb": peak_kb / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    summary["metrics"] = metrics
    out = BUILD_DIR / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    return {"correct": correct, "attempted": ops_per_pass * len(BACKENDS),
            "failed": failed_per_pass * len(BACKENDS) + digest_failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed seconds in the run, split over the backends")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-refs", action="store_true",
                        help="recompute the cached references of this seed")
    args = parser.parse_args(argv)
    mpmath.mp.dps = references.DPS
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.regen_refs)
    except (BenchError, extbuild.BuildError, subprocess.TimeoutExpired,
            OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
