"""Measuring child: runs passes of one workload on one backend.

    python3 perfbench/child.py '<json settings>'

Settings: workload, seed, backend ("pure-python" or "compiled"), mode
("check", "time" or "trace"), seconds, out_dir, result (path of the JSON
this child writes).  The parent sets PYTHONPATH and RLPOWER_PURE_PYTHON.

* check: one pass; captures every record and call result and writes them
  for the parent to check against the references.  Not timed.
* time: passes until ``seconds`` of timed passes, each unit timed on its
  own next to a calibration sample of the host's speed; outputs go to files
  and are reduced to one digest per unit and pass, so the process holds no
  captured output.  Reports its peak RSS.
* trace: like time, with spans around every layer; reports the per-layer
  metrics of each pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time

import workloads

MIN_PASSES = 1
CALIBRATION_ROUNDS = 6000
CALIBRATE_EVERY_S = 0.02


def _calibration_loop() -> float:
    start = time.perf_counter()
    x, table = 0.0, {}
    for i in range(CALIBRATION_ROUNDS):
        x += (i * 0.5) ** 0.5
        table[i & 63] = x
    return time.perf_counter() - start


def calibration_sample() -> float:
    """Seconds of a fixed piece of interpreter work that does not touch
    rlpower, median of three: how fast the shared host runs right now."""
    return statistics.median(_calibration_loop() for _ in range(3))


def _beta(domain, spec: dict):
    if spec["cls"] == "int":
        return domain.beta_int(spec["m"])
    if spec["cls"] == "rational":
        return domain.beta_rational(spec["p"], spec["q"])
    return domain.beta_real(spec["x"])


def peak_rss_kb() -> int:
    """Peak resident set size of this process image (Linux VmHWM).

    VmHWM starts afresh at exec; getrusage's ru_maxrss would also carry the
    parent's peak from before the fork.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def _file_digest(path: str, rc: int) -> str:
    h = hashlib.sha256(f"rc={rc}\n".encode())
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _call_outcome(result) -> list:
    if hasattr(result, "terms_used"):
        return [result.value, result.terms_used, result.remainder_bound,
                result.status.value]
    return [result]


class Runner:
    """Runs the units of one workload; ``cli`` and the library modules are
    looked up at call time so the tracer's wrappers take effect."""

    def __init__(self, units, out_dir):
        from rlpower import cli, domain, hypergeom, series
        self.cli, self.domain = cli, domain
        self.modules = {name: series for name in workloads.SERIES_FUNCTIONS}
        self.modules.update({name: hypergeom for name in workloads.HYP_FUNCTIONS})
        self.units = units
        self.out_paths = [os.path.join(out_dir, f"{u['name']}.out")
                          for u in units]

    def run_unit(self, i: int):
        """Run unit i; returns what the check needs: (rc, None) for a CLI
        job, or the list of call outcomes."""
        unit = self.units[i]
        if unit["kind"] == "cli":
            return self.cli.main(unit["argv"] + ["--out", self.out_paths[i]]), None
        outcomes = []
        domain = self.domain
        for call in unit["calls"]:
            fn = getattr(self.modules[call["fn"]], call["fn"])
            try:
                pf = domain.power_function(call["d"], _beta(domain, call["beta"]))
                win = domain.make_window(call["a"], pf)
                outcomes.append(_call_outcome(fn(pf, win, call["alpha"],
                                                 call["t"])))
            except Exception as exc:  # any exception is a checked outcome
                outcomes.append({"error": type(exc).__name__,
                                 "message": str(exc),
                                 "rlpower_error": _is_rlpower_error(exc)})
        return None, outcomes

    def digest(self, i: int, rc, outcomes) -> str:
        if outcomes is None:
            return _file_digest(self.out_paths[i], rc)
        return hashlib.sha256(repr(outcomes).encode()).hexdigest()


def _is_rlpower_error(exc) -> bool:
    from rlpower import RLPowerError
    return isinstance(exc, RLPowerError)


def _check_pass(runner: Runner) -> list[dict]:
    """One pass that keeps every record: run_job's records are captured on
    their way to the formatter, and the emitted text is read back."""
    cli = runner.cli
    captured = []
    original = cli.run_job

    def capturing_run_job(job):
        records = original(job)
        captured.append([[r.op, r.alpha, r.beta, r.d, r.a, r.t, r.route,
                          r.value, r.terms, r.remainder, r.status]
                         for r in records])
        return records

    cli.run_job = capturing_run_job
    results = []
    try:
        for i, unit in enumerate(runner.units):
            captured.clear()
            rc, outcomes = runner.run_unit(i)
            entry = {"name": unit["name"],
                     "digest": runner.digest(i, rc, outcomes)}
            if outcomes is None:
                with open(runner.out_paths[i], encoding="utf-8") as fh:
                    entry["output"] = fh.read()
                entry["rc"] = rc
                entry["records"] = captured[0] if captured else []
            else:
                entry["outcomes"] = outcomes
            results.append(entry)
    finally:
        cli.run_job = original
    return results


def _timed_passes(runner: Runner, seconds: float, tracer=None, span_path=None):
    passes, calibration, digests, layers = [], [], [], []
    spent = 0.0
    clock = time.perf_counter
    cal, cal_at = 0.0, -CALIBRATE_EVERY_S
    while spent < seconds or len(passes) < MIN_PASSES:
        times, cals, pass_digests = [], [], []
        for i in range(len(runner.units)):
            # every unit is timed next to a calibration sample at most
            # CALIBRATE_EVERY_S old, so its time can be put at a fixed speed
            if clock() - cal_at >= CALIBRATE_EVERY_S:
                cal, cal_at = calibration_sample(), clock()
            cals.append(cal)
            start = clock()
            rc, outcomes = runner.run_unit(i)
            times.append(clock() - start)
            pass_digests.append(runner.digest(i, rc, outcomes))
            del outcomes
        spent += sum(times)
        passes.append(times)
        calibration.append(cals)
        digests.append(pass_digests)
        if tracer is not None:
            if span_path and len(layers) == 0:
                tracer.dump(span_path)
            layers.append(tracer.reduce_pass())
            tracer.reset()
    return passes, calibration, digests, layers


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[1])
    import rlpower
    if rlpower.backend_name() != cfg["backend"]:
        print(f"child: backend is {rlpower.backend_name()!r}, expected "
              f"{cfg['backend']!r}; refusing to time the wrong backend",
              file=sys.stderr)
        return 3
    units = workloads.generate(cfg["workload"], cfg["seed"])
    os.makedirs(cfg["out_dir"], exist_ok=True)
    runner = Runner(units, cfg["out_dir"])
    result = {"backend": cfg["backend"], "mode": cfg["mode"]}
    if cfg["mode"] == "check":
        result["units"] = _check_pass(runner)
    else:
        tracer = None
        if cfg["mode"] == "trace":
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        passes, calibration, digests, layers = _timed_passes(
            runner, cfg["seconds"], tracer, cfg.get("span_path"))
        result.update(passes=passes, calibration=calibration, digests=digests,
                      layers=layers)
    result["peak_rss_kb"] = peak_rss_kb()
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
