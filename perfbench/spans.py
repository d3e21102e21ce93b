"""Spans around rlpower's public entry points, for the traced run.

Every wrapped call records a span: its name, start, end, parent span, one
number taken from its result (terms, records) and whether it raised.  Spans
of one pass are kept in flat arrays in memory, reduced to the per-layer
metrics when the pass ends and then dropped; the spans of the first pass are
written out whole.  A layer's self time is its spans' durations minus the
durations of their child spans.

Wrapping happens from outside: the wrappers replace module attributes (and
``PowerFunction.value`` on its class), so every caller that looks the name
up at call time is traced and no program file changes.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import defaultdict

# per-layer metrics: name -> unit, in the order they are reported
LAYER_METRICS = {
    "cli.parse_s": "s",
    "cli.evaluate_s": "s",
    "cli.format_s": "s",
    "cli.records": "count",
    "domain.make_window_calls": "count",
    "domain.make_window_s": "s",
    "domain.branch_power_calls": "count",
    "series.calls": "count",
    "series.self_s": "s",
    "series.terms": "count",
    "hypergeom.calls": "count",
    "hypergeom.self_s": "s",
    "hypergeom.terms": "count",
    "hypergeom.raised": "count",
    "kernels.power_series_s": "s",
    "kernels.power_series_ns_per_term": "ns",
    "kernels.hyp2f1_s": "s",
    "kernels.hyp2f1_ns_per_term": "ns",
    "kernels.gamma_calls": "count",
    "oracle.calls": "count",
    "oracle.s": "s",
    "oracle.integrand_evals": "count",
}

# counts that must repeat exactly between passes, runs and backends
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS.items()
                     if unit == "count")


def _no_extra(result):
    return 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._layer_of: dict[int, str] = {}
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans (between passes, with no span open)."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("d")
        self.raised = array("b")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self._layer_of[self._ids[name]] = name.split(".", 1)[0]
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, extra=_no_extra, nested_passthrough=False):
        """A wrapper of fn that records a span named ``name``.

        With ``nested_passthrough`` a call made while a span of the same
        layer is open runs unrecorded: the pure-Python kernels call each
        other through module globals, the compiled ones do not, and only
        calls from the Python layer above are comparable between the two.
        """
        nid = self._id(name)
        layer = self._layer_of[nid]
        layer_of = self._layer_of
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if nested_passthrough and stack and \
                    layer_of[self.name_id[stack[-1]]] == layer:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.extra.append(0.0)
            self.raised.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = clock()
                self.raised[idx] = 1
                stack.pop()
                raise
            self.end[idx] = clock()
            stack.pop()
            self.extra[idx] = extra(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def reduce_pass(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last call."""
        names = self.names
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_sum = [0.0] * n
        first_child_start: dict[int, float] = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_sum[p] += dur[i]
                first_child_start.setdefault(p, self.start[i])
        m = defaultdict(float)
        kernel_terms = defaultdict(float)
        for i in range(n):
            name = names[self.name_id[i]]
            layer = name.split(".", 1)[0]
            p = self.parent[i]
            parent_name = names[self.name_id[p]] if p >= 0 else ""
            entry = not parent_name.startswith(layer + ".")
            if name == "cli.main":
                m["cli.parse_s"] += first_child_start.get(i, self.end[i]) \
                    - self.start[i]
            elif name in ("cli.cmd_eval", "cli.cmd_compare"):
                m["cli.format_s"] += dur[i]
            elif name == "cli.run_job":
                m["cli.evaluate_s"] += dur[i]
                m["cli.format_s"] -= dur[i]
                m["cli.records"] += self.extra[i]
            elif name == "domain.make_window":
                m["domain.make_window_calls"] += 1
                m["domain.make_window_s"] += dur[i]
            elif name == "domain.branch_power":
                m["domain.branch_power_calls"] += 1
            elif name == "domain.PowerFunction.value":
                if parent_name.startswith("oracle."):
                    m["oracle.integrand_evals"] += 1
            elif layer in ("series", "hypergeom"):
                m[f"{layer}.self_s"] += dur[i] - child_sum[i]
                m[f"{layer}.calls"] += entry
                if layer == "series":
                    m["series.terms"] += self.extra[i]
                elif entry and self.raised[i]:
                    m["hypergeom.raised"] += 1
            elif layer == "oracle" and entry:
                m["oracle.calls"] += 1
                m["oracle.s"] += dur[i]
            elif name == "kernels.power_series":
                m["kernels.power_series_s"] += dur[i]
                kernel_terms["power_series"] += self.extra[i]
            elif name == "kernels.hyp2f1_series":
                m["kernels.hyp2f1_s"] += dur[i]
                m["hypergeom.terms"] += self.extra[i]
                kernel_terms["hyp2f1"] += self.extra[i]
            elif name == "kernels.gamma_value":
                m["kernels.gamma_calls"] += 1
        for kernel in ("power_series", "hyp2f1"):
            terms = kernel_terms[kernel]
            m[f"kernels.{kernel}_ns_per_term"] = \
                1e9 * m[f"kernels.{kernel}_s"] / terms if terms else 0.0
        return {name: m[name] for name in LAYER_METRICS}

    def dump(self, path) -> None:
        """Write the spans recorded since the last reset, one JSON per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name_id[i]],
                    "parent": self.parent[i], "start": self.start[i],
                    "end": self.end[i], "extra": self.extra[i],
                    "raised": bool(self.raised[i])}) + "\n")


def _terms_of_series(result) -> float:
    return float(getattr(result, "terms_used", 0))


def _len(result) -> float:
    return float(len(result))


def _kernel_terms(result) -> float:
    # power_series/neg_int_series -> (value, terms, bound, status);
    # hyp2f1_series -> (value, terms, status)
    return float(result[1]) if isinstance(result, tuple) else 0.0


def _replace_everywhere(modules, original, wrapper) -> None:
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, attr, wrapper)


def _public_functions(mod):
    return [(name, obj) for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not name.startswith("_")]


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of the imported rlpower."""
    import rlpower
    from rlpower import _backend, cli, domain, hypergeom, oracle, series

    modules = (rlpower, cli, domain, hypergeom, oracle, series)
    kernels = _backend.kernels
    for name in dir(kernels):
        obj = getattr(kernels, name)
        if name.startswith("_") or not callable(obj) or isinstance(obj, type) \
                or inspect.ismodule(obj):
            continue
        setattr(kernels, name, tracer.wrap(f"kernels.{name}", obj,
                                           _kernel_terms,
                                           nested_passthrough=True))
    for mod, layer, extra in ((series, "series", _terms_of_series),
                              (hypergeom, "hypergeom", _no_extra),
                              (oracle, "oracle", _no_extra)):
        for name, fn in _public_functions(mod):
            _replace_everywhere(modules, fn,
                                tracer.wrap(f"{layer}.{name}", fn, extra))
    _replace_everywhere(modules, domain.make_window,
                        tracer.wrap("domain.make_window", domain.make_window))
    branch = tracer.wrap("domain.branch_power", domain.branch_power)
    _replace_everywhere((series, hypergeom), domain.branch_power, branch)
    domain.PowerFunction.value = tracer.wrap("domain.PowerFunction.value",
                                             domain.PowerFunction.value)
    for name, extra in (("main", _no_extra), ("cmd_eval", _no_extra),
                        ("cmd_compare", _no_extra), ("run_job", _len)):
        fn = getattr(cli, name)
        setattr(cli, name, tracer.wrap(f"cli.{name}", fn, extra))
