"""The package's name lists: ``__all__`` against what ``__init__`` imports
and what the README documents."""

from __future__ import annotations

import inspect
import types
from pathlib import Path

import rlpower

# the README's "Library use" names, and every error those entries raise
PUBLIC = [
    "ArgOutOfDisk",
    "BetaOutOfRange",
    "CenteredNotAnalytic",
    "EvalAtLowerLimit",
    "HypNotConverged",
    "LowerLimitOutsideDomain",
    "OrderOutOfRange",
    "ParamPole",
    "PoleInsideInterval",
    "QuadEstimate",
    "RLPowerError",
    "SeriesNotConverged",
    "SeriesResult",
    "SeriesStatus",
    "ToleranceNotMet",
    "ValueOverflow",
    "WindowViolation",
    "backend_name",
    "beta_int",
    "beta_rational",
    "beta_real",
    "closed_centered",
    "hyp2f1",
    "make_window",
    "power_function",
    "quad_rlfd",
    "quad_rlfi",
    "rlfd_hyp_form",
    "rlfd_series",
    "rlfi_hyp_form",
    "rlfi_series_displaced",
]


def test_all_lists_exactly_the_public_imports():
    names = rlpower.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(rlpower, name) for name in names)
    public = {name for name, obj in vars(rlpower).items()
              if not name.startswith("_")
              and not isinstance(obj, types.ModuleType)}
    assert set(names) == public


def test_all_is_the_documented_list():
    assert sorted(rlpower.__all__) == PUBLIC
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    assert [n for n in PUBLIC
            if f"`{n}`" not in section and f"{n}(" not in section] == []


def test_integral_and_derivative_entries_take_the_same_parameters():
    # the derivative is the integral at order -alpha, so every integral
    # entry has a derivative twin called with the same parameters
    rlfi = sorted(n for n in rlpower.__all__ if n.startswith("rlfi_"))
    rlfd = sorted(n for n in rlpower.__all__ if n.startswith("rlfd_"))
    twins = {n: "rlfd_" + n[len("rlfi_"):].removesuffix("_displaced")
             for n in rlfi}
    assert sorted(twins.values()) == rlfd
    twins["quad_rlfi"] = "quad_rlfd"

    def params(name):
        return list(inspect.signature(getattr(rlpower, name)).parameters.values())

    differ = [d for i, d in twins.items() if params(i) != params(d)]
    assert differ == []
