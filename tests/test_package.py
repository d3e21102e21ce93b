"""The package's name lists: ``__all__`` against what ``__init__`` imports
and what the README documents, and no module-level definition without a
caller in the package."""

from __future__ import annotations

import ast
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


# kept in step with their compiled twins in _kernels_cy.pyx, which only the
# tests call; the pure series loops call series_tail_bound's per-call
# evaluator, so only the tests call the pure series_tail_bound itself
UNREFERENCED_KERNELS = {("_kernels_py", "power_series_partial"),
                        ("_kernels_py", "neg_int_series"),
                        ("_kernels_py", "series_tail_bound")}


def test_every_module_level_definition_is_referenced_in_the_package():
    # a function or class counts as used when a statement of the package
    # other than its own definition names it: a name, an attribute or an
    # import
    package = Path(rlpower.__file__).parent
    defined, uses = {}, []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[(path.stem, node.name)] = node
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    names.add(sub.name)
            uses.append((node, names))
    unused = {key for key, node in defined.items()
              if not any(key[1] in names for other, names in uses
                         if other is not node)}
    assert unused == UNREFERENCED_KERNELS
