"""The package's name lists: ``__all__`` against what ``__init__`` imports
and what the README documents, no module-level definition without a caller
in the package, and the kernels that the route modules call."""

from __future__ import annotations

import ast
import inspect
import subprocess
import sys
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
    assert unused == set()


# the modules that run the routes, and what they may take from the kernel
# backend: the 2F1 loop, the pole test and the status codes
ROUTE_MODULES = ("series", "hypergeom", "cli", "oracle", "domain")
ROUTE_KERNELS = {"nonpos_int_index", "hyp2f1_series",
                 "STATUS_CONVERGED", "STATUS_TRUNCATED", "STATUS_DIVERGED",
                 "STATUS_PARAM_POLE", "STATUS_ARG_OUT"}


def test_routes_call_only_the_route_kernels():
    # every kernels.<name> the route modules name, and no import from a
    # kernel module itself
    package = Path(rlpower.__file__).parent
    named, imported = set(), set()
    for module in ROUTE_MODULES:
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "kernels"):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                sources = {node.module} | {alias.name for alias in node.names}
                imported |= {(module, name) for name in sources
                             & {"_kernels_py", "_kernels_cy"}}
    assert named == ROUTE_KERNELS
    assert imported == set()


def test_import_loads_no_dataclasses_or_inspect():
    # the records are NamedTuples: importing the package and its CLI loads
    # neither dataclasses nor what it pulls in (inspect, ast, dis, tokenize)
    code = ("import sys, rlpower, rlpower.cli; "
            "sys.exit(bool({'dataclasses', 'inspect'} & set(sys.modules)))")
    # without the site module, whose .pth files may import anything
    env = {"PATH": "/usr/bin:/bin",
           "PYTHONPATH": str(Path(rlpower.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env)
    assert proc.returncode == 0
