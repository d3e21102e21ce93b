"""Shared fixtures: the cross-route evaluation grid, comparison helpers and
the compiled kernel backend."""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import math
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import NamedTuple

import pytest

import rlpower as rl
from rlpower import hypergeom, series
from rlpower.domain import EvalWindow, IntegerExp, PowerFunction


def rel_err(x: float, ref: float) -> float:
    """|x - ref| scaled by max(1, |ref|); the agreement metric used throughout."""
    return abs(x - ref) / max(1.0, abs(ref))


class GridCase(NamedTuple):
    pf: PowerFunction
    win: EvalWindow
    a: float
    alpha: float
    t: float
    frac: float   # position inside the window, 0 < frac < 1


_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
_FRACS = (0.35, 0.75, 0.9)

# (beta, allowed below the shift)
_BETAS = (
    (rl.beta_int(-3), True),
    (rl.beta_int(-2), True),
    (rl.beta_int(-1), True),
    (rl.beta_int(0), True),
    (rl.beta_int(2), True),
    (rl.beta_int(3), True),
    (rl.beta_rational(1, 2), False),
    (rl.beta_rational(3, 2), False),
    (rl.beta_rational(-1, 2), False),
    (rl.beta_rational(2, 3), True),
    (rl.beta_rational(-5, 3), False),
    (rl.beta_real(math.sqrt(2.0)), False),
    (rl.beta_real(-1.5), False),
    (rl.beta_real(math.pi), False),
    (rl.beta_real(-0.8), False),
)

# (d, a) placements: two above the shift, one below
_ABOVE = ((0.0, 1.0), (0.5, 2.5))
_BELOW = ((2.0, 1.0),)


def build_grid() -> list[GridCase]:
    cases = []
    for beta, below_ok in _BETAS:
        placements = list(_ABOVE) + (list(_BELOW) if below_ok else [])
        for d, a in placements:
            pf = rl.power_function(d, beta)
            win = rl.make_window(a, pf)
            width = win.t_sup - win.a
            for alpha in _ALPHAS:
                for frac in _FRACS:
                    t = a + frac * width
                    cases.append(GridCase(pf, win, a, alpha, t, frac))
    return cases


@pytest.fixture(scope="session")
def grid() -> list[GridCase]:
    cases = build_grid()
    assert len(cases) >= 500
    return cases


@pytest.fixture(scope="session")
def oracle_values(grid) -> list[float]:
    """Definition-level integral value for every grid tuple, computed once."""
    return [rl.quad_rlfi(c.pf, c.a, c.alpha, c.t).value for c in grid]


def nonterminating(case: GridCase) -> bool:
    """True when the integral series of this tuple is genuinely infinite."""
    beta = case.pf.beta
    return not (isinstance(beta, IntegerExp) and beta.m >= 0)


@pytest.fixture(scope="session")
def deep_window_idx(grid) -> list[int]:
    """Indices of non-terminating tuples at the deepest grid position
    (frac 0.9), where the tail bound stays far above oracle noise out to
    p = 50; terminating polynomials have a zero tail and nothing to bound."""
    picked = [i for i, c in enumerate(grid)
              if c.frac == 0.9 and nonterminating(c)]
    assert len(picked) >= 100
    return picked[:100]


# the package's modules that call the kernel backend
KERNEL_MODULES = (series, hypergeom)


def use_kernels(monkeypatch, kernels) -> None:
    """Run the package on the kernel module `kernels` for one test."""
    for module in KERNEL_MODULES:
        monkeypatch.setattr(module, "kernels", kernels)


_KERNELS_C = Path(rl.__file__).with_name("_kernels_cy.c")


@pytest.fixture(scope="session")
def compiled_kernels(pytestconfig, tmp_path_factory):
    """The compiled kernel module: the installed one, or the shipped
    ``_kernels_cy.c`` built with the interpreter's compiler and flags.  The
    build is kept in pytest's cache, under the sha256 of the C file, the
    interpreter version and the compile command, or made in a temporary
    directory when the cache plugin is off.  Skips when neither a module nor
    a compiler is available."""
    try:
        return importlib.import_module("rlpower._kernels_cy")
    except ImportError:
        pass
    cfg = sysconfig.get_config_var
    cc = shlex.split(cfg("CC") or "cc")
    if not _KERNELS_C.is_file() or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler or no shipped _kernels_cy.c")
    cmd = cc + shlex.split(cfg("CFLAGS") or "") + shlex.split(cfg("CCSHARED") or "") \
        + ["-shared", f"-I{sysconfig.get_paths()['include']}"]
    key = hashlib.sha256(b"\0".join(
        [_KERNELS_C.read_bytes(), sys.version.encode(), shlex.join(cmd).encode()]
    )).hexdigest()[:16]
    cache = getattr(pytestconfig, "cache", None)
    folder = cache.mkdir("rlpower_kernels") if cache is not None \
        else tmp_path_factory.mktemp("kernels")
    target = folder / f"_kernels_cy-{key}{cfg('EXT_SUFFIX')}"
    if not target.is_file():
        partial = target.with_name(f"{target.name}.{os.getpid()}.partial")
        proc = subprocess.run(cmd + [str(_KERNELS_C), "-o", str(partial)],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            partial.unlink(missing_ok=True)
            pytest.skip(f"compiling _kernels_cy.c failed: {proc.stderr[-2000:]}")
        # a build cut short leaves no file under the name that is loaded
        os.replace(partial, target)
    spec = importlib.util.spec_from_file_location("rlpower._kernels_cy", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
