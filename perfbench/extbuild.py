"""Build the compiled kernel backend from the shipped C file, outside src/.

``src/rlpower/_kernels_cy.c`` is compiled with the system C compiler and the
interpreter's own flags into ``perfbench/_build/ext/<sha>/``, keyed by the
sha256 of the C file and the interpreter, so a run rebuilds only when the
source changed.  The package is then mirrored into ``perfbench/_build/pkg``
with the extension beside it; both backends import rlpower from there, the
pure-Python one with ``RLPOWER_PURE_PYTHON=1``.  Nothing under ``src/`` is
written.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

EXT_NAME = "_kernels_cy"
BUILD_TIMEOUT_S = 600


class BuildError(RuntimeError):
    """The package sources are missing or the extension did not compile."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _compile_command(c_file: Path, out: Path) -> list[str]:
    cfg = sysconfig.get_config_var
    cmd = [cfg("CC") or "cc"]
    cmd += (cfg("CFLAGS") or "").split() + (cfg("CCSHARED") or "").split()
    cmd += ["-shared", f"-I{sysconfig.get_paths()['include']}",
            str(c_file), "-o", str(out)]
    return cmd


def _build_extension(c_file: Path, ext_root: Path) -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    key = hashlib.sha256((sha256_file(c_file) + sys.version).encode()).hexdigest()
    target = ext_root / key[:16] / (EXT_NAME + suffix)
    if target.is_file():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(target.name + ".partial")
    proc = subprocess.run(_compile_command(c_file, partial), capture_output=True,
                          text=True, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BuildError(f"compiling {c_file} failed:\n{proc.stderr[-4000:]}")
    os.replace(partial, target)
    return target


def _mirror(src_pkg: Path, dst_pkg: Path, extension: Path) -> None:
    # a fresh copy each run: nothing stale survives, and the first import in
    # each run (not timed) writes the bytecode cache
    shutil.rmtree(dst_pkg, ignore_errors=True)
    shutil.copytree(src_pkg, dst_pkg, ignore=shutil.ignore_patterns(
        "__pycache__", "*.so", "*.c", "*.pyx"))
    shutil.copy2(extension, dst_pkg / extension.name)


def prepare(root: Path, build_dir: Path) -> dict:
    """Build (or reuse) the extension and mirror the package; returns the
    import path for the children and the hashes of the kernel sources."""
    src_pkg = root / "src" / "rlpower"
    c_file = src_pkg / (EXT_NAME + ".c")
    pyx_file = src_pkg / (EXT_NAME + ".pyx")
    for needed in (src_pkg / "__init__.py", c_file, pyx_file):
        if not needed.is_file():
            raise BuildError(f"{needed} is missing; run from a checkout of the "
                             "repository root")
    extension = _build_extension(c_file, build_dir / "ext")
    pkg_root = build_dir / "pkg"
    _mirror(src_pkg, pkg_root / "rlpower", extension)
    return {"pythonpath": str(pkg_root),
            "kernels_c_sha256": sha256_file(c_file),
            "kernels_pyx_sha256": sha256_file(pyx_file)}
