"""Compiled and pure-Python kernels must agree on a shared workload.

``cy`` is the compiled module, built from the shipped C file by the
``compiled_kernels`` fixture when it is not installed.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlpower import _kernels_py


@pytest.fixture
def cy(compiled_kernels):
    return compiled_kernels


def test_kernel_sources_change_together():
    # _kernels_cy.c is generated from _kernels_cy.pyx (Cython 3.2.8) and
    # shipped; a change to either file must come with the other and a new pair
    pkg = Path(_kernels_py.__file__).parent
    digests = {name: hashlib.sha256((pkg / name).read_bytes()).hexdigest()
               for name in ("_kernels_cy.pyx", "_kernels_cy.c")}
    assert digests == {
        "_kernels_cy.pyx":
            "58589d94f8d320ffd848be372a5f4106ca0a388da1f5f18b3f571204beb58bd2",
        "_kernels_cy.c":
            "2c8d77823388f84d1d141700c9da47a5f03c3dbc590ea6ccc7efdb680a6279bf",
    }


def _close(x, y, rel=5e-13):
    if math.isnan(x) and math.isnan(y):
        return True
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _bits(x: float) -> str:
    # a float's exact value, sign of zero included; every NaN is one value
    return "nan" if math.isnan(x) else x.hex()


def test_backend_selected():
    import rlpower
    assert rlpower.backend_name() in ("compiled", "pure-python")


def test_gamma_values_match(cy):
    z = -40.123
    while z < 50.0:
        if abs(z - round(z)) > 1e-6:
            assert _close(_kernels_py.gamma_value(z), cy.gamma_value(z))
        z += 0.613


def test_sinpi_and_pole_index_match(cy):
    for x in (-7.0, -6.5, -1e-13, 0.0, 0.3, 12.0, 1234.25):
        assert _kernels_py.sinpi(x) == pytest.approx(cy.sinpi(x), abs=1e-15)
        assert _kernels_py.nonpos_int_index(x) == cy.nonpos_int_index(x)


def test_power_series_matches(cy):
    for beta, is_int in ((-2.5, 0), (0.5, 0), (3.0, 1), (-2.0, 1)):
        for sa in (0.3, -0.3, 0.9, -0.9):
            for u in (0.2, 0.6, 0.85):
                py = _kernels_py.power_series(1.0, beta, 1.0, u, sa, is_int,
                                              1e-10, 10000)
                cc = cy.power_series(1.0, beta, 1.0, u, sa, is_int,
                                     1e-10, 10000)
                # the bound goes through each twin's own lgamma
                assert _bits(py[0]) == _bits(cc[0])
                assert py[1] == cc[1]
                assert _close(py[2], cc[2])
                assert py[3] == cc[3]


def test_neg_int_series_matches(cy):
    for m in (1, 2, 3):
        for sa in (0.5, -0.5):
            py = _kernels_py.neg_int_series(m, 1.0, 0.7, sa, 1e-10, 10000)
            cc = cy.neg_int_series(m, 1.0, 0.7, sa, 1e-10, 10000)
            assert _close(py[0], cc[0])
            assert py[1] == cc[1]


def _gauss_parameter(rng: random.Random) -> float:
    # real, a non-positive integer, within 1e-12 of one, or large (whose
    # terms can pass the kernel's divergence threshold)
    kind, n = rng.random(), float(-rng.randint(0, 30))
    if kind < 0.2:
        return n
    if kind < 0.35:
        return n + rng.uniform(-1e-12, 1e-12)
    return rng.uniform(-30.0, 30.0) if kind < 0.9 else rng.uniform(-400.0, 400.0)


@st.composite
def _gauss_calls(draw):
    # hyp2f1_series's arguments, from a drawn seed: hypothesis's own bounded
    # floats are mostly 0, tiny or end values, which leave the loop at once
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    a, b, c = (_gauss_parameter(rng) for _ in range(3))
    # (-3, 3), the Pfaff arguments (0, 1/2), or next to +-1
    x = rng.choice((rng.uniform(-3.0, 3.0), rng.uniform(0.0, 0.5),
                    rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** rng.uniform(-4.0, -1.0))))
    return a, b, c, x, 10.0 ** rng.uniform(-16.0, -8.0), rng.choice((5, 50, 20000))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(call=_gauss_calls())
@example(call=(-3.0, 0.7, 1.3, -0.8, 1e-14, 20000))
@example(call=(-3.0, 0.7, 1.3, 0.3, 1e-14, 20000))
@example(call=(-3.0, 0.7, 1.3, 0.8, 1e-14, 20000))
@example(call=(0.4, 0.7, 1.3, -0.8, 1e-14, 20000))
@example(call=(0.4, 0.7, 1.3, 0.3, 1e-14, 20000))
@example(call=(0.4, 0.7, 1.3, 0.8, 1e-14, 20000))
@example(call=(2.2, 0.7, 1.3, -0.8, 1e-14, 20000))
@example(call=(2.2, 0.7, 1.3, 0.3, 1e-14, 20000))
@example(call=(2.2, 0.7, 1.3, 0.8, 1e-14, 20000))
# terms past the divergence threshold, on each of the two loops
@example(call=(400.0, 400.0, 0.5, 0.99, 1e-14, 20000))
@example(call=(-300.0, 250.0, 1.5, 2.5, 1e-14, 20000))
def test_hyp2f1_series_matches(compiled_kernels, call):
    # the pure twin's loops differ from the compiled one's, not their
    # floating-point operations: value, terms and status are the same
    py = _kernels_py.hyp2f1_series(*call)
    cc = compiled_kernels.hyp2f1_series(*call)
    assert (_bits(py[0]), py[1], py[2]) == (_bits(cc[0]), cc[1], cc[2])


def test_hyp_forms_match_at_window_edge(monkeypatch, cy):
    # fraction 0.999 above the shift, where hyp2f1 takes the Pfaff branch
    import rlpower as rl
    from rlpower import hypergeom
    cases = []
    for beta in (rl.beta_real(-9.7), rl.beta_int(-3), rl.beta_rational(1, 2),
                 rl.beta_real(-0.3), rl.beta_real(7.3)):
        pf = rl.power_function(0.0, beta)
        win = rl.make_window(1.0, pf)
        for alpha in (0.05, 0.5, 0.95, 1.0):
            cases.append((pf, win, alpha))
    values = {}
    for backend in (_kernels_py, cy):
        monkeypatch.setattr(hypergeom, "kernels", backend)
        values[backend] = [fn(pf, win, alpha, 1.999)
                           for pf, win, alpha in cases
                           for fn in (rl.rlfi_hyp_form, rl.rlfd_hyp_form)]
    assert ([_bits(v) for v in values[_kernels_py]]
            == [_bits(v) for v in values[cy]])


def test_tail_bound_matches(cy):
    for beta, is_int in ((-1.5, 0), (2.5, 0), (-2.0, 1), (3.0, 1)):
        for p in (1, 2, 5, 20):
            for A in (1.0, -1.0):
                py = _kernels_py.series_tail_bound(beta, is_int, A, 0.4, 0.5, p)
                cc = cy.series_tail_bound(beta, is_int, A, 0.4, 0.5, p)
                assert _close(py, cc)


def test_forced_pure_python_env(tmp_path):
    import subprocess
    import sys

    import rlpower
    code = ("import rlpower, sys; "
            "sys.exit(0 if rlpower.backend_name() == 'pure-python' else 1)")
    # the directory this rlpower was imported from, so the child imports the
    # same package whatever its cwd and however the parent found it
    env = {"RLPOWER_PURE_PYTHON": "1", "PATH": "/usr/bin:/bin",
           "PYTHONPATH": str(Path(rlpower.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=str(tmp_path))
    assert proc.returncode == 0
