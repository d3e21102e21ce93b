"""Compiled and pure-Python kernels must agree on a shared workload.

``cy`` is the compiled module, built from the shipped C file by the
``compiled_kernels`` fixture when it is not installed.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
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


_EPS = 2.220446049250313e-16


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
    # NaN and the infinities are no pole on either twin
    for x in (math.nan, math.inf, -math.inf):
        assert _kernels_py.nonpos_int_index(x) == cy.nonpos_int_index(x) == -1


def test_power_series_matches(cy):
    # above the shift (A = 1), and below it (A = -1, where the window is half
    # of |A|) out to its edge, where the series route calls this kernel; and
    # edge-sweep's exponents and orders below the shift near its edge, where
    # the pure loop skips most tail bounds
    cells = [(1.0, u) for u in (0.2, 0.6, 0.85)]
    cells += [(-1.0, frac * 0.5) for frac in (0.5, 0.9, 0.99, 0.999)]
    calls = [(beta, is_int, sa, A, u)
             for beta, is_int in ((-2.5, 0), (0.5, 0), (3.0, 1), (-2.0, 1))
             for sa in (0.3, -0.3, 0.9, -0.9) for A, u in cells]
    calls += [(beta, is_int, sa, -1.0, frac * 0.5)
              for beta, is_int in ((-3.0, 1), (-1.0, 1), (2.0 / 3.0, 0),
                                   (4.0 / 3.0, 0))
              for sa in (0.25, -0.25, 0.5, -0.5, 0.75, -0.75)
              for frac in (0.9, 0.99, 0.999)]
    for beta, is_int, sa, A, u in calls:
        py = _kernels_py.power_series(1.0, beta, A, u, sa, is_int, 1e-10, 10000)
        cc = cy.power_series(1.0, beta, A, u, sa, is_int, 1e-10, 10000)
        # the bound goes through each twin's own lgamma; at the term cap it
        # is the exp of lgammas near lgamma(10 001), whose rounding each twin
        # does its own way: a few ulps of that
        assert _bits(py[0]) == _bits(cc[0])
        assert py[1] == cc[1]
        rel = 8 * _EPS * math.lgamma(10001.0) if py[1] == 10000 else 5e-13
        assert _close(py[2], cc[2], rel)
        assert py[3] == cc[3]


def _series_beta(rng: random.Random) -> float:
    # integer, rational, real, or within 1e-12 of an integer; up to 30 in
    # size, or up to 400
    kind, size = rng.random(), 400 if rng.random() < 0.2 else 30
    if kind < 0.25:
        return float(rng.randint(-size, size))
    if kind < 0.5:
        q = rng.randint(2, 9)
        return rng.randint(-size * q, size * q) / q
    if kind < 0.65:
        return rng.randint(-size, size) + rng.uniform(-1e-12, 1e-12)
    return rng.uniform(-size, size)


@st.composite
def _series_calls(draw):
    # power_series's arguments, from a drawn seed as in _gauss_calls; the
    # integer flag goes by value, as in series._beta_kernel_form
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    beta = _series_beta(rng)
    is_int = 1 if abs(beta - math.floor(beta + 0.5)) <= 1e-12 else 0
    A = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.0)
    # the window is |A| above the shift and half of it below
    window = -0.5 * A if A < 0.0 else A
    u = window * rng.choice((0.0, rng.uniform(0.0, 0.999), rng.uniform(0.9, 0.999),
                             0.999))
    sa = rng.choice((0.0, 1.0, -1.0, -1.0 + 1e-13, rng.uniform(-1.0, 1.0),
                     rng.uniform(-1.0, 1.0)))
    front = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    return (front, beta, A, u, sa, is_int, 10.0 ** rng.uniform(-16.0, -6.0),
            rng.choice((5, 50, 10000)))


def _outcome(fn, call):
    try:
        value, terms, bound, status = fn(*call)
    except Exception as exc:  # the exception's type is the outcome
        return type(exc)
    return _bits(value), terms, _bits(bound), status


# edge-sweep cells below the shift: 2/3 at 0.999 of the window and -1 at
# 0.99, two of the slowest; and -3 at 0.999, which runs to the term cap with
# the sum standing still from about term 115 on
_EDGE_2_3 = (1.0, 2.0 / 3.0, -1.0, 0.999 * 0.5, 0.5, 0, 1e-10, 10000)
_EDGE_MINUS_1 = (-1.0, -1.0, -1.0, 0.99 * 0.5, 0.75, 1, 1e-10, 10000)
_EDGE_MINUS_3_CAP = (-1.0, -3.0, -1.0, 0.999 * 0.5, 0.5, 1, 1e-10, 10000)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(call=_series_calls())
# the slowest edge-sweep cells: 2/3 and 4/3 below the shift at 0.999 of the
# window, and -1 and -3 at 0.99, where the tail bound grows before it falls
@example(call=_EDGE_2_3)
@example(call=(1.0, 4.0 / 3.0, -1.0, 0.999 * 0.5, -0.25, 0, 1e-10, 10000))
@example(call=_EDGE_MINUS_1)
@example(call=(-1.0, -3.0, -1.0, 0.99 * 0.5, -0.5, 1, 1e-10, 10000))
@example(call=(-1.0, -3.0, -1.0, 0.99 * 0.5, -0.75, 1, 1e-10, 10000))
# the term cap reached while the loop runs on the bound alone
@example(call=_EDGE_MINUS_3_CAP)
# tol 0, and tol 1e-320, where the bound reaches the subnormal range: every
# bound within the threshold is evaluated
@example(call=_EDGE_2_3[:6] + (0.0, 10000))
@example(call=_EDGE_2_3[:6] + (1e-320, 10000))
# front 0: every term and comp stay 0, so the sum never stands still
@example(call=(0.0,) + _EDGE_2_3[1:])
# above the shift at 0.999 of the window: bounds are skipped, but the terms
# fall by about 0.1% a step and the sum never stands still
@example(call=(1.0, 7.0 / 3.0, 2.0, 0.999 * 2.0, -0.6, 0, 1e-15, 10000))
# the term cap at the edge before the bound is near the tolerance
@example(call=_EDGE_2_3[:7] + (5,))
@example(call=_EDGE_2_3[:7] + (50,))
# the log-gamma jump: the cap just before, at and after the stop at term
# 2 119, and the cap inside a jump
@example(call=_EDGE_2_3[:7] + (2118,))
@example(call=_EDGE_2_3[:7] + (2119,))
@example(call=_EDGE_2_3[:7] + (2120,))
@example(call=_EDGE_MINUS_3_CAP[:7] + (5000,))
# a non-integer beta with beta + sa <= -1, where the jumped product is
# concave: it grows before it falls
@example(call=(1.0, -7.5, -1.0, 0.999 * 0.5, 0.9, 0, 1e-12, 3000))
# u just past the half-window below the shift, where the tail bound falls to
# a minimum near term 272 and grows again: it is within this tol only at
# terms 259-285, which a jump would cross, so the loop steps the product one
# term at a time
@example(call=(1.0, 2.0 / 3.0, -1.0, 0.502, 0.5, 0, 5.2e-6, 1000))
def test_power_series_matches_its_reference(call):
    # the pure kernel builds its tail bound once a call and evaluates it only
    # where it could stop the loop; the reference makes it afresh at every p
    # within the tolerance: the same value, terms, bound and status, bit for
    # bit, or the same exception
    assert (_outcome(_kernels_py.power_series, call)
            == _outcome(reference.power_series, call))


@st.composite
def _edge_calls(draw):
    # _series_calls' draws, or on about 60% of draws edge-sweep's kind of
    # cell: a small exponent below the shift at 0.9-0.9999 of the window,
    # where the loop runs on the bound alone; with term caps that land
    # inside the log-gamma jumps and tolerances down to 0
    front, beta, A, u, sa, is_int, tol, max_terms = draw(_series_calls())
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if rng.random() < 0.6:
        beta = rng.choice((float(rng.randint(-8, 2)), rng.randint(-24, 9) / 3,
                           rng.uniform(-8.0, 3.0)))
        is_int = 1 if beta == math.floor(beta) else 0
        A = -abs(A)
        u = -0.5 * A * (1.0 - 10.0 ** rng.uniform(-4.0, -1.0))
        sa = rng.uniform(-0.95, 0.95)
    tol = rng.choice((0.0, 1e-320, tol, tol, tol, tol))
    max_terms = rng.choice((5, 50, rng.randint(100, 10000),
                            rng.randint(100, 10000)))
    return front, beta, A, u, sa, is_int, tol, max_terms


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(call=_edge_calls())
def test_power_series_matches_its_reference_at_the_edge(call):
    assert (_outcome(_kernels_py.power_series, call)
            == _outcome(reference.power_series, call))


def _line_events(fn, *args):
    # the line events that fn's own frame takes in one call
    code, count = fn.__code__, 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    tracer = sys.gettrace()
    sys.settrace(calls)
    try:
        fn(*args)
    finally:
        sys.settrace(tracer)
    return count


def test_power_series_skips_the_bounds_that_cannot_stop_it(monkeypatch):
    # a few tail bounds a call, where the loop that evaluates one at every
    # term within the tolerance takes 2 098, 1 221 and 9 964; and a few
    # thousand line events, where stepping the bound's lower bound one term
    # at a time takes 12 123, 7 911 and 51 861
    for call in (_EDGE_2_3, _EDGE_MINUS_1, _EDGE_MINUS_3_CAP):
        assert _line_events(_kernels_py.power_series, *call) <= 4000
    evaluated = []

    class CountingBound(_kernels_py._TailBound):
        def __call__(self, p):
            evaluated.append(p)
            return super().__call__(p)

    monkeypatch.setattr(_kernels_py, "_TailBound", CountingBound)
    for call in (_EDGE_2_3, _EDGE_MINUS_1, _EDGE_MINUS_3_CAP):
        evaluated.clear()
        _kernels_py.power_series(*call)
        assert 1 <= len(evaluated) <= 10


# (beta, beta_is_int, A, u, sa): each branch of the tail bound over p = 0..60
_TAIL_BRANCHES = (
    (2.5, 0, -1.0, 0.3, -0.4),             # p = 0 with sa < 0
    (2.5, 0, 1.0, 0.3, -1.0 + 1e-13),      # sa within 1e-12 of -1: inf
    (4.0, 1, -1.0, 0.3, 0.5),              # m >= 0: 0 from p = m + 1 on
    (-3.0, 1, -1.0, 0.45, 0.5),            # m < 0 below the shift
    (-3.0, 1, 1.0, 0.9, -0.5),             # m < 0 above the shift
    (7.3, 0, -1.0, 0.45, 0.25),            # non-integer, p on both sides of
                                           # beta + 1
    (-2.5, 0, 1.0, 0.6, 0.75),             # non-integer above the shift
    (-400.0, 1, -0.02, 0.0099, 0.4415),    # exp past the float range: inf
    (300.5, 0, -1.0, 0.49, -0.5),          # lgamma(beta + 1) past exp's range
    (2.5, 0, -1.0, 0.0, 0.5),              # u = 0: 0
)

# Inputs where some part of the bound raises, or overflows, at some p but not
# at others; building its evaluator must not raise
_TAIL_FAULTS = (
    (2.5, 0, -1.0, 1.0, -0.5),             # t = d: log 0 past p = 1
    (3.0, 0, -1.0, 0.3, 0.5),              # zero sinpi(beta) past p = beta + 1
    (1e306, 1, -1.0, 0.3, 0.5),            # lgamma(m + 1) past the float range
    (-1e306, 1, -1.0, 0.3, 0.5),           # lgamma(m) past the float range
    (math.inf, 1, -1.0, 0.3, -0.5),        # m of an infinite beta
    (math.nan, 1, -1.0, 0.3, -0.5),        # m of a NaN beta
    (-3.0, 1, 0.0, 0.3, 0.5),              # a = d: log 0 of omega
)


def _tail_outcome(fn, p):
    try:
        return _bits(fn(p))
    except Exception as exc:  # the exception's type is the outcome
        return type(exc)


@pytest.mark.parametrize("args", _TAIL_BRANCHES + _TAIL_FAULTS)
def test_tail_bound_evaluator_is_the_bound_at_every_p(args):
    bound = _kernels_py._TailBound(*args)
    outcomes = [_tail_outcome(bound, p) for p in range(61)]
    assert outcomes == [
        _tail_outcome(lambda p: reference.series_tail_bound(*args, p), p)
        for p in range(61)]
    # the evaluator at a float p, as the series loop calls it
    assert [_tail_outcome(bound, float(p)) for p in range(61)] == outcomes


def test_tail_bound_step_is_a_lower_bound_on_its_ratio():
    # below the shift, in the two regimes that run long (beta = -m' < 0, and
    # beta not an integer past p = beta + 1), the step's ratio times the
    # bound at p - 1 never exceeds the bound at p, from p_lo to p = 2 000;
    # the certified skip and the log-gamma jump of power_series rest on it
    rng = random.Random(20261021)
    for _ in range(40):
        if rng.random() < 0.5:
            beta, is_int = float(rng.randint(-8, -1)), 1
        else:
            beta, is_int = rng.uniform(-8.0, 3.0), 0
        A = -(10.0 ** rng.uniform(-1.0, 1.0))
        u = -0.5 * A * (1.0 - 10.0 ** rng.uniform(-4.0, -0.3))
        sa = rng.uniform(-0.95, 0.95)
        tail = _kernels_py._TailBound(beta, is_int, A, u, sa)
        bounds = [tail(p) for p in range(2001)]
        b0, b1, c, p_lo = tail.step()
        assert p_lo <= max(beta + 2.0, 2.0 - sa)
        for p in range(math.ceil(p_lo), 2001):
            assert 0.0 < bounds[p - 1] < math.inf
            assert (bounds[p] >= bounds[p - 1] * (p + b0) / (p + b1) * c
                    * (1.0 - 1e-6)), (beta, is_int, A, u, sa, p)


def test_tail_bound_branches_are_reached():
    # the cells of _TAIL_BRANCHES reach the values their branches give
    at = {args: [reference.series_tail_bound(*args, p) for p in range(61)]
          for args in _TAIL_BRANCHES}
    assert 0.0 < at[_TAIL_BRANCHES[0]][0] < math.inf
    assert at[_TAIL_BRANCHES[1]][:2] == [math.inf, math.inf]
    assert at[_TAIL_BRANCHES[2]][4] > 0.0 and set(at[_TAIL_BRANCHES[2]][5:]) == {0.0}
    for args in _TAIL_BRANCHES[3:7]:
        assert all(0.0 < b < math.inf for b in at[args][2:])
    assert set(at[_TAIL_BRANCHES[7]]) == {math.inf}
    assert set(at[_TAIL_BRANCHES[9]]) == {0.0}


# the kernels that the compiled module exports and no route calls; their pure
# copies are in reference.py
_COMPILED_ONLY = {"gamma_sign", "series_tail_bound", "power_series_partial",
                  "neg_int_series"}


def test_compiled_module_exports_the_pure_twin(cy):
    # every public function of the pure twin has a compiled twin, and the
    # compiled module's other public callables are the four above
    pure = {name for name, obj in vars(_kernels_py).items()
            if inspect.isfunction(obj) and obj.__module__ == _kernels_py.__name__
            and not name.startswith("_")}
    compiled = {name for name in dir(cy)
                if not name.startswith("_") and callable(getattr(cy, name))}
    assert pure <= compiled
    assert compiled - pure == _COMPILED_ONLY

    def codes(module):
        return {name: getattr(module, name) for name in dir(module)
                if name.startswith("STATUS_")}
    assert codes(cy) == codes(_kernels_py)


def test_gamma_sign_matches_its_reference(cy):
    # z in (-1, 0), next to a pole -n from either side, or anywhere
    rng = random.Random(20261020)
    zs = []
    for _ in range(5000):
        kind = rng.random()
        if kind < 0.4:
            zs.append(rng.uniform(-1.0, 0.0))
        elif kind < 0.8:
            zs.append(-rng.randint(0, 60)
                      + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -1.0))
        else:
            zs.append(rng.uniform(-200.0, 200.0))
    assert [cy.gamma_sign(z) for z in zs] == [reference.gamma_sign(z) for z in zs]


def test_power_series_partial_matches_its_reference(cy):
    # u > 0 inside the window, sa at -1, 0, 1 or between, p up to 60: the
    # same partial sum bit for bit
    rng = random.Random(20261021)
    mismatched = []
    for _ in range(5000):
        beta = _series_beta(rng)
        A = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.0)
        window = -0.5 * A if A < 0.0 else A
        call = (rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0), beta, A,
                window * rng.choice((rng.uniform(1e-3, 0.999), 0.999)),
                rng.choice((-1.0, 0.0, 1.0, rng.uniform(-1.0, 1.0))),
                rng.randint(0, 60))
        if (_bits(cy.power_series_partial(*call))
                != _bits(reference.power_series_partial(*call))):
            mismatched.append(call)
    assert mismatched == []


def test_neg_int_series_matches(cy):
    for m in (1, 2, 3):
        for sa in (0.5, -0.5):
            py = reference.neg_int_series(m, 1.0, 0.7, sa, 1e-10, 10000)
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
                py = reference.series_tail_bound(beta, is_int, A, 0.4, 0.5, p)
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
