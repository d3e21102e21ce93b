"""Every failure is a typed RLPowerError: overflowing powers, orders outside
[0, 1], and a property over finite inputs on both kernel backends."""

from __future__ import annotations

import contextlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rlpower as rl
from rlpower import _kernels_py, oracle
from rlpower.cli import main
from rlpower.domain import branch_power

from conftest import KERNEL_MODULES


@contextlib.contextmanager
def _backend(kernels):
    """Run the routes on the given kernel module."""
    saved = [(mod, mod.kernels) for mod in KERNEL_MODULES]
    for mod, _ in saved:
        mod.kernels = kernels
    try:
        yield
    finally:
        for mod, original in saved:
            mod.kernels = original


# --- powers beyond the float range -----------------------------------------

@pytest.mark.parametrize("argv", [
    "eval --op J --alpha 0.5 --beta-int 2 --d 0 --a 1 --t 1e200 --route oracle",
    "eval --op J --alpha 0.5 --beta-int 3 --d 0 --a 1e120 --t 1e120 --route series",
])
def test_cli_overflow_exits_one_with_error_line(argv, capsys):
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueOverflow: ")
    assert "Traceback" not in err


# (t-a)**(-alpha) at a subnormal t - a, above the shift (d = -1) and below
# it (d = 1), with a = 0
_SUBNORMAL_ARGV = ("eval --op D --alpha 0.99 --beta-int -1 --d {d} --a 0 "
                   "--t 5e-324 --route {route}")


@pytest.mark.parametrize("route", ["hyp", "series"])
@pytest.mark.parametrize("d", ["-1", "1"])
def test_cli_subnormal_offset_overflow_is_one_error_line(route, d, capsys):
    assert main(_SUBNORMAL_ARGV.format(d=d, route=route).split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ValueOverflow: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("d", [-1.0, 1.0])
def test_subnormal_offset_overflow_is_typed_on_both_backends(d, compiled_kernels):
    pf = rl.power_function(d, rl.beta_int(-1))
    win = rl.make_window(0.0, pf)
    for kernels in (_kernels_py, compiled_kernels):
        for entry in (rl.rlfd_series, rl.rlfd_hyp_form):
            with _backend(kernels), pytest.raises(rl.ValueOverflow):
                entry(pf, win, 0.99, 5e-324)


def test_branch_power_overflow_is_typed():
    for x, beta in ((1e200, rl.beta_int(2)), (1e-200, rl.beta_int(-2)),
                    (-1e200, rl.beta_rational(5, 3)), (1e300, rl.beta_real(1.5))):
        with pytest.raises(rl.ValueOverflow) as exc:
            branch_power(x, beta)
        assert isinstance(exc.value, OverflowError)


def test_closed_centered_overflow_is_typed():
    pf = rl.power_function(1.0, rl.beta_int(400))
    with pytest.raises(rl.ValueOverflow):
        rl.closed_centered(pf, 0.035, 999001.0)
    # each factor finite, the product not: 300 * 10.6**299
    pf300 = rl.power_function(0.0, rl.beta_int(300))
    with pytest.raises(rl.ValueOverflow):
        rl.closed_centered(pf300, -1.0, 10.6)
    with pytest.raises(OverflowError):
        rl.rlfi_series_displaced(pf, rl.make_window(1.0, pf), 0.035, 999001.0)


def test_pure_tail_bound_is_inf_past_float_range(compiled_kernels):
    # beta = -400 below the shift: the bound after 1000 terms is far beyond
    # the float range; C's exp gives inf, and the pure twin must too
    args = (-400.0, 1, -2.0, 0.9916282032320572, 0.4415)
    for bound in (_kernels_py._TailBound(*args)(1000),
                  compiled_kernels.series_tail_bound(*args, 1000)):
        assert bound == math.inf
    pf = rl.power_function(0.03164480437265205, rl.beta_int(-400))
    win = rl.make_window(-1.968355195627348, pf)
    for kernels in (_kernels_py, compiled_kernels):
        with _backend(kernels), pytest.raises(rl.SeriesNotConverged):
            rl.rlfi_series_displaced(pf, win, 0.4415, -0.9767269923952907)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_hyp2f1_of_a_non_finite_parameter_is_typed(a, compiled_kernels):
    # a non-finite parameter is no pole on either twin, so the series runs
    # and its NaN or infinite terms stop it as diverged
    for kernels in (_kernels_py, compiled_kernels):
        with _backend(kernels), pytest.raises(rl.HypNotConverged):
            rl.hyp2f1(a, 1.0, 2.0, 0.5)


# --- orders outside [0, 1] -------------------------------------------------

# the six route entries, called alike
_ROUTES = {
    "rlfi_series_displaced": rl.rlfi_series_displaced,
    "rlfd_series": rl.rlfd_series,
    "rlfi_hyp_form": rl.rlfi_hyp_form,
    "rlfd_hyp_form": rl.rlfd_hyp_form,
    "quad_rlfi": lambda pf, win, alpha, t: rl.quad_rlfi(pf, win.a, alpha, t),
    "quad_rlfd": lambda pf, win, alpha, t: rl.quad_rlfd(pf, win.a, alpha, t),
}


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -0.5, 2.0,
                                   1.0 + 2.0 ** -52])
@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_order_outside_unit_interval_is_typed(route, alpha, compiled_kernels):
    pf = rl.power_function(0.0, rl.beta_real(-1.5))
    win = rl.make_window(1.0, pf)
    for kernels in (_kernels_py, compiled_kernels):
        with _backend(kernels), pytest.raises(rl.OrderOutOfRange) as exc:
            _ROUTES[route](pf, win, alpha, 1.5)
        assert isinstance(exc.value, ValueError)


def test_closed_centered_order_outside_unit_interval():
    pf = rl.power_function(0.0, rl.beta_int(2))
    for sa in (math.nan, 1.5, -1.5, math.inf):
        with pytest.raises(rl.OrderOutOfRange):
            rl.closed_centered(pf, sa, 1.0)


# --- never untyped ---------------------------------------------------------

_BETAS = st.one_of(
    st.integers(-400, 400).map(rl.beta_int),
    st.builds(rl.beta_rational, st.integers(-2800, 2800), st.integers(2, 7)),
    st.floats(-400.0, 400.0).map(rl.beta_real),
)
_COORDS = st.floats(-1e300, 1e300)
# the t scale on the unbounded centered window
_CENTERED_SPAN = 1e6

_ENTRIES = (
    *_ROUTES.values(),
    lambda pf, win, alpha, t: rl.closed_centered(pf, alpha, t),
    lambda pf, win, alpha, t: rl.closed_centered(pf, -alpha, t),
)


def _outcome(entry, *args) -> str:
    try:
        entry(*args)
    except rl.RLPowerError as exc:
        return type(exc).__name__
    return "returned"


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(beta=_BETAS, d=_COORDS, gap=st.one_of(st.just(0.0), _COORDS),
       alpha=st.floats(0.0, 1.0), frac=st.floats(0.0, 0.999))
@example(beta=rl.beta_int(3), d=0.0, gap=1e120, alpha=0.5, frac=0.0)
@example(beta=rl.beta_int(3), d=0.0, gap=1e120, alpha=0.5, frac=0.5)
@example(beta=rl.beta_int(400), d=1.0, gap=0.0, alpha=0.035, frac=0.999)
@example(beta=rl.beta_int(-400), d=0.03164480437265205, gap=-2.0,
         alpha=0.4415, frac=0.9916282032320572)
@example(beta=rl.beta_int(-1), d=-1.0, gap=1.0, alpha=0.99, frac=5e-324)
# f(t) = 0.51^-1400.5 beyond the float range: D's head overflows
@example(beta=rl.beta_rational(-2801, 2), d=0.0, gap=0.3, alpha=0.5, frac=0.7)
@example(beta=rl.beta_real(-1.5), d=0.0, gap=1.0, alpha=math.nan, frac=0.5)
@example(beta=rl.beta_real(-1.5), d=0.0, gap=1.0, alpha=math.inf, frac=0.5)
@example(beta=rl.beta_real(-1.5), d=0.0, gap=1.0, alpha=2.0, frac=0.5)
def test_every_failure_is_typed_on_both_backends(compiled_kernels, beta, d,
                                                 gap, alpha, frac):
    # gap is a - d; 0 asks for the centered window
    pf = rl.power_function(d, beta)
    try:
        win = rl.make_window(d + gap, pf)
    except rl.RLPowerError:
        return
    span = win.t_sup - win.a if math.isfinite(win.t_sup) else _CENTERED_SPAN
    t = win.a + frac * span
    for entry in _ENTRIES:
        outcomes = []
        for kernels in (_kernels_py, compiled_kernels):
            with _backend(kernels):
                outcomes.append(_outcome(entry, pf, win, alpha, t))
        assert outcomes[0] == outcomes[1]


# the oracles need no window: the shift may sit at a, inside (a, t), at t,
# or within SPLIT_GUARD of either end
_SHIFT_PLACES = ("a", "inside", "t", "below a", "above a", "below t", "above t")


def _shift(place: str, a: float, t: float, frac: float) -> float:
    guard = frac * oracle.SPLIT_GUARD
    return {"a": a, "inside": a + frac * (t - a), "t": t, "below a": a - guard,
            "above a": a + guard, "below t": t - guard,
            "above t": t + guard}[place]


def _quad_outcome(quad, *args) -> str:
    try:
        value, estimate = quad(*args)
    except rl.RLPowerError as exc:
        return type(exc).__name__
    assert math.isfinite(value) and 0.0 <= estimate < math.inf, (value, estimate)
    return "returned"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(beta=_BETAS, a=st.floats(-1e6, 1e6), width=st.floats(0.0, 1e6),
       place=st.sampled_from(_SHIFT_PLACES), frac=st.floats(0.0, 1.0),
       alpha=st.floats(0.0, 1.0))
@example(beta=rl.beta_rational(2, 3), a=0.0, width=1.0, place="t", frac=0.0,
         alpha=0.3)
@example(beta=rl.beta_rational(2, 3), a=0.0, width=1.0, place="t", frac=0.0,
         alpha=1.0)
@example(beta=rl.beta_real(1e-11), a=1e-11, width=1.0, place="below a",
         frac=1e-11, alpha=0.5)
def test_oracles_at_any_shift_are_typed_on_both_backends(
        compiled_kernels, beta, a, width, place, frac, alpha):
    t = a + width
    pf = rl.power_function(_shift(place, a, t, frac), beta)
    if not (pf.contains(a) and pf.contains(t)):
        return
    for quad in (rl.quad_rlfi, rl.quad_rlfd):
        outcomes = []
        for kernels in (_kernels_py, compiled_kernels):
            with _backend(kernels):
                outcomes.append(_quad_outcome(quad, pf, a, alpha, t))
        assert outcomes[0] == outcomes[1]
