"""The route bodies over a list of points: every scalar entry is their
one-point case, bit for bit, errors included."""

from __future__ import annotations

import math
import struct

import pytest

import rlpower as rl
from rlpower import hypergeom, series
from rlpower.errors import HypNotConverged, RLPowerError, SeriesNotConverged

ALPHAS = (0.0, 0.35, 1.0)
FRACS = (0.0, 0.3, 0.7, 0.99)

# (d, a, beta): above the shift, below it, and centered
PLACEMENTS = (
    (0.0, 1.0, rl.beta_int(-3)),
    (0.5, 1.5, rl.beta_rational(-3, 2)),
    (-1.0, 0.2, rl.beta_real(0.45)),
    (2.0, 1.0, rl.beta_rational(2, 3)),
    (2.0, 1.0, rl.beta_int(-1)),
    (1.5, 1.5, rl.beta_int(2)),
    (1.5, 1.5, rl.beta_int(0)),
)


def _bits(x):
    """The bits of a value; a series result is a scalar entry's SeriesResult
    or a point of a body's columns (value, terms, bound, status name), and
    both give the same bits."""
    if isinstance(x, rl.SeriesResult):
        x = (x.value, x.terms_used, x.remainder_bound, x.status.value)
    if isinstance(x, tuple):
        value, terms, bound, status = x
        return (_bits(value), terms, _bits(bound), status)
    return struct.pack("<d", x)


def _outcome(fn, *args):
    """What a scalar entry gives: its value, a non-converged series result,
    or the typed error it raises."""
    try:
        return _bits(fn(*args))
    except SeriesNotConverged as exc:
        return _bits(exc.result)
    except RLPowerError as exc:
        return type(exc), str(exc)


def _hyp_point(entry):
    """A scalar hyp entry as a point of the hyp body's columns: a value is
    converged with terms and remainder 0, and HypNotConverged is a truncated
    point with no value and an infinite remainder."""
    def point(*args):
        try:
            return entry(*args), 0, 0.0, "converged"
        except HypNotConverged:
            return math.nan, 0, math.inf, "truncated"
    return point


def _grid_outcomes(body, ts):
    """The body's values, or the error it raises in place of the first
    point's outcome that is an error."""
    try:
        return [_bits(v) for v in body(ts)]
    except RLPowerError as exc:
        return type(exc), str(exc)


def _expected(scalars):
    errors = [o for o in scalars if isinstance(o, tuple) and len(o) == 2]
    return errors[0] if errors else scalars


def _points(win, pf):
    width = (win.t_sup - win.a) if win.t_sup != float("inf") else 3.0
    return sorted({win.a + f * width for f in FRACS} | {pf.d + 2.5})


@pytest.mark.parametrize("d,a,beta", PLACEMENTS)
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("op", ["J", "D"])
def test_scalar_entries_are_the_one_point_grid(d, a, beta, alpha, op):
    pf = rl.power_function(d, beta)
    win = rl.make_window(a, pf)
    ts = [t for t in _points(win, pf) if t < win.t_sup]
    sa = alpha if op == "J" else -alpha
    integral = op == "J"
    series_entry = rl.rlfi_series_displaced if integral else rl.rlfd_series
    hyp_entry = rl.rlfi_hyp_form if integral else rl.rlfd_hyp_form
    cases = (
        (series_entry, lambda xs: zip(*series._series(
            pf, win, sa, xs, series.DEFAULT_TOL, series.DEFAULT_MAX_TERMS))),
        (_hyp_point(hyp_entry),
         lambda xs: zip(*hypergeom._hyp_form(pf, win, sa, xs))),
    )
    for entry, body in cases:
        scalars = [_outcome(entry, pf, win, alpha, t) for t in ts]
        assert _grid_outcomes(body, ts) == _expected(scalars)
        assert [_grid_outcomes(body, [t]) for t in ts] == \
            [s if isinstance(s, tuple) and len(s) == 2 else [s] for s in scalars]
    # the scalar series entries still return a SeriesResult with an enum status
    for t in ts:
        try:
            result = series_entry(pf, win, alpha, t)
        except SeriesNotConverged as exc:
            result = exc.result
        except RLPowerError:
            continue
        assert type(result) is rl.SeriesResult
        assert type(result.status) is rl.SeriesStatus


@pytest.mark.parametrize("beta", [rl.beta_int(0), rl.beta_int(2),
                                  rl.beta_rational(1, 2), rl.beta_real(-0.5),
                                  rl.beta_int(300)])
@pytest.mark.parametrize("sa", [0.0, 0.35, 1.0, -0.35, -1.0])
def test_closed_centered_is_the_one_point_grid(beta, sa):
    pf = rl.power_function(-0.75, beta)
    ts = [pf.d, pf.d + 0.5, pf.d + 0.99, pf.d + 3.0, pf.d + 1e3]
    scalars = [_outcome(rl.closed_centered, pf, sa, t) for t in ts]
    assert _grid_outcomes(lambda xs: series._centered(
        pf, sa, xs, series.DEFAULT_TOL)[0], ts) == _expected(scalars)


def test_hyp2f1_is_the_one_point_grid():
    # both sides of x = 0, the Pfaff transform on either parameter, and a
    # terminating series
    for a, b, c in ((1.0, 3.0, 1.5), (1.0, 12.7, 0.65), (1.0, -2.0, 1.35)):
        xs = [-0.999, -0.5, -1e-9, 0.0, 0.25, 0.49]
        values, failed = hypergeom._hyp2f1(a, b, c, xs)
        assert [_bits(v) for v in values] == \
            [_bits(rl.hyp2f1(a, b, c, x)) for x in xs]
        assert failed == []
