"""Brute-force evaluators of the defining integrals; the validation oracles.

The fractional integral is computed straight from its definition,

    J^alpha f(t) = (1/Gamma(alpha)) * integral_a^t (t-x)^(alpha-1) f(x) dx,

after the substitution s = (t-x)**alpha, which absorbs the endpoint weight
exactly and leaves (1/Gamma(alpha+1)) * integral_0^((t-a)^alpha) f(t-s^(1/alpha)) ds
with a bounded integrand.  Adaptive Gauss-Kronrod 15(7) panels take it under
global error control: the panel with the largest error is halved until the
summed error meets the tolerance relative to the running integral of |f|.
At a small order nearly all of the s-range maps to x next to t, and every x
further off is squeezed into a top sliver that no node of a whole-range
panel sees, so the range is first cut where x = t - (t-a) e^-40 and where
x = a + (t-a)/2.
Nodes in the upper half of the range are placed by their distance from its
top, so x next to a keeps the digits that s**(1/alpha) would lose there.
Every error estimate adds a roundoff floor measured against 40-digit mpmath.

The fractional derivative is the integral of f' wherever f is C^1 on [a, t]:
the shift lies outside [a, t], or beta is an integer >= 0.  Integration by
parts then gives

    D^alpha f(t) = f(a) (t-a)^-alpha / Gamma(1-alpha) + J^(1-alpha) f'(t),

and f' = beta (x-d)^(beta-1) is in the same power family, so the value is
one head term plus one quadrature of the same substituted integrand.  Where
f' is singular inside [a, t] (a fractional exponent with the shift at or
inside the interval) the derivative stays a Richardson-extrapolated central
difference of the order-(1-alpha) integral.  Deliberately simple;
accuracy, not speed, is the contract here.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Callable, NamedTuple

from ._backend import kernels
from .domain import (BetaIndex, IntegerExp, PowerFunction, RationalExp, RealExp,
                     beta_value, branch_power, float_power, require_order)
from .errors import EvalAtLowerLimit, PoleInsideInterval, ToleranceNotMet

# Gauss-Kronrod 15-point nodes and weights on [-1, 1] (QUADPACK dqk15).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


DEFAULT_TOL = 1e-11
MAX_DEPTH = 60
# how close the shift may come to [a, t] before a negative exponent's pole
# counts as inside the interval
SPLIT_GUARD = 1e-12
_TOL_FLOOR = 100.0 * math.ulp(1.0)
# at a small order the s-range is cut where x = t - (t-a) e^-_TAIL_LOGS,
# below which f is constant to rounding, and where x = a + (t-a)/2; not at
# orders where the first cut falls in the bottom _TAIL_MIN of the range,
# which a whole-range panel resolves
_TAIL_LOGS = 40.0
_TAIL_MIN = 1e-3
_LN2 = math.log(2.0)
# roundoff floor of an estimate, in ulps of the magnitude summed, plus |beta|
# ulps for the rounding of the offsets from the shift.  Measured against
# 40-digit mpmath on 21 000 random displaced J and D cells: the worst need
# was 10.2 ulps (J of beta = 0, where the panels are exact)
_FLOOR_ULPS = 16.0


class QuadEstimate(NamedTuple):
    value: float
    error_estimate: float


def _gk15(f: Callable[[float], float], lo: float,
          hi: float) -> tuple[float, float, float]:
    """Kronrod value, |K15 - G7| error estimate and Kronrod sum of |f| on one
    panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    fk = 0.0
    fg = 0.0
    fa = 0.0
    for i in range(7):
        x = half * _XGK[i]
        f1 = f(mid - x)
        f2 = f(mid + x)
        v = f1 + f2
        fk += _WGK[i] * v
        fa += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            fg += _WG[(i - 1) // 2] * v
    fc = f(mid)
    fk += _WGK[7] * fc
    fa += _WGK[7] * abs(fc)
    fg += _WG[3] * fc
    return fk * half, abs(fk - fg) * abs(half), fa * abs(half)


def _adaptive(pieces: list[tuple[Callable[[float], float], list[float]]],
              tol: float) -> tuple[float, float, float]:
    """Sum of the integrals of f over [cuts[0], cuts[-1]] for each (f, cuts)
    piece, its error estimate and the integral of |f|.

    Each interval between cuts starts as one panel; the panel with the
    largest error is halved until the summed error is at most tol times the
    running integral of |f| (or the float range's floor times the width).
    Halving a panel already MAX_DEPTH levels deep raises ToleranceNotMet.
    """
    seq = itertools.count()  # breaks ties between equal errors
    heap = []
    width = 0.0
    for f, cuts in pieces:
        width += cuts[-1] - cuts[0]
        for lo, hi in zip(cuts, cuts[1:]):
            val, err, mag = _gk15(f, lo, hi)
            heap.append((-err, next(seq), f, lo, hi, val, mag, 0))
    heapq.heapify(heap)
    magnitude = math.fsum(p[6] for p in heap)
    error = math.fsum(-p[0] for p in heap)
    floor = width * sys.float_info.min
    while error > max(tol * magnitude, floor):
        neg_err, _, f, lo, hi, val, mag, depth = heapq.heappop(heap)
        if depth >= MAX_DEPTH:
            raise ToleranceNotMet(
                f"panel [{lo!r}, {hi!r}] still at error {-neg_err:.3e} "
                "at maximum depth")
        mid = 0.5 * (lo + hi)
        v1, e1, m1 = _gk15(f, lo, mid)
        v2, e2, m2 = _gk15(f, mid, hi)
        heapq.heappush(heap, (-e1, next(seq), f, lo, mid, v1, m1, depth + 1))
        heapq.heappush(heap, (-e2, next(seq), f, mid, hi, v2, m2, depth + 1))
        magnitude += m1 + m2 - mag
        if -neg_err > 0.5 * error:
            # most of the sum just left it: add the rest up again rather
            # than trust the difference
            error = math.fsum(-p[0] for p in heap)
        else:
            error += e1 + e2 + neg_err
    return (math.fsum(p[5] for p in heap), math.fsum(-p[0] for p in heap),
            math.fsum(p[6] for p in heap))


def _substituted(beta: BetaIndex, lo: float, hi: float, u: float,
                 order: float, tol: float) -> tuple[float, float, float]:
    """Gamma(order+1) times the order-`order` integral of y**beta from lo to
    hi, u = hi - lo: integral_0^(u**order) y**beta ds at y = hi - s**(1/order),
    with _adaptive's error and magnitude.

    The integrand works in offsets y = x - d from the shift: x = t - s**inv
    itself would round to a staircase where |d| is large next to t - a.  The
    lower half of the s-range (x next to t) runs over s, and the upper half
    over sigma = u**order - s, the distance from the top, with t - x = u e^w
    and x - a = -u expm1(w) for w = log1p(-sigma/u**order)/order: s**(1/order)
    would lose 1/order digits next to x = a, and sigma loses them next to t.
    """
    inv = 1.0 / order
    span = u ** order
    half = 0.5 * span

    def clamped(y: float) -> float:
        # clamp float excursions from the substitution back into [lo, hi],
        # and the NaN of sigma = 0 at an order so small that inv is inf
        if not y > lo:
            return branch_power(lo, beta)
        return branch_power(hi if y > hi else y, beta)

    def near_t(s: float) -> float:
        return clamped(hi - s ** inv)

    def near_a(sigma: float) -> float:
        w = math.log1p(-sigma / span) * inv
        # the nearer end gives y its full precision
        return clamped(lo - u * math.expm1(w) if w > -_LN2 else hi - u * math.exp(w))

    # the cuts as log((t-x)/u)
    logs = []
    # f varies on the scale |hi| next to t: go that much further in
    tail = _TAIL_LOGS + math.log(u / abs(hi)) if u > abs(hi) > 0.0 else _TAIL_LOGS
    if math.exp(-tail * order) > _TAIL_MIN:
        logs += [-tail, -_LN2]
    if lo < 0.0 < hi:
        # f is not smooth at the shift: no panel may straddle it
        logs.append(math.log(hi / u))
    t_cuts, a_cuts = [0.0, half], [0.0, half]
    for log in logs:
        s = span * math.exp(order * log)
        if s < half:
            t_cuts.append(s)
        else:
            a_cuts.append(-span * math.expm1(order * log))
    return _adaptive([(near_t, sorted(t_cuts)), (near_a, sorted(a_cuts))], tol)


def _floor(beta: BetaIndex, magnitude: float) -> float:
    return (_FLOOR_ULPS + abs(beta_value(beta))) * math.ulp(1.0) * magnitude


def _require_tol(tol: float) -> None:
    if tol < _TOL_FLOOR:
        raise ValueError(f"tolerances below {_TOL_FLOOR:g} are not achievable")


def _require_domain(pf: PowerFunction, a: float, t: float) -> None:
    for point in (a, t):
        if not pf.contains(point):
            raise ValueError(f"{point!r} outside the power function's domain")


def quad_rlfi(pf: PowerFunction, a: float, alpha: float, t: float,
              tol: float = DEFAULT_TOL) -> QuadEstimate:
    """Fractional integral straight from the definition.  tol is the target
    of the summed panel error relative to the integral of |f|; the error
    estimate is that sum plus the roundoff floor."""
    _require_tol(tol)
    require_order(alpha)
    if t < a:
        raise ValueError("quad_rlfi requires a <= t")
    _require_domain(pf, a, t)
    if beta_value(pf.beta) < 0.0 and a - SPLIT_GUARD <= pf.d <= t + SPLIT_GUARD:
        raise PoleInsideInterval(
            f"integrand pole at x={pf.d!r} touches [{a!r}, {t!r}]")
    if alpha == 0.0:
        return QuadEstimate(pf.value(t), 0.0)
    if a == t:
        return QuadEstimate(0.0, 0.0)
    val, err, mag = _substituted(pf.beta, a - pf.d, t - pf.d, t - a, alpha, tol)
    scale = 1.0 / kernels.gamma_value(alpha + 1.0)
    return QuadEstimate(val * scale,
                        (err + _floor(pf.beta, mag)) * abs(scale))


def _lowered(beta: BetaIndex) -> BetaIndex:
    """The exponent beta - 1 of f' = beta (x-d)**(beta-1), in beta's class;
    its domain may be smaller than beta's (2/3 against -1/3), so callers
    check the domain of f, not of f'."""
    if isinstance(beta, IntegerExp):
        return IntegerExp(beta.m - 1)
    if isinstance(beta, RationalExp):
        return RationalExp(beta.p - beta.q, beta.q)
    return RealExp(beta.x - 1.0)


def quad_rlfd(pf: PowerFunction, a: float, alpha: float, t: float,
              tol: float = DEFAULT_TOL) -> QuadEstimate:
    """Fractional derivative, by parts where f is C^1 on [a, t].

    When the shift lies outside [a - SPLIT_GUARD, t + SPLIT_GUARD], or beta is
    an integer >= 0, the value is the head f(a) (t-a)^-alpha / Gamma(1-alpha)
    plus the body J^(1-alpha) f'(t), one quadrature of quad_rlfi's
    substituted integrand with the exponent beta - 1.  The error estimate is
    the body's, scaled, plus the roundoff floor on |head| + |body|.  Where
    head and body cancel, the body is run again with tol divided by the
    cancellation ratio (|head| + |body|) / |value|, down to the tolerance
    floor.  alpha = 1 gives f'(t) and beta = 0 the head alone.

    Elsewhere f' is singular inside [a, t] (a fractional exponent with the
    shift at or inside the interval), and the value stays d/dt of the
    order-(1-alpha) integral: central differences at steps h = (t-a)*1e-4
    and h/2, Richardson-combined, with the inner integrals two orders
    tighter than tol and the extrapolation residual as the error estimate.

    alpha = 0 gives f(t); t <= a raises EvalAtLowerLimit.
    """
    _require_tol(tol)
    require_order(alpha)
    if alpha == 0.0:
        return QuadEstimate(pf.value(t), 0.0)
    if t <= a:
        raise EvalAtLowerLimit("central differences need t > a")
    beta = pf.beta
    if (isinstance(beta, IntegerExp) and beta.m >= 0) or not (
            a - SPLIT_GUARD <= pf.d <= t + SPLIT_GUARD):
        return _by_parts(pf, a, alpha, t, tol)
    return _richardson(pf, a, alpha, t, tol)


def _by_parts(pf: PowerFunction, a: float, alpha: float, t: float,
              tol: float) -> QuadEstimate:
    _require_domain(pf, a, t)
    beta = pf.beta
    b = beta_value(beta)
    lo, hi, u = a - pf.d, t - pf.d, t - a
    lowered = _lowered(beta)
    if alpha == 1.0:
        # the head's 1/Gamma(0) vanishes, and J^0 f' = f'
        value = b * branch_power(hi, lowered) if b else 0.0
        return QuadEstimate(value, _floor(beta, abs(value)))
    head = (branch_power(lo, beta) * float_power(u, -alpha)
            / kernels.gamma_value(1.0 - alpha))
    if b == 0.0:
        return QuadEstimate(head, _floor(beta, abs(head)))
    scale = b / kernels.gamma_value(2.0 - alpha)
    val, err, mag = _substituted(lowered, lo, hi, u, 1.0 - alpha, tol)
    magnitude = abs(head) + abs(scale) * mag
    value = head + val * scale
    if magnitude > 2.0 * abs(value):
        # head and body cancel: tol relative to the value asks that much more
        # of the body
        val, err, mag = _substituted(
            lowered, lo, hi, u, 1.0 - alpha,
            max(tol * abs(value) / magnitude, _TOL_FLOOR))
        magnitude = abs(head) + abs(scale) * mag
    return QuadEstimate(head + val * scale,
                        err * abs(scale) + _floor(beta, magnitude))


def _richardson(pf: PowerFunction, a: float, alpha: float, t: float,
                tol: float) -> QuadEstimate:
    # t - h stays above a whenever h > 0
    h = (t - a) * 1e-4
    if h <= 0.0:
        raise EvalAtLowerLimit("central differences need t > a")
    inner = max(1e-2 * tol, 250.0 * math.ulp(1.0))

    def g(tau: float) -> float:
        return quad_rlfi(pf, a, 1.0 - alpha, tau, inner).value

    d1 = (g(t + h) - g(t - h)) / (2.0 * h)
    d2 = (g(t + 0.5 * h) - g(t - 0.5 * h)) / h
    value = (4.0 * d2 - d1) / 3.0
    return QuadEstimate(value, abs(d2 - d1) / 3.0)
