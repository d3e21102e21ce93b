"""Evaluators of the defining integrals that use no 2F1: the validation
oracles.

The fractional integral is computed from its definition,

    J^alpha f(t) = (1/Gamma(alpha)) * integral_a^t (t-x)^(alpha-1) f(x) dx,

and the fractional derivative from one head term and a body,

    D^alpha f(t) = f(t) (t-a)^-alpha / Gamma(1-alpha) + body / Gamma(1-alpha).

Where f = (x-d)^beta is analytic on [a, t] (the shift outside [a, t], or a
non-negative integer beta) the body is the Caputo split's integral of f'
(Samko, Kilbas and Marichev, Fractional Integrals and Derivatives, 1993,
for f in C^1[a, t]) with (t-a)^-alpha (f(t) - f(a)) moved into the head,

    body = integral_a^t ((t-x)^-alpha - (t-a)^-alpha) f'(x) dx,

whose weight vanishes at x = a: head and body cancel no more than in the
Marchaud form below, where the split from f(a) loses up to five digits at
small orders.  Elsewhere the body is the Marchaud form's (section 13),

    body = alpha * integral_a^t (f(t) - f(x)) / (t-x)^(1+alpha) dx,

which needs no f' and so holds with the shift at a or inside [a, t] as
well: the divided difference (f(t) - f(x)) / (t-x) against the weight
(t-x)^-alpha.  Integrating it by parts gives the other body.

On the analytic path both integrals are product integration on Chebyshev
points, as in QUADPACK's QAWS (Piessens et al., 1983).  With
x = a + (t-a)(1+y)/2 the weight is (1-y)^(order-1), order alpha for J,
and (1-y)^-alpha - 2^-alpha for D; the rule of size n in {16, 24, 32, 48}
integrates it exactly against the degree-n interpolant of the integrand at
the n+1 Chebyshev-Lobatto points.  Its weights come from the modified
moments of the weight (dqmomo's recurrence), built once per (alpha, n) in
fixed-point integer arithmetic to about 42 digits and cached.  The
interpolant's error is proven (Trefethen, Approximation Theory and
Approximation Practice, Thm 8.2): the integrand is analytic inside the
Bernstein ellipse of [a, t] that passes through the shift, and on a
slightly smaller one its modulus has a closed-form maximum at a vertex, so
the tail is M_0 4 M rho^-n / (rho - 1), M_0 the weight's mass.  The
smallest size whose tail plus a roundoff floor meets the tolerance is
used, and the error estimate is that tail plus floor.  At t = d the
integral's f is (t-x)^beta up to sign, which folds into the weight: J is
then exact up to the floor.

Elsewhere (a fractional beta with the shift inside or next to [a, t],
where no size meets the tolerance) the integrals fall back to adaptive
Gauss-Kronrod 15(7) panels under global error control, after the
substitution s = (t-x)^order that absorbs the endpoint weight: the panel
with the largest |K15 - G7| is halved until the summed error meets the
tolerance relative to the running integral of |f|.  There the error is an
estimate, not a bound.  At a small order nearly all of the s-range maps to
x next to t, so the range is first cut where x = t - (t-a) e^-40 and where
x = a + (t-a)/2; nodes in the upper half of the range are placed by their
distance from its top, so x next to a keeps the digits that s^(1/order)
would lose there.  Every estimate adds a roundoff floor measured against
40-digit mpmath.

The route body _quad evaluates a job's sorted points: the checks, the
gamma factors and the rule's parameters are made once per job, and each
point costs one node loop.  quad_rlfi and quad_rlfd take the same path at
one point, and raise ToleranceNotMet where the body truncates the point.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import sys
from typing import Callable, NamedTuple

from ._backend import kernels
from .domain import (BetaIndex, IntegerExp, PowerFunction, RationalExp,
                     beta_value, branch_power, float_power, require_order)
from .errors import (EvalAtLowerLimit, PoleInsideInterval, ToleranceNotMet,
                     ValueOverflow)
from .series import Columns

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
# an integrand whose rounding noise stays above the tolerance is halved
# everywhere at once; this many panels end it (the cells measured need
# at most about 120)
MAX_PANELS = 10000
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
# 40-digit mpmath: J on 21 000 random displaced cells needed 10.2 ulps (beta
# = 0, where the panels are exact), D on 20 000 random displaced cells and
# on shifts at and inside [a, t] 5.4 + |beta|
_FLOOR_ULPS = 16.0
# below r = _LIMIT |t - d| the derivative's divided difference is its limit
_LIMIT = 1e-8
# sizes n of the Chebyshev product rules, smallest first
_RULE_SIZES = (16, 24, 32, 48)


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


def _fsum(terms) -> float:
    # math.fsum, with inf for a sum beyond the float range and nan for
    # inf - inf, as plain addition has them, for the callers' finiteness check
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def _adaptive(pieces: list[tuple[Callable[[float], float], list[float]]],
              tol: float) -> tuple[float, float, float]:
    """Sum of the integrals of f over [cuts[0], cuts[-1]] for each (f, cuts)
    piece, its error estimate and the integral of |f|.

    Each interval between cuts starts as one panel; the panel with the
    largest error is halved until the summed error is at most tol times the
    running integral of |f| (or the float range's floor times the width).
    Halving a panel already MAX_DEPTH levels deep, or past MAX_PANELS
    panels, raises ToleranceNotMet.
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
    magnitude = _fsum(p[6] for p in heap)
    error = _fsum(-p[0] for p in heap)
    floor = width * sys.float_info.min
    while error > max(tol * magnitude, floor):
        neg_err, _, f, lo, hi, val, mag, depth = heapq.heappop(heap)
        if depth >= MAX_DEPTH or len(heap) >= MAX_PANELS:
            raise ToleranceNotMet(
                f"panel [{lo!r}, {hi!r}] still at error {-neg_err:.3e} "
                f"at depth {depth} of {len(heap) + 1} panels")
        mid = 0.5 * (lo + hi)
        v1, e1, m1 = _gk15(f, lo, mid)
        v2, e2, m2 = _gk15(f, mid, hi)
        heapq.heappush(heap, (-e1, next(seq), f, lo, mid, v1, m1, depth + 1))
        heapq.heappush(heap, (-e2, next(seq), f, mid, hi, v2, m2, depth + 1))
        magnitude += m1 + m2 - mag
        if -neg_err > 0.5 * error:
            # most of the sum just left it: add the rest up again rather
            # than trust the difference
            error = _fsum(-p[0] for p in heap)
        else:
            error += e1 + e2 + neg_err
    return (_fsum(p[5] for p in heap), _fsum(-p[0] for p in heap),
            _fsum(p[6] for p in heap))


def _substituted(f: Callable[[float], float], lo: float, hi: float, u: float,
                 order: float, tol: float,
                 mirror: bool = False) -> tuple[float, float, float]:
    """integral_0^(u**order) f(y) ds at the offset y = hi - s**(1/order) from
    the shift, u = hi - lo, with _adaptive's error and magnitude: for
    f(y) = y**beta, Gamma(order+1) times the order-`order` integral from lo
    to hi.  The range is cut at the shift when it lies inside (lo, hi), and
    with `mirror` a shift above hi, closer to it than u, cuts it at y = 2 hi:
    an integrand that varies on the scale |hi| in hi - y, as the
    derivative's divided difference does, turns there from its value next
    to hi to its decay.

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

    # both halves stay in [lo, hi]: t - x is at most u/2 in the lower one and
    # at least u/2 in the upper one
    def near_t(s: float) -> float:
        return f(hi - s ** inv)

    def near_a(sigma: float) -> float:
        # sigma = 0 is x = a, where log1p(0) * inv is NaN at an order so
        # small that inv is inf
        w = math.log1p(-sigma / span) * inv if sigma else 0.0
        # the nearer end gives y its full precision
        return f(lo - u * math.expm1(w) if w > -_LN2 else hi - u * math.exp(w))

    # the cuts as log((t-x)/u)
    logs = []
    # f varies on the scale |hi| next to t: go that much further in
    tail = _TAIL_LOGS + math.log(u / abs(hi)) if u > abs(hi) > 0.0 else _TAIL_LOGS
    if math.exp(-tail * order) > _TAIL_MIN:
        logs += [-tail, -_LN2]
    if lo < 0.0 < hi or (mirror and 0.0 < -hi < u):
        # f is not smooth at the shift: no panel may straddle it, nor, with
        # mirror, the point as far below t as the shift is above it
        logs.append(math.log(abs(hi) / u))
    t_cuts, a_cuts = [0.0, half], [0.0, half]
    for log in logs:
        s = span * math.exp(order * log)
        if s < half:
            t_cuts.append(s)
        else:
            a_cuts.append(-span * math.expm1(order * log))
    return _adaptive([(near_t, sorted(t_cuts)), (near_a, sorted(a_cuts))], tol)


# The rules are built in fixed point: integers in units of 2^-_BITS, about
# 1e-42.  pi and log 2 in those units, rounded.
_BITS = 140
_ONE = 1 << _BITS
_FIX_PI = 0x3243F6A8885A308D313198A2E03707344A41
_FIX_LN2 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF40F


def _taylor(x: int, step: int) -> int:
    """exp x (step 1) or cos x (step 2) for a fixed-point x in [0, 2]."""
    total = term = _ONE
    k, sign = 0, 1
    while term:
        for _ in range(step):
            k += 1
            term = term * x // (k << _BITS)
        if step == 2:
            sign = -sign
        total += sign * term
    return total


@functools.lru_cache(maxsize=len(_RULE_SIZES))
def _cosines(n: int) -> tuple[int, ...]:
    """cos(pi i/n) for i < 2n in fixed point: odd about i = n/2 and even
    about i = n, the rest by the Taylor series."""
    cos = [_taylor(_FIX_PI * i // n, 2) for i in range(n // 2 + 1)]
    cos += [-c for c in reversed(cos[:n - n // 2])]
    return tuple(cos + cos[-2:0:-1])


def _weights(p: int, q: int, n: int) -> tuple[int, list[int]]:
    """2^order in units of 2^-_BITS, and n W_j in units of 2^-2_BITS for
    the rule of size n and the weight (1-y)^(order-1), order = p/q (see
    _rule)."""
    cos = _cosines(n)
    top = _taylor(p * _FIX_LN2 // q, 1)  # 2^order
    # M_k - M_0, from M_k = ((-1)^(k+1) 2^order + k (k-order-1) M_(k-1))
    # / ((k-1) (k+order)), with numerator and denominator times q
    shifted = [0, -2 * top * q // (p + q)]
    for k in range(2, n + 1):
        shifted.append((k * (k * q - p - q) * shifted[-1]
                        - 2 * top * (k - k % 2) * q) // ((k - 1) * (k * q + p)))
    shifted[n] //= 2
    sums = [0] * (n + 1)
    for j in range(n // 2 + 1):
        even, odd = (sum(shifted[k] * cos[j * k % (2 * n)]
                         for k in range(first, n + 1, 2))
                     for first in (0, 1))
        # cos(pi (n-j) k/n) = (-1)^k cos(pi j k/n)
        sums[j], sums[n - j] = 2 * (even + odd), 2 * (even - odd)
    sums[0] = sums[0] // 2 + n * (top * q // p << _BITS)
    sums[n] //= 2
    return top, sums


@functools.lru_cache(maxsize=len(_RULE_SIZES))
def _flat(n: int) -> list[int]:
    # _weights of the weight 1, Clenshaw-Curtis's
    return _weights(1, 1, n)[1]


@functools.lru_cache(maxsize=256)
def _rule(alpha: float, n: int,
          lifted: bool = False) -> tuple[tuple[float, float, float], ...]:
    """The product rule of size n for the weight (1-y)^(order-1) on [-1, 1]
    of order alpha, or with `lifted` for (1-y)^(order-1) - 2^(order-1) of
    order 1 - alpha, which vanishes at y = -1.

    For each Chebyshev-Lobatto point y_j = cos(j pi/n) the rule holds
    ((1+y_j)/2, (1-y_j)/2, W_j), so that sum_j W_j g(y_j) is the weighted
    integral of the degree-n interpolant of g at those points.  The weights
    come from the modified moments M_k = integral (1-y)^(order-1) T_k(y) dy,
    by QUADPACK's dqmomo recurrence for the moments of (1+y)^(order-1) with
    the sign of the odd ones flipped.  It runs on M_k - M_0: at a small
    order M_0 = 2^order/order is nearly all mass at y = 1, which W_0 takes
    whole.  The lifted weights are these minus 2^(order-1) times the
    Clenshaw-Curtis ones.  The weights next to y = -1 are about n^-2 and
    come out of sums of terms near 1, and at a small alpha the lifted ones,
    about alpha ln(2/(1-y)), are small differences, so the rule is built in
    fixed point, with alpha as the exact ratio p/q of its float (the
    rounding of 1 - alpha would move them by eps/alpha), and every number
    in it is the float nearest its value.
    """
    cos = _cosines(n)
    p, q = alpha.as_integer_ratio()
    top, sums = _weights(q - p, q, n) if lifted else _weights(p, q, n)
    if lifted:
        sums = [total - flat * top // (2 * _ONE)
                for total, flat in zip(sums, _flat(n))]
    return tuple(((_ONE + c) / (2 * _ONE), (_ONE - c) / (2 * _ONE),
                  total / (n << 2 * _BITS))
                 for c, total in zip(cos, sums))


def _by_rule(lo: float, hi: float, u: float, scale: float, head: float,
             rule: tuple, tol: float) -> tuple[float, float] | None:
    """head + scale * integral_-1^1 v(y) g(x) dy, v the weight of _rule
    (alpha, n, lifted), at the offset x = lo + u (1+y)/2 from the shift, by
    the smallest product rule whose tail plus roundoff floor meets tol
    times the magnitude |head| + |scale| sum_j |W_j g(x_j)|: its value and
    that error.  None where no size meets tol or the value is beyond the
    float range, and where the shift lies in [a, t] unless g is a
    polynomial of at most the largest size's degree.  rule is a job's
    _rule_of.

    g(x) is x^e, or x^power / x where power = e + 1: f' = beta f/x of a
    fractional beta, where the rounding of beta - 1 would move g by ln|x|
    times its ulp.  An integer e takes x^e with its sign;
    a fractional one needs every offset on one side of the shift, and with
    flip = -1 (below it) takes (-x)^e, so that x^e's sign goes into scale.
    On a Bernstein ellipse E_rho of [a, t] for every rho below the one that
    passes through the shift, |g| is at most |x-d|^e, and Trefethen's ATAP
    Thm 8.2 bounds the interpolant's error by 4 M rho^-n / (rho - 1), M
    that majorant's largest value on E_rho, at its near vertex for e < 0
    and at its far one otherwise, times the weight's mass.  A polynomial of
    at most degree n is integrated exactly.
    """
    alpha, lifted, e, power, degree, mass, floor, flip = rule
    divided = power != e
    # the shift's distance from the midpoint, in half-widths
    yd = abs(lo + hi) / u
    if yd <= 1.0 and (degree is None or degree > _RULE_SIZES[-1]):
        return None
    rho_d = yd + math.sqrt((yd - 1.0) * (yd + 1.0)) if yd > 1.0 else 1.0
    try:
        front = 4.0 * abs(scale) * mass
        front = math.log(front) if front else -math.inf
        # a lower bound on the magnitude, to pick the first size: the weight
        # is at least 2^(alpha-1), and |x-d|^e integrates in closed form;
        # the lifted one is at least its tangent alpha 2^(-1-alpha) (1+y)
        # at y = -1, and (1+y) |x-d|^e too integrates in closed form
        low = 0.0
        if yd > 1.0:
            if lifted:
                # 4/u^2 integral of |x-lo| |x|^e over [lo, hi], and where
                # |x|^e is nearly constant 2 |t-d|^e
                span, ratio = math.log(abs(hi / lo)), abs(lo) / u
                low = 4.0 * abs(lo) ** e * ratio * ratio * (
                    _expm1_ratio(e + 2.0, span) - _expm1_ratio(e + 1.0, span)) \
                    if abs(span) > 1e-12 else 2.0 * abs(hi) ** e
                low *= alpha * 2.0 ** (-1.0 - alpha)
            else:
                near, far = sorted((abs(lo), abs(hi)))
                span, p = math.log(far / near), e + 1.0
                low = near ** p * _expm1_ratio(p, span) * 2.0 ** alpha / u
        need = (tol - floor) * (abs(head) + abs(scale) * low)
        x_lo, x_hi, x_u = (lo, hi, u) if flip > 0.0 else (-lo, -hi, -u)
        for n in _RULE_SIZES:
            # the tail bound of size n
            if degree is not None and n >= degree:
                bound = 0.0
            else:
                if e < 0.0:
                    # near the best rho, and the near vertex's distance from
                    # the shift: (u/2) (rho_d - rho) (1 - 1/(rho rho_d)) / 2
                    step = -e / n
                    rho = rho_d / (1.0 + step)
                    dist = 0.25 * u * rho * step * (1.0 - 1.0 / (rho * rho_d))
                else:
                    # the ellipse through the shift, whose far vertex lies
                    # 2 yd half-widths from it
                    rho, dist = rho_d, abs(lo + hi)
                if rho <= 1.0 or not dist > 0.0:
                    # no ellipse, or its distance underflows
                    bound = math.inf
                else:
                    bound = math.exp(min(front + e * math.log(dist)
                                         - n * math.log(rho)
                                         - math.log(rho - 1.0), 709.0))
            if bound > need:
                continue
            total = absum = 0.0
            for h, r, w in _rule(alpha, n, lifted):
                x = x_hi - x_u * r if r < 0.5 else x_lo + x_u * h
                v = w * x ** power / x if divided else w * x ** power
                total += v
                absum += v if v > 0.0 else -v
            value = head + scale * total
            magnitude = abs(head) + abs(scale) * absum
            if not math.isfinite(magnitude):
                return None
            need = (tol - floor) * magnitude
            if magnitude > 2.0 * abs(value):
                # head and body cancel: tol relative to the value
                need = min(need, max(tol * abs(value), _TOL_FLOOR * magnitude))
            if bound <= need:
                return value, bound + floor * magnitude
    except OverflowError:
        # a power beyond the float range: the adaptive quadrature reports it
        pass
    return None


def _expm1_ratio(p: float, span: float) -> float:
    # (e^(p span) - 1) / p, span at p = 0
    return math.expm1(p * span) / p if p else span


def _rule_of(alpha: float, derivative: bool, beta: BetaIndex,
             below: bool) -> tuple[tuple, float]:
    """_by_rule's parameters (alpha, lifted, e, power, degree, mass, floor,
    flip) for a job of J, whose integrand is f, or of D, whose integrand is
    f' on the lifted weight, on the job's side of the shift (below it with
    `below`), and the factor of g in that integrand: the sign of
    f(x) = (x-d)^beta against |x|^beta, times beta for f'."""
    b = beta_value(beta)
    integer = isinstance(beta, IntegerExp)
    if not derivative:
        e = power = b
    elif integer:
        # m x^(m-1), and none of a constant
        e = power = b - 1.0 if b else 0.0
    else:
        e, power = b - 1.0, b
    degree = round(e) if integer and beta.m >= 0 else None
    # _floor's, with 2 |beta| ulps: the rounded a - d and t - a move every
    # offset lo + u (1+y)/2 alike.  Measured against 40-digit mpmath on
    # random window cells: J on 40 000 at most 6.3 + 2 |beta| ulps of the
    # magnitude, D (f' on the lifted weight) on 79 707, both backends, at
    # most 6.8 + 2 |beta|
    floor = (_FLOOR_ULPS + 2.0 * abs(b)) * math.ulp(1.0)
    flip = -1.0 if below and not integer else 1.0
    factor = -1.0 if flip < 0.0 and isinstance(beta, RationalExp) and beta.p % 2 \
        else 1.0
    if derivative:
        # f'(x) = beta f(x)/x, and d|x|/dx = flip
        factor *= b * flip
    # the weight's integral
    mass = 2.0 ** (1.0 - alpha) * alpha / (1.0 - alpha) if derivative \
        else 2.0 ** alpha / alpha
    return (alpha, derivative, e, power, degree, mass, floor, flip), factor


def _floor(beta: BetaIndex, magnitude: float) -> float:
    return (_FLOOR_ULPS + abs(beta_value(beta))) * math.ulp(1.0) * magnitude


def _require_tol(tol: float) -> None:
    if tol < _TOL_FLOOR:
        raise ValueError(f"tolerances below {_TOL_FLOOR:g} are not achievable")


def _require_interval(pf: PowerFunction, a: float, t: float) -> None:
    if beta_value(pf.beta) < 0.0 and a - SPLIT_GUARD <= pf.d <= t + SPLIT_GUARD:
        raise PoleInsideInterval(
            f"integrand pole at x={pf.d!r} touches [{a!r}, {t!r}]")
    for point in (a, t):
        if not pf.contains(point):
            raise ValueError(f"{point!r} outside the power function's domain")


def _quad(pf: PowerFunction, a: float, alpha: float, ts: list[float],
          tol: float, derivative: bool) -> Columns:
    """The oracle route over the sorted points ts: the columns (values,
    terms, estimates, status names) of J^alpha, or with `derivative` of
    D^alpha, of f from a.  The job's checks and factors are made once
    (_rlfi_at, _rlfd_at).  A point that meets ToleranceNotMet is truncated,
    with no value and an infinite estimate; every other error raises."""
    at = (_rlfd_at if derivative else _rlfi_at)(pf, a, alpha, tol)
    values, estimates, statuses = [], [], []
    for t in ts:
        try:
            value, estimate = at(t)
            status = "converged"
        except ToleranceNotMet:
            value, estimate, status = math.nan, math.inf, "truncated"
        values.append(value)
        estimates.append(estimate)
        statuses.append(status)
    return values, [0] * len(ts), estimates, statuses


def quad_rlfi(pf: PowerFunction, a: float, alpha: float, t: float,
              tol: float = DEFAULT_TOL) -> QuadEstimate:
    """Fractional integral straight from the definition.  tol is the target
    of the error relative to the integral of |f|.  Where f is analytic on
    [a, t] the error estimate is a product rule's proven tail plus the
    roundoff floor; elsewhere it is the adaptive panels' summed error plus
    the floor.  A value or estimate beyond the float range raises
    ValueOverflow."""
    return QuadEstimate(*_rlfi_at(pf, a, alpha, tol)(t))


def _rlfi_at(pf: PowerFunction, a: float, alpha: float,
             tol: float) -> Callable[[float], tuple[float, float]]:
    """quad_rlfi at one point t of a job, as (value, estimate): the
    tolerance, the order, beta's float and sign, Gamma(alpha) and the
    rule's parameters are made once."""
    _require_tol(tol)
    require_order(alpha)
    beta = pf.beta
    b = beta_value(beta)
    if alpha:
        gamma = kernels.gamma_value(alpha)
        rule, factor = _rule_of(alpha, False, beta, a < pf.d)

    def at(t: float) -> tuple[float, float]:
        if t < a:
            raise ValueError("quad_rlfi requires a <= t")
        _require_interval(pf, a, t)
        if alpha == 0.0:
            return pf.value(t), 0.0
        if a == t:
            return 0.0, 0.0
        lo, hi, u = a - pf.d, t - pf.d, t - a
        if hi == 0.0:
            # f(x) = f(-1) (t-x)^beta folds into the weight: J is exact
            e = alpha + b
            value = branch_power(-1.0, beta) * float_power(u, e) / (e * gamma)
            estimate = _floor(beta, abs(value)) * (1.0 + e * abs(math.log(u)))
        else:
            got = _by_rule(lo, hi, u,
                           float_power(0.5 * u, alpha) / gamma * factor, 0.0,
                           rule, tol)
            if got is not None:
                return got

            def power(y: float) -> float:
                return branch_power(y, beta)

            val, err, mag = _substituted(power, lo, hi, u, alpha, tol)
            scale = 1.0 / kernels.gamma_value(alpha + 1.0)
            value, estimate = val * scale, (err + _floor(beta, mag)) * abs(scale)
        if not (math.isfinite(value) and math.isfinite(estimate)):
            raise ValueOverflow(f"J^{alpha!r} at t={t!r} is beyond the float range")
        return value, estimate

    return at


def quad_rlfd(pf: PowerFunction, a: float, alpha: float, t: float,
              tol: float = DEFAULT_TOL) -> QuadEstimate:
    """Fractional derivative: the Caputo split where f is analytic on [a, t],
    the Marchaud form elsewhere.

    Both take the head f(t) (t-a)^-alpha / Gamma(1-alpha).  Where f is
    analytic on [a, t] the body is 1/Gamma(1-alpha) times the integral of
    f' against the weight (t-x)^-alpha - (t-a)^-alpha: the Caputo split
    (Samko, Kilbas and Marichev 1993, for f in C^1[a, t]) with
    (t-a)^-alpha (f(t) - f(a)) moved into its head, by a product rule of
    order 1 - alpha with a proven tail.  Elsewhere (the shift at or inside
    [a, t], or no rule meets tol) it is alpha / Gamma(1-alpha) times the
    integral of the divided difference (f(t) - f(x)) / (t-x) against the
    weight (t-x)^-alpha, by quad_rlfi's substitution under adaptive
    panels.  The error estimate is the body's, scaled, plus the roundoff
    floor on |head| + |body|.  Where head and body cancel, tol is taken
    relative to the value instead, down to the tolerance floor.

    alpha = 0 gives f(t) and alpha = 1 gives f'(t).  t <= a raises
    EvalAtLowerLimit, and a negative beta's pole at or inside [a, t] raises
    PoleInsideInterval.  A shift at t with a fractional beta folds f into
    the weight (see _rlfd_at_the_shift).
    """
    return QuadEstimate(*_rlfd_at(pf, a, alpha, tol)(t))


def _rlfd_at(pf: PowerFunction, a: float, alpha: float,
             tol: float) -> Callable[[float], tuple[float, float]]:
    """quad_rlfd at one point t of a job, as (value, estimate): the
    tolerance, the order, beta's float and sign, Gamma(1-alpha) and the
    rule's parameters are made once."""
    _require_tol(tol)
    require_order(alpha)
    beta = pf.beta
    b = beta_value(beta)
    integer = isinstance(beta, IntegerExp)
    if 0.0 < alpha < 1.0:
        gamma = kernels.gamma_value(1.0 - alpha)
        rule, factor = _rule_of(alpha, True, beta, a < pf.d)

    def at(t: float) -> tuple[float, float]:
        if alpha == 0.0:
            return pf.value(t), 0.0
        if t <= a:
            raise EvalAtLowerLimit("the head term (t-a)^-alpha needs t > a")
        _require_interval(pf, a, t)
        lo, hi, u = a - pf.d, t - pf.d, t - a
        if hi == 0.0 and not integer:
            return _rlfd_at_the_shift(beta, b, alpha, u, t)
        ft = branch_power(hi, beta)
        if alpha == 1.0:
            # f'(t); at t = d only integers come here, with f'(d) = 1 for
            # beta = 1
            value = b * ft / hi if hi else float(b == 1.0)
            err, magnitude = 0.0, abs(value)
        else:
            head = ft * float_power(u, -alpha) / gamma
            got = _by_rule(lo, hi, u,
                           float_power(0.5 * u, 1.0 - alpha) / gamma * factor,
                           head, rule, tol)
            if got is not None:
                return got
            value, err, magnitude = _marchaud(beta, b, alpha, lo, hi, u, ft,
                                              head, tol)
        if not math.isfinite(value):
            raise ValueOverflow(f"D^{alpha!r} at t={t!r} is beyond the float range")
        return value, err + _floor(beta, magnitude)

    return at


def _marchaud(beta: BetaIndex, b: float, alpha: float, lo: float, hi: float,
              u: float, ft: float, head: float,
              tol: float) -> tuple[float, float, float]:
    """D^alpha in the Marchaud form (Samko, Kilbas and Marichev 1993,
    section 13) by adaptive panels, at the offsets lo = a - d and hi = t - d,
    u = t - a, with f(t) and the head: its value, error estimate and the
    magnitude |head| + |body|."""
    # f'(t); at t = d only integers come here, with f'(d) = 1 for beta = 1
    slope = b * ft / hi if hi else float(b == 1.0)
    near, mid = _LIMIT * abs(hi), 0.5 * abs(hi)
    curve = 0.5 * (b - 1.0) / hi if hi else 0.0
    # f(x) = f(t) |y/hi|^beta on t's side of the shift, and on both sides
    # for an even f
    even = lo < 0.0 < hi and branch_power(-1.0, beta) > 0.0

    def quotient(y: float) -> float:
        # (f(t) - f(x)) / r at the offset y = x - d, r = t - x >= 0
        r = hi - y
        if r <= near:
            # the limit f'(t) next to x = t, to first order in r
            return slope * (1.0 - curve * r)
        if r < mid:
            e = b * math.log1p(-r / hi)
        elif y * hi > 0.0 or (even and y):
            e = b * math.log(abs(y / hi))
        else:
            return (ft - branch_power(y, beta)) / r
        if -1.0 < e < 1.0:
            # f(x) = f(t) e^e, and expm1 keeps the digits that f(t) - f(x)
            # would cancel
            return -ft * math.expm1(e) / r
        return (ft - branch_power(y, beta)) / r

    scale = alpha / kernels.gamma_value(2.0 - alpha)

    def with_body(tol: float) -> tuple[float, float, float]:
        val, err, mag = _substituted(quotient, lo, hi, u, 1.0 - alpha, tol,
                                     mirror=True)
        return (head + val * scale, err * abs(scale),
                abs(head) + abs(scale) * mag)

    value, err, magnitude = with_body(tol)
    if magnitude > 2.0 * abs(value):
        # head and body cancel: tol relative to the value asks that much
        # more of the body
        value, err, magnitude = with_body(
            max(tol * abs(value) / magnitude, _TOL_FLOOR))
    return value, err, magnitude


def _rlfd_at_the_shift(beta: BetaIndex, b: float, alpha: float, u: float,
                       t: float) -> QuadEstimate:
    """D^alpha at t = d of a fractional beta, u = t - a > 0.

    There f(x) = c (t-x)^beta, c = f(-1), and f(t) = 0, so the head vanishes
    and the divided difference folds into the weight: for beta > alpha

        D = -c alpha (t-a)^(beta-alpha) / ((beta-alpha) Gamma(1-alpha)),

    and at alpha = 1 f'(d) = 0.  Its estimate is the floor times
    1 + (beta-alpha) |ln(t-a)| + |beta|/(beta-alpha), the last term for the
    rounding of beta that the difference beta - alpha magnifies.  For
    beta <= alpha the Marchaud integral diverges, and with it the
    derivative's divided difference: ToleranceNotMet.
    """
    if b <= alpha:
        raise ToleranceNotMet(f"f is not smooth at t = d = {t!r}")
    if alpha == 1.0:
        return QuadEstimate(0.0, 0.0)
    e = b - alpha
    value = -branch_power(-1.0, beta) * alpha * float_power(u, e) \
        / (e * kernels.gamma_value(1.0 - alpha))
    estimate = _floor(beta, abs(value)) * (1.0 + e * abs(math.log(u)) + b / e)
    if not (math.isfinite(value) and math.isfinite(estimate)):
        raise ValueOverflow(f"D^{alpha!r} at t={t!r} is beyond the float range")
    return QuadEstimate(value, estimate)
