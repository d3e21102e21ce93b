"""Evaluators of the defining integrals that use no 2F1: the validation
oracles.

The fractional integral is computed from its definition,

    J^alpha f(t) = (1/Gamma(alpha)) * integral_a^t (t-x)^(alpha-1) f(x) dx,

and the fractional derivative from one head term and a body,

    D^alpha f(t) = f(t) (t-a)^-alpha / Gamma(1-alpha) + body / Gamma(1-alpha),
    body = integral_a^t ((t-x)^-alpha - (t-a)^-alpha) f'(x) dx,

the Caputo split (Samko, Kilbas and Marichev, Fractional Integrals and
Derivatives, 1993) with (t-a)^-alpha (f(t) - f(a)) moved into the head.  Its
weight vanishes at x = a, so head and body cancel no more than D itself
does; the split from f(a) loses up to five digits at small orders.  It
holds wherever f' is integrable on [a, t]: with the shift outside, and for
a positive beta with the shift at a or inside.

Both integrals are product integration on Chebyshev points, as in
QUADPACK's QAWS (Piessens et al., 1983), the only quadrature here: on a
panel a rule of size n in {16, 24, 32, 48}, built from the moments of a
weight with a singular point at one end (dqmomo's recurrence, in fixed
point, cached per (order, n, lifted)), integrates that weight exactly
against the degree-n interpolant of the rest at the Chebyshev-Lobatto
points.  The rest is analytic inside the Bernstein ellipses that avoid the
singular points beyond the panel, with a closed-form bound M on each, so
the interpolant's error is proven (Trefethen, Approximation Theory and
Approximation Practice, Thm 8.2): the tail is M_0 4 M rho^-n / (rho - 1),
M_0 the weight's mass (_tail).  A panel takes the smallest n whose tail
meets tol times its magnitude, and a value's bound is its tails plus one
rounding term times the magnitude: the roundoff floor, and a rational
beta's rounding magnified by |ln|x-d|| (_rule_of).  [a, t] is first one
panel with its weight at t (_by_rule), which serves every cell where f is
analytic and a normal float on [a, t]; elsewhere the panels are graded
toward t and the shift (_graded).  D's head, made once per point from f(t)
as a float times a power of 2, goes to either body.  At t = d, f is
(t-x)^beta up to sign and folds into the weight.

The route body _quad evaluates a job's sorted points: the checks, the
gamma factors and the rule's parameters are made once per job, and each
point costs one node loop.  quad_rlfi and quad_rlfd take the same path at
one point, and raise ToleranceNotMet where the body truncates the point.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import Callable, NamedTuple

from ._backend import kernels
from .domain import (BetaIndex, IntegerExp, PowerFunction, RationalExp,
                     beta_value, float_power, require_order)
from .errors import (EvalAtLowerLimit, PoleInsideInterval, ToleranceNotMet,
                     ValueOverflow)
from .series import Columns

DEFAULT_TOL = 1e-11
# how close the shift may come to [a, t] before a negative exponent's pole
# counts as inside the interval
SPLIT_GUARD = 1e-12
_TOL_FLOOR = 100.0 * math.ulp(1.0)
_TINY = 2.0 ** -1022  # the smallest normal float
# sizes n of the Chebyshev product rules, smallest first
_RULE_SIZES = (16, 24, 32, 48)


class QuadEstimate(NamedTuple):
    value: float
    error_estimate: float


# a job's parameters, made once by _rule_of
_Rule = collections.namedtuple(
    "_Rule", "alpha derivative e power degree mass floor flip b sign slack")


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
             rule: _Rule, tol: float) -> tuple[float, float] | None:
    """head + scale * integral_-1^1 v(y) g(x) dy, v the weight of _rule
    (alpha, n, lifted), at the offset x = lo + u (1+y)/2 from the shift, by
    the smallest product rule whose tail meets tol, less the roundoff floor,
    times the magnitude |head| + |scale| sum_j |W_j g(x_j)|: its value and
    its bound, the tail plus the rounding (_rule_of) times the magnitude.
    None where no size meets tol, where g at an end of [a, t] leaves the
    normal float range, and where the shift lies in [a, t] unless g is a
    polynomial of at most the largest size's degree.

    g(x) is x^e, or x^power / x where power = e + 1: f' = beta f/x of a
    fractional beta, where the rounding of beta - 1 would move g by ln|x|
    times its ulp.  An integer e takes x^e with its sign; a fractional one
    needs every offset on one side of the shift, and with flip = -1 (below
    it) takes (-x)^e, so that x^e's sign goes into scale.  The tail is
    _tail's for the one power |x-d|^e; a polynomial of at most degree n is
    integrated exactly.
    """
    e, power, degree, floor = rule.e, rule.power, rule.degree, rule.floor
    divided = power != e
    # the shift's distance from the midpoint, in half-widths
    yd = abs(lo + hi) / u
    rho_d, rounding = 1.0, floor
    try:
        if yd > 1.0:
            # |x|^power and |x|^e are least at an end; past the largest
            # float the node loop raises
            near, far = (lo, hi) if lo > 0.0 else (-hi, -lo)
            if not (near if power > 0.0 else far) ** power >= _TINY or divided \
                    and not (near if e > 0.0 else far) ** e >= _TINY:
                return None
            rho_d = yd + yd * math.sqrt((1.0 - 1.0 / yd) * (1.0 + 1.0 / yd))
            if rule.slack:
                rounding += rule.slack * max(-math.log(near), math.log(far))
        elif degree is None or degree > _RULE_SIZES[-1]:
            return None
        powers = ((yd, rho_d, e),)
        front = 4.0 * abs(scale) * rule.mass
        front = math.log(front) if front else -math.inf
        need = math.inf
        x_lo, x_hi, x_u = (lo, hi, u) if rule.flip > 0.0 else (-lo, -hi, -u)
        for n in _RULE_SIZES:
            bound = 0.0 if degree is not None and n >= degree \
                else _tail(front, n, u, powers, False)
            if bound > need:
                continue
            total = absum = 0.0
            for h, r, w in _rule(rule.alpha, n, rule.derivative):
                x = x_hi - x_u * r if r < 0.5 else x_lo + x_u * h
                v = w * x ** power / x if divided else w * x ** power
                total += v
                absum += v if v > 0.0 else -v
            value = head + scale * total
            magnitude = abs(head) + abs(scale) * absum
            if not _TINY <= magnitude < math.inf:
                return None
            need = (tol - floor) * magnitude
            if magnitude > 2.0 * abs(value):
                # head and body cancel: tol relative to the value
                need = min(need, max(tol * abs(value), _TOL_FLOOR * magnitude))
            if bound <= need:
                return value, bound + rounding * magnitude
    except OverflowError:
        pass  # a power beyond the float range: the graded panels report it
    return None


def _tail(front: float, n: int, u: float, powers, smooth: bool) -> float:
    """The tail 4 |scale| mass M rho^-n / (rho - 1) of the size-n rule on a
    panel of width u, front the log of its first factors, where the rest of
    the integrand is the product of |x-s|^e over (yd, rho_d, e) in powers,
    s yd > 1 half-widths from the middle, on the ellipse E_rho_d.  rho is
    the smallest of rho_d / (1 - e/n) (near the best for e < 0) and rho_d;
    on E_rho |x-s|^e is largest at the vertex nearest s for e < 0, (u/2)
    (rho_d - rho) (1 - 1/(rho rho_d)) / 2 from it, else at the farthest.
    `smooth` adds the factor A + 1, A = (rho + 1/rho)/2: E_rho reaches
    (u/2) (A + 1) from an end of the panel."""
    rho = math.inf
    for _, rho_d, e in powers:
        rho = min(rho, rho_d / (1.0 - e / n) if e < 0.0 else rho_d)
    if rho <= 1.0:
        return math.inf
    vertex = 0.5 * (rho + 1.0 / rho)
    log_m = math.log(vertex + 1.0) if smooth else 0.0
    for yd, rho_d, e in powers:
        # in half-widths, whose log keeps a subnormal width's distances
        dist = 0.5 * (rho_d - rho) * (1.0 - 1.0 / (rho * rho_d)) if e < 0.0 \
            else yd + vertex
        if not 0.0 < dist < math.inf:
            return math.inf
        log_m += e * (math.log(dist) + math.log(u) - math.log(2.0))
    return math.exp(min(front + log_m - n * math.log(rho) - math.log(rho - 1.0),
                        709.0))


def _graded(lo: float, hi: float, u: float, gamma: float, head: float,
            power_u, rule: _Rule, tol: float) -> tuple[float, float]:
    """J^alpha (gamma = Gamma(alpha), head 0) or D^alpha (gamma =
    Gamma(1-alpha), _rlfd_at's head and power_u = (t-a)^-alpha) of f on
    graded panels, at the offsets lo = a - d and hi = t - d != 0 from the
    shift, u = t - a: the value and its bound, inf beyond the float range.
    [a, t] is split at the shift when it lies inside; a panel is halved
    while it holds the shift and t at its ends, one of them lies closer to
    it than its width, or its tail misses tol times its magnitude, and
    ToleranceNotMet ends it at the float resolution.  Its weight sits at t,
    else at the shift (|x-d|^beta of f, or f''s |x-d|^(beta-1)), else
    nowhere.  On [x0, x1] D's weight is (t-x)^-alpha - (t-x0)^-alpha, lifted
    at t and a factor of the rest elsewhere, plus the constant (t-x0)^-alpha
    - (t-a)^-alpha against f(x1) - f(x0) in closed form.  Cancellation is met
    as in _by_rule, and a panel's rounding takes the largest |ln|x-d|| on it
    (its mean plus 1/order at the shift)."""
    alpha, derivative, e, b = rule.alpha, rule.derivative, rule.e, rule.b
    below, slack = rule.sign, rule.slack

    def panel(x0: float, x1: float, w: float, at_d: bool, tol: float):
        up = x1 > 0.0
        sign = (1.0 if up else below) / gamma
        if derivative:
            sign *= b if up else -b
        # the weight's end and the other one, and the distances of a node
        # from a point s: (|s - end|, |s - other|, their difference)
        end, other = (x0, x1) if at_d and up else (x1, x0)
        to_d = (abs(end), abs(other), abs(end) - abs(other), e, rule.power)
        to_t = (hi - end, hi - other, other - end)
        if x1 == hi:
            # (t-x)^(alpha-1), or D's lifted weight, at t
            order, powers = 1.0 - alpha if derivative else alpha, [to_d]
        elif at_d:
            # |x-d|^beta, or f''s |x-d|^(beta-1), at the shift
            order, powers = b if derivative else b + 1.0, []
        else:
            order, powers = 1.0, [to_d]
        if x1 != hi and not derivative and alpha < 1.0:
            # (t-x)^alpha / (t-x): alpha - 1 rounds, and ln(t-x) magnifies it
            powers.append((*to_t, alpha - 1.0, alpha))
        lifted, smooth = derivative and x1 == hi, derivative and x1 != hi
        # the scale as a float times a power of 2, so that a panel's powers
        # leave the float range only where its value does
        scale, expo = _power(0.5 * w, order)
        scale *= sign
        # the log of 4 |sign| (w/2)^order times the weight's mass
        front = math.log(4.0 * abs(sign)) + order * math.log(w) + (
            math.log(alpha / (1.0 - alpha)) if lifted else -math.log(order)) \
            if sign else -math.inf
        # D away from t: (t-x)^-alpha - (t-x0)^-alpha, the integral of
        # alpha (t-s)^(-alpha-1) from x0 to x, so that its modulus on the
        # ellipses is at most alpha |x-x0| |t-x|^(-alpha-1); the nodes take
        # it times (t-x0)^alpha, and the scale (t-x0)^-alpha
        t0 = hi - x0
        if smooth:
            front += math.log(0.5 * alpha) + math.log(w)
        # each point's distance from the middle in half-widths, its ellipse's
        # rho, and its exponent
        geo = [((x_hi + x_lo) / w, e_) for x_hi, x_lo, _, e_, _ in powers] \
            + ([((to_t[0] + to_t[1]) / w, -alpha - 1.0)] if smooth else [])
        geo = [(yd, yd + yd * math.sqrt((1.0 - 1.0 / yd) * (1.0 + 1.0 / yd)), e_)
               for yd, e_ in geo]
        # the nodes take each distance in units of the power of 2 next to
        # the one from the middle, which is exact, and the scale that unit^e,
        # as unit^power / unit where the nodes do
        for i, (x_hi, x_lo, x_u, e_, p) in enumerate(powers):
            unit = math.frexp(x_hi + x_lo)[1] - 1
            powers[i] = (math.ldexp(x_hi, -unit), math.ldexp(x_lo, -unit),
                         math.ldexp(x_u, -unit), e_, p)
            part, shift = _power(math.ldexp(1.0, unit), p)
            scale, expo = scale * part, expo + shift - (unit if p != e_ else 0)
        if smooth:
            part, shift = _power(t0, -alpha)
            scale, expo = scale * part, expo + shift
        need = math.inf
        for n in _RULE_SIZES:
            bound = _tail(front, n, w, geo, smooth)
            if bound > need:
                continue
            total = absum = 0.0
            for h, r, weight in _rule(alpha if lifted else order, n, lifted):
                v = weight
                for x_hi, x_lo, x_u, e_, p in powers:
                    x = x_hi - x_u * r if r < 0.5 else x_lo + x_u * h
                    v *= x ** p / x if p != e_ else x ** p
                if smooth:
                    # x - x0 from the end nearer to it
                    v *= math.expm1(-alpha * math.log1p(
                        -w * (r if end == x0 else h) / t0))
                total += v
                absum += v if v > 0.0 else -v
            magnitude = math.ldexp(abs(scale) * absum, expo)
            # the floor's share of tol left to the tail, as in _by_rule
            need = max(tol - rule.floor, 0.5 * tol) * magnitude
            # a panel whose scale underflows adds nothing
            if bound <= need or not magnitude and bound < math.inf:
                value = math.ldexp(scale * total, expo)
                if derivative and x0 != lo:
                    # ((t-x0)^-alpha - (t-a)^-alpha) (f(x1) - f(x0)), with
                    # log((t-x0)/(t-a)) from the nearer of a and t
                    rise, shift = _power(abs(x0 or x1), b)
                    rise *= math.expm1(b * math.log(x1 / x0)) if x0 and x1 \
                        else 1.0 if x0 == 0.0 else -1.0
                    s0 = x0 - lo
                    ratio = math.log1p(-s0 / u) if s0 < t0 else math.log(t0 / u)
                    step = math.ldexp(power_u[0] * math.expm1(-alpha * ratio)
                                      * rise * (1.0 if up else below) / gamma,
                                      shift + power_u[1])
                    value += step
                    magnitude += abs(step)
                # the exponents' rounding, of beta and of J's 1 + beta at d,
                # where |ln|x-d|| exceeds its mean by at most 1/order
                spread = max(abs(math.log(size)) for size
                             in (abs(x0), abs(x1), 0.5 * w) if size)
                exponent = slack
                if at_d:
                    spread += 1.0 / order
                    if not derivative:
                        exponent += abs(order - 1.0 - b)
                return value, bound + exponent * spread * magnitude, magnitude
        return None

    def panels(tol: float) -> tuple[float, float, float]:
        value = tails = magnitude = 0.0
        stack = [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]
        while stack:
            x0, x1 = stack.pop()
            w = x1 - x0
            at_d, at_t = x0 == 0.0 or x1 == 0.0, x1 == hi
            got = None
            if w > 0.0 and (at_d or max(x0, -x1) >= w) \
                    and (at_t or hi - x1 >= w) and not (at_d and at_t):
                got = panel(x0, x1, w, at_d, tol)
            if got is None:
                mid = 0.5 * (x0 + x1)
                if not x0 < mid < x1:
                    raise ToleranceNotMet(
                        f"panel [{x0!r}, {x1!r}] from the shift is at the "
                        "float resolution")
                stack += ((x0, mid), (mid, x1))
            else:
                value += got[0]
                tails += got[1]
                magnitude += got[2]
        return head + value, tails, abs(head) + magnitude

    try:
        value, tails, magnitude = panels(tol)
        if not math.isfinite(magnitude):
            return value, math.inf
        strict = max(tol * abs(value), _TOL_FLOOR * magnitude)
        if magnitude > 2.0 * abs(value) and tails > strict:
            value, tails, magnitude = panels(strict / magnitude)
    except OverflowError:
        return math.inf, math.inf
    # and the head's f(t) = |t-d|^beta, its rounded beta magnified by ln|t-d|
    return value, tails + rule.floor * magnitude \
        + slack * abs(math.log(abs(hi))) * abs(head)


def _power(x: float, y: float) -> tuple[float, int]:
    """x^y = m 2^n for x >= 0 as (m, n), m between 2^-512 and 2^513 for any
    y: frexp(x^y) where x^y is a normal float.  Else, with x = f 2^E, f in
    [1/2, 1), and E y split exactly into n and a fraction, m = f^y
    2^fraction, f^y taken as the square of f^(y/2) for |y| > 512."""
    try:
        m = x ** y
    except OverflowError:
        m = 0.0
    if m >= _TINY:
        return math.frexp(m)
    f, exp = math.frexp(x)
    p, q = y.as_integer_ratio()
    whole, part = divmod(exp * p, q)
    if abs(y) > 512.0:
        m, n = _power(f, 0.5 * y)
        m, k = math.frexp(m * m)
        return m * 2.0 ** (part / q), whole + 2 * n + k
    return f ** y * 2.0 ** (part / q), whole


def _rule_of(alpha: float, derivative: bool, beta: BetaIndex,
             below: bool) -> tuple[_Rule, float]:
    """The job's _Rule and the factor of g in _by_rule's integrand, for J,
    whose integrand is f, or D (`derivative`), f' on the lifted weight, on
    the job's side of the shift (below it with `below`).  The factor is the
    sign of f(x) = (x-d)^beta against |x|^beta, times beta for f'.  The rule
    holds g's e and power, a polynomial g's degree, the weight's mass, flip
    = -1 where g is of -x, b = beta's float, sign = f(x) / |x-d|^beta below
    the shift, and both bodies' rounding: floor, and slack = |b - p/q| for
    a rational beta = p/q, which |x-d|^b magnifies by |ln|x-d||."""
    b = beta_value(beta)
    integer = isinstance(beta, IntegerExp)
    rational = isinstance(beta, RationalExp)
    if not derivative:
        e = power = b
    elif integer:
        # m x^(m-1), and none of a constant
        e = power = b - 1.0 if b else 0.0
    else:
        e, power = b - 1.0, b
    degree = round(e) if integer and beta.m >= 0 else None
    # the roundoff floor, in ulps of the magnitude summed, with 2 |beta| ulps
    # for the rounded a - d and t - a, which move every offset alike.
    # Measured against 40-digit mpmath, both backends: J on 40 000 random
    # window cells at most 6.3 + 2 |beta| ulps of the magnitude, D on 79 707
    # at most 6.8 + 2 |beta|, and beyond the tails on 1 105 graded cells
    # (centered, shift inside, 1e-11 to 1 beyond an end) 4.1 + 2 |beta|
    floor = (16.0 + 2.0 * abs(b)) * math.ulp(1.0)
    num, den = b.as_integer_ratio()
    slack = abs(num * beta.q - beta.p * den) / (den * beta.q) if rational \
        else 0.0
    odd = beta.m % 2 if integer else rational and beta.p % 2
    sign = -1.0 if below and odd else 1.0
    flip = -1.0 if below and not integer else 1.0
    factor = sign if flip < 0.0 else 1.0
    if derivative:
        # f'(x) = beta f(x)/x, and d|x|/dx = flip
        factor *= b * flip
    # the weight's integral, none for D at alpha = 1
    mass = 2.0 ** alpha / alpha if not derivative else math.inf \
        if alpha == 1.0 else 2.0 ** (1.0 - alpha) * alpha / (1.0 - alpha)
    return _Rule(alpha, derivative, e, power, degree, mass, floor, flip, b, sign,
                 slack), factor


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
    of the error relative to the integral of |f|.  The error estimate is a
    proven bound: the product rules' tails plus the rounding term.  A value
    or estimate beyond the float range raises ValueOverflow."""
    return QuadEstimate(*_rlfi_at(pf, a, alpha, tol)(t))


def _rlfi_at(pf: PowerFunction, a: float, alpha: float,
             tol: float) -> Callable[[float], tuple[float, float]]:
    """quad_rlfi at one point t of a job, as (value, estimate): the
    tolerance, the order, beta's float and sign, Gamma(alpha) and the
    rule's parameters are made once."""
    _require_tol(tol)
    require_order(alpha)
    if alpha:
        gamma = kernels.gamma_value(alpha)
        rule, factor = _rule_of(alpha, False, pf.beta, a < pf.d)

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
            e = alpha + rule.b
            value = rule.sign * float_power(u, e) / (e * gamma)
            estimate = rule.floor * abs(value) * (1.0 + e * abs(math.log(u)))
        else:
            got = _by_rule(lo, hi, u,
                           float_power(0.5 * u, alpha) / gamma * factor, 0.0,
                           rule, tol)
            if got is not None:
                return got
            value, estimate = _graded(lo, hi, u, gamma, 0.0, None, rule, tol)
        if not (math.isfinite(value) and math.isfinite(estimate)):
            raise ValueOverflow(f"J^{alpha!r} at t={t!r} is beyond the float range")
        return value, estimate

    return at


def quad_rlfd(pf: PowerFunction, a: float, alpha: float, t: float,
              tol: float = DEFAULT_TOL) -> QuadEstimate:
    """Fractional derivative by the Caputo split with its head at f(t) (see
    the module), on product rules of order 1 - alpha.  The error estimate is
    a proven bound: the rules' tails plus the rounding term on |head| +
    |body|; where head and body cancel, tol is taken relative to the value,
    down to the tolerance floor.  alpha = 0 gives f(t) and alpha = 1 gives
    f'(t).  t <= a raises EvalAtLowerLimit, and a negative beta's pole at
    or inside [a, t] PoleInsideInterval.  A shift at t folds f into the
    weight (_rlfd_at_the_shift)."""
    return QuadEstimate(*_rlfd_at(pf, a, alpha, tol)(t))


def _rlfd_at(pf: PowerFunction, a: float, alpha: float,
             tol: float) -> Callable[[float], tuple[float, float]]:
    """quad_rlfd at one point t of a job, as (value, estimate): the
    tolerance, the order, beta's float and sign, Gamma(1-alpha) and the
    rule's parameters are made once."""
    _require_tol(tol)
    require_order(alpha)
    integer = isinstance(pf.beta, IntegerExp)
    if alpha:
        rule, factor = _rule_of(alpha, True, pf.beta, a < pf.d)
    if 0.0 < alpha < 1.0:
        gamma = kernels.gamma_value(1.0 - alpha)

    def at(t: float) -> tuple[float, float]:
        if alpha == 0.0:
            return pf.value(t), 0.0
        if t <= a:
            raise EvalAtLowerLimit("the head term (t-a)^-alpha needs t > a")
        _require_interval(pf, a, t)
        lo, hi, u = a - pf.d, t - pf.d, t - a
        if hi == 0.0 and not integer:
            return _rlfd_at_the_shift(rule, u, t)
        if alpha == 1.0 and not hi:
            # f'(d) of an integer: 1 for beta = 1
            value = float(rule.b == 1.0)
            return value, rule.floor * value
        # f(t) = sign |t-d|^beta as a float times a power of 2, so that what
        # is made of it leaves the float range only where it does
        f_t, shift = _power(abs(hi), rule.b)
        f_t *= rule.sign if hi < 0.0 else 1.0
        try:
            if alpha == 1.0:
                # f'(t) = beta f(t) / (t-d), bound by the rounding at t
                m, k = math.frexp(hi)
                value = math.ldexp(rule.b * f_t / m, shift - k)
                return value, (rule.floor
                               + rule.slack * abs(math.log(abs(hi)))) * abs(value)
            # D's head f(t) (t-a)^-alpha / Gamma(1-alpha)
            power_u = _power(u, -alpha)
            head = math.ldexp(f_t * power_u[0] / gamma, shift + power_u[1])
        except OverflowError:
            raise ValueOverflow(f"D^{alpha!r} at t={t!r} is beyond the float "
                                "range") from None
        got = _by_rule(lo, hi, u,
                       float_power(0.5 * u, 1.0 - alpha) / gamma * factor,
                       head, rule, tol)
        if got is not None:
            return got
        if hi == 0.0:
            # an integer beyond the rules' degree
            return _rlfd_at_the_shift(rule, u, t)
        value, estimate = _graded(lo, hi, u, gamma, head, power_u, rule, tol)
        if not (math.isfinite(value) and math.isfinite(estimate)):
            raise ValueOverflow(f"D^{alpha!r} at t={t!r} is beyond the float range")
        return value, estimate

    return at


def _rlfd_at_the_shift(rule: _Rule, u: float, t: float) -> QuadEstimate:
    """D^alpha at t = d, u = t - a > 0, of a fractional beta or an integer
    one beyond the rules' degree, with the job's _rule_of.

    There f(x) = c (t-x)^beta, c = f(-1), and f(t) = 0, so the head vanishes
    and f' folds into the weight: for beta > alpha

        D = -c alpha (t-a)^(beta-alpha) / ((beta-alpha) Gamma(1-alpha)),

    and at alpha = 1 f'(d) = 0.  Its estimate is the floor times
    1 + (beta-alpha) |ln(t-a)| + |beta|/(beta-alpha), the last term for the
    rounding of beta that the difference beta - alpha magnifies.  For
    beta <= alpha, f' is not integrable at t and no value is returned:
    ToleranceNotMet.
    """
    alpha, b = rule.alpha, rule.b
    if b <= alpha:
        raise ToleranceNotMet(f"f is not smooth at t = d = {t!r}")
    if alpha == 1.0:
        return QuadEstimate(0.0, 0.0)
    e = b - alpha
    value = -rule.sign * alpha * float_power(u, e) \
        / (e * kernels.gamma_value(1.0 - alpha))
    estimate = rule.floor * abs(value) * (1.0 + e * abs(math.log(u)) + b / e)
    if not (math.isfinite(value) and math.isfinite(estimate)):
        raise ValueOverflow(f"D^{alpha!r} at t={t!r} is beyond the float range")
    return QuadEstimate(value, estimate)
