"""Brute-force evaluators of the defining integrals; the validation oracles.

The fractional integral is computed straight from its definition,

    (1/Gamma(alpha)) * integral_a^t (t-x)^(alpha-1) f(x) dx,

after the substitution s = (t-x)**alpha, which absorbs the endpoint weight
exactly and leaves (1/Gamma(alpha+1)) * integral_0^((t-a)^alpha) f(t-s^(1/alpha)) ds
with a bounded integrand, handled by adaptive Gauss-Kronrod 15(7) panels.
The fractional derivative is a Richardson-extrapolated central difference of
the order-(1-alpha) integral.  Deliberately simple and slow; accuracy, not
speed, is the contract here.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from ._backend import kernels
from .domain import PowerFunction, beta_value, branch_power, require_order
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


class QuadEstimate(NamedTuple):
    value: float
    error_estimate: float


def _gk15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Kronrod value and |K15 - G7| error estimate on one panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    fk = 0.0
    fg = 0.0
    for i in range(7):
        x = half * _XGK[i]
        v = f(mid - x) + f(mid + x)
        fk += _WGK[i] * v
        if i % 2 == 1:
            fg += _WG[(i - 1) // 2] * v
    fc = f(mid)
    fk += _WGK[7] * fc
    fg += _WG[3] * fc
    return fk * half, abs(fk - fg) * abs(half)


def _adaptive(f: Callable[[float], float], lo: float, hi: float,
              abs_tol: float, rel_tol: float, depth: int) -> tuple[float, float]:
    val, err = _gk15(f, lo, hi)
    if err <= max(abs_tol, rel_tol * abs(val)):
        return val, err
    if depth <= 0:
        raise ToleranceNotMet(
            f"panel [{lo!r}, {hi!r}] still at error {err:.3e} at maximum depth")
    mid = 0.5 * (lo + hi)
    v1, e1 = _adaptive(f, lo, mid, 0.5 * abs_tol, rel_tol, depth - 1)
    v2, e2 = _adaptive(f, mid, hi, 0.5 * abs_tol, rel_tol, depth - 1)
    return v1 + v2, e1 + e2


def _require_tol(tol: float) -> None:
    if tol < _TOL_FLOOR:
        raise ValueError(f"tolerances below {_TOL_FLOOR:g} are not achievable")


def quad_rlfi(pf: PowerFunction, a: float, alpha: float, t: float,
              tol: float = DEFAULT_TOL) -> QuadEstimate:
    """Fractional integral straight from the definition, with the
    quadrature's error estimate; tol is both the absolute and the relative
    target of the adaptive panels."""
    _require_tol(tol)
    require_order(alpha)
    if t < a:
        raise ValueError("quad_rlfi requires a <= t")
    for point in (a, t):
        if not pf.contains(point):
            raise ValueError(f"{point!r} outside the power function's domain")
    if beta_value(pf.beta) < 0.0 and a - SPLIT_GUARD <= pf.d <= t + SPLIT_GUARD:
        raise PoleInsideInterval(
            f"integrand pole at x={pf.d!r} touches [{a!r}, {t!r}]")
    if alpha == 0.0:
        return QuadEstimate(pf.value(t), 0.0)
    if a == t:
        return QuadEstimate(0.0, 0.0)
    span = (t - a) ** alpha
    inv = 1.0 / alpha
    # the integrand works in offsets y = x - d from the shift: x = t - s**inv
    # itself would round to a staircase where |d| is large next to t - a
    lo, hi = a - pf.d, t - pf.d

    def integrand(s: float) -> float:
        y = hi - s ** inv
        # clamp float excursions from the substitution back into [a-d, t-d]
        if y < lo:
            y = lo
        elif y > hi:
            y = hi
        return branch_power(y, pf.beta)

    val, err = _adaptive(integrand, 0.0, span, tol, tol, MAX_DEPTH)
    scale = 1.0 / kernels.gamma_value(alpha + 1.0)
    return QuadEstimate(val * scale, err * abs(scale))


def quad_rlfd(pf: PowerFunction, a: float, alpha: float, t: float,
              tol: float = DEFAULT_TOL) -> QuadEstimate:
    """Fractional derivative as d/dt of the order-(1-alpha) integral.

    Central differences at steps h = (t-a)*1e-4 and h/2 are
    Richardson-combined; the extrapolation residual is returned as the error
    estimate.  The inner integrals run two orders tighter than tol so
    difference cancellation does not surface quadrature noise.
    """
    _require_tol(tol)
    require_order(alpha)
    if alpha == 0.0:
        return QuadEstimate(pf.value(t), 0.0)
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
