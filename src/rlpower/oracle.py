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
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from ._backend import kernels
from .domain import PowerFunction, beta_value
from .errors import (
    EvalAtLowerLimit,
    OutOfRadius,
    PoleInsideInterval,
    StepTooLarge,
    ToleranceNotMet,
)

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


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_depth: int = 60
    split_guard: float = 1e-12

    def __post_init__(self):
        floor = 100.0 * math.ulp(1.0)
        if self.abs_tol < floor or self.rel_tol < floor:
            raise ValueError(f"tolerances below {floor:g} are not achievable")


DEFAULT_CONFIG = QuadratureConfig()


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


def quad_rlfi(pf: PowerFunction, a: float, alpha: float, t: float,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadEstimate:
    """Fractional integral straight from the definition, with the
    quadrature's error estimate."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha!r} outside [0, 1]")
    if t < a:
        raise ValueError("quad_rlfi requires a <= t")
    for point in (a, t):
        if not pf.contains(point):
            raise ValueError(f"{point!r} outside the power function's domain")
    if beta_value(pf.beta) < 0.0 and a - cfg.split_guard <= pf.d <= t + cfg.split_guard:
        raise PoleInsideInterval(
            f"integrand pole at x={pf.d!r} touches [{a!r}, {t!r}]")
    if alpha == 0.0:
        return QuadEstimate(pf.value(t), 0.0)
    if a == t:
        return QuadEstimate(0.0, 0.0)
    span = (t - a) ** alpha
    inv = 1.0 / alpha

    def integrand(s: float) -> float:
        x = t - s ** inv
        # clamp float excursions from the substitution back into [a, t]
        if x < a:
            x = a
        elif x > t:
            x = t
        return pf.value(x)

    val, err = _adaptive(integrand, 0.0, span, cfg.abs_tol, cfg.rel_tol,
                         cfg.max_depth)
    scale = 1.0 / kernels.gamma_value(alpha + 1.0)
    return QuadEstimate(val * scale, err * abs(scale))


def quad_rlfd(pf: PowerFunction, a: float, alpha: float, t: float,
              cfg: QuadratureConfig = DEFAULT_CONFIG,
              h: float | None = None) -> QuadEstimate:
    """Fractional derivative as d/dt of the order-(1-alpha) integral.

    Central differences at steps h and h/2 are Richardson-combined; the
    extrapolation residual is returned as the error estimate.  The inner
    integrals run two orders tighter than cfg so difference cancellation does
    not surface quadrature noise.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha!r} outside [0, 1]")
    if alpha == 0.0:
        return QuadEstimate(pf.value(t), 0.0)
    if t == a:
        raise EvalAtLowerLimit("central differences need t > a")
    if h is None:
        h = (t - a) * 1e-4
    if h <= 0.0:
        raise ValueError("h must be positive")
    if t - h <= a:
        raise StepTooLarge(f"t - h = {t - h!r} does not stay above a = {a!r}")
    inner = replace(cfg,
                    abs_tol=max(1e-2 * cfg.abs_tol, 250.0 * math.ulp(1.0)),
                    rel_tol=max(1e-2 * cfg.rel_tol, 250.0 * math.ulp(1.0)))

    def g(tau: float) -> float:
        return quad_rlfi(pf, a, 1.0 - alpha, tau, inner).value

    d1 = (g(t + h) - g(t - h)) / (2.0 * h)
    d2 = (g(t + 0.5 * h) - g(t - 0.5 * h)) / h
    value = (4.0 * d2 - d1) / 3.0
    return QuadEstimate(value, abs(d2 - d1) / 3.0)


def log_reference(a: float, d: float, t: float) -> tuple[float, float]:
    """Closed-form and series values of the beta = -1 integral at order 1.

    Returns (ln((t-d)/(a-d)), series sum of (-1)^k/(k+1) r^(k+1)) with
    r = (t-a)/(a-d); requires d < a <= t < 2a - d so the series converges.
    """
    if not d < a:
        raise OutOfRadius("log reference requires d < a")
    if not a <= t < a + (a - d):
        raise OutOfRadius(
            f"t={t!r} outside the series radius [a, 2a-d) = [{a!r}, {2 * a - d!r})")
    closed = math.log((t - d) / (a - d))
    r = (t - a) / (a - d)
    total = 0.0
    comp = 0.0
    power = r
    k = 0
    while True:
        term = power / (k + 1.0) if k % 2 == 0 else -power / (k + 1.0)
        s = total + term
        if abs(total) >= abs(term):
            comp += (total - s) + term
        else:
            comp += (term - s) + total
        total = s
        power *= r
        k += 1
        # alternating with decreasing magnitude: tail below the next term
        if power / (k + 1.0) <= 1e-17 * max(1.0, abs(total)) or k > 200000:
            break
    return closed, total + comp
