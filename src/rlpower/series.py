"""Series evaluation of the Riemann-Liouville operators on power functions.

For f(t) = (t - d)**beta with lower limit a != d, both operators expand as

    sum_k Gamma(beta+1) (a-d)^(beta-k) (t-a)^(sa+k)
          / (Gamma(beta-k+1) Gamma(sa+k+1)),

convergent on the validated window, at the signed order sa: sa = +alpha gives
the fractional integral of order alpha, and sa = -alpha the fractional
derivative, which is the integral's series with alpha -> -alpha.  Each route
here has one body over sa and a sorted list of points; the ``rlfi_*``/
``rlfd_*`` entries fix its sign and pass it one point.  The series are summed
with a coefficient recurrence and compensated accumulation, truncated when the
proven integration-by-parts tail bound drops below tolerance.  Integer beta >= 0 terminates the series naturally after
m + 1 terms because the gamma ratio zeroes every later coefficient.  On the
centered window a = d only the k = m term survives, and it is the centered
gamma-ratio form Gamma(beta+1)/Gamma(beta+sa+1) (t-d)^(beta+sa), so there the
series entries return ``closed_centered``.  That form, valid for beta > -1,
takes the signed order too.

Orders 0 and 1 are admitted everywhere as reduction checks: alpha = 0 is the
identity operator and alpha = 1 gives the classical integral or derivative.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ._backend import kernels
from .domain import (
    BetaIndex,
    EvalWindow,
    PowerFunction,
    beta_value,
    branch_power,
    require_in_window,
    require_order,
)
from .errors import (
    BetaOutOfRange,
    EvalAtLowerLimit,
    SeriesNotConverged,
    ValueOverflow,
    WindowViolation,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 10000

_INT_TOL = 1e-12


class SeriesStatus(enum.Enum):
    CONVERGED = "converged"
    TRUNCATED = "truncated"
    DIVERGED = "diverged"


_STATUS_FROM_CODE = {
    kernels.STATUS_CONVERGED: SeriesStatus.CONVERGED,
    kernels.STATUS_TRUNCATED: SeriesStatus.TRUNCATED,
    kernels.STATUS_DIVERGED: SeriesStatus.DIVERGED,
}


@dataclass(frozen=True)
class SeriesResult:
    value: float
    terms_used: int
    remainder_bound: float
    status: SeriesStatus


def _beta_kernel_form(beta: BetaIndex) -> tuple[float, int]:
    """Float exponent plus an integer flag for the kernel's bound branches.

    The flag goes by value, not by declared type: a RealExp that happens to
    sit on an integer still terminates and bounds like the integer case.
    """
    b = beta_value(beta)
    is_int = 1 if abs(b - math.floor(b + 0.5)) <= _INT_TOL else 0
    return b, is_int


def _result(raw) -> SeriesResult:
    value, terms, bound, code = raw
    return SeriesResult(value, terms, bound, _STATUS_FROM_CODE[code])


def _wrap(result: SeriesResult, tol: float, op_name: str) -> SeriesResult:
    if result.status is not SeriesStatus.CONVERGED:
        raise SeriesNotConverged(
            f"{op_name}: {result.status.value} after {result.terms_used} terms "
            f"(bound {result.remainder_bound:.3e} > tol {tol:.3e})", result)
    return result


def _guard_lower_limit(a: float, sa: float, t: float) -> None:
    # the k = 0 term carries (t-a)**sa, singular at t = a for -1 < sa < 0
    if -1.0 < sa < 0.0 and t == a:
        raise EvalAtLowerLimit(
            f"derivative series is singular at t = a = {t!r} for alpha={-sa!r}")


def _series(pf: PowerFunction, win: EvalWindow, sa: float, ts: list[float],
            tol: float, max_terms: int) -> list[SeriesResult]:
    """The series route at the signed order sa over the sorted points ts.

    The checks, the exponent's kernel form and the front factor (a-d)^beta
    are made once; each point costs one kernel call.  Statuses are returned
    as they come: the scalar entries raise on a non-converged one.
    """
    for t in ts:
        require_in_window(win, t)
    if win.a == pf.d:
        terms = pf.beta.m + 1
        return [SeriesResult(value, terms, 0.0, SeriesStatus.CONVERGED)
                for value in _closed(pf, sa, ts)]
    for t in ts:
        _guard_lower_limit(win.a, sa, t)
    b, is_int = _beta_kernel_form(pf.beta)
    A = win.a - pf.d
    front = branch_power(A, pf.beta)
    results = []
    for t in ts:
        results.append(_result(kernels.power_series(front, b, A, t - win.a, sa,
                                                    is_int, tol, max_terms)))
    return results


def rlfi_series_displaced(pf: PowerFunction, win: EvalWindow, alpha: float,
                          t: float, tol: float = DEFAULT_TOL,
                          max_terms: int = DEFAULT_MAX_TERMS) -> SeriesResult:
    """Fractional integral of order alpha by the displaced series.

    t = a returns 0 (empty integration interval).  Integer beta >= 0
    terminates naturally after m + 1 terms.
    """
    result = _series(pf, win, require_order(alpha), [t], tol, max_terms)[0]
    return _wrap(result, tol, "rlfi_series_displaced")


def rlfd_series(pf: PowerFunction, win: EvalWindow, alpha: float, t: float,
                tol: float = DEFAULT_TOL,
                max_terms: int = DEFAULT_MAX_TERMS) -> SeriesResult:
    """Fractional derivative of order alpha by the displaced series.

    The k = 0 term carries (t-a)**(-alpha), so t = a is genuinely singular
    for 0 < alpha < 1 and is reported as EvalAtLowerLimit rather than
    silently returning infinity.  On the centered window the one term left
    carries (t-d)**(m-alpha), which is 0 at t = a for m >= 1.
    """
    result = _series(pf, win, -require_order(alpha), [t], tol, max_terms)[0]
    return _wrap(result, tol, "rlfd_series")


def closed_centered(pf: PowerFunction, sa: float, t: float) -> float:
    """Centered closed forms Gamma(beta+1)/Gamma(beta+sa+1) (t-d)^(beta+sa)
    at the signed order sa (+alpha integral, -alpha derivative).

    Valid for beta > -1 only; the Euler-beta argument behind them fails below
    that, which is exactly what the displaced series exist to work around.
    """
    return _closed(pf, sa, [t])[0]


def _closed(pf: PowerFunction, sa: float, ts: list[float]) -> list[float]:
    # closed_centered over the sorted points ts; the coefficient is made once
    beta = beta_value(pf.beta)
    # within 1e-12 of -1 counts as the numerator pole of Gamma(beta+1)
    if beta + 1.0 <= _INT_TOL:
        raise BetaOutOfRange(f"centered closed form requires beta > -1, got {beta!r}")
    require_order(abs(sa))
    exponent = beta + sa
    try:
        if kernels.nonpos_int_index(exponent + 1.0) >= 0:
            coeff = 0.0  # a pole of Gamma(beta+sa+1)
        else:
            coeff = kernels.gamma_sign(exponent + 1.0) * math.exp(
                math.lgamma(beta + 1.0) - math.lgamma(exponent + 1.0))
    except OverflowError:
        coeff = math.inf  # every point's value is beyond the float range
    values = []
    for t in ts:
        x = t - pf.d
        if x < 0.0:
            raise WindowViolation("centered forms need t >= d")
        try:
            value = coeff * math.exp(exponent * math.log(x)) if x > 0.0 else 0.0
        except OverflowError:
            value = math.inf
        if math.isinf(value) or math.isinf(coeff):
            raise ValueOverflow(f"centered value at t - d = {x!r} with beta={beta!r}, "
                                f"sa={sa!r} is beyond the float range")
        if x > 0.0:
            values.append(value)
        elif exponent > 0.0 or coeff == 0.0:
            values.append(0.0)
        elif exponent == 0.0:
            values.append(coeff)
        else:
            raise EvalAtLowerLimit("centered value is singular at t = d")
    return values
