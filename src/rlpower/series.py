"""Series evaluation of the Riemann-Liouville operators on power functions.

Both operators are taken at the signed order sa: sa = +alpha gives the
fractional integral of order alpha, and sa = -alpha the fractional
derivative, the integral's series with alpha -> -alpha.  Each route here has
one body over sa and a sorted list of points; the ``rlfi_*``/``rlfd_*``
entries fix its sign and pass it one point.  For f(t) = (t - d)**beta the
body takes one expansion per side of the shift:

* Above the shift (a > d) f is expanded at the upper limit t, and the
  operator is one Gauss series (DLMF 15.8.1 on the b parameter of the
  paper's 2F1(1, -beta; 1+sa; -w), w = (t-a)/(a-d)):

      (t-d)^beta (t-a)^sa / Gamma(1+sa) 2F1(sa, -beta; 1+sa; z),
      z = (t-a)/(t-d) < 1/2 on the window.

  Its cost stays flat up to the window edge.  The reported bound is a proven
  geometric tail after the kernel's stop plus a measured roundoff floor on a
  closed majorant of sum |term|.  At sa = 0 the 2F1 terminates at 1, and at
  sa = -1 its removable pole c = 0 leaves f'(t).  For beta < -2 - sa the hyp
  route's Pfaff transform on b sums this same term sequence, so there the
  two routes differ only in arithmetic and the oracle is the independent
  check.
* Below the shift (a < d) f is expanded at the lower limit a, the displaced
  series

      sum_k Gamma(beta+1) (a-d)^(beta-k) (t-a)^(sa+k)
            / (Gamma(beta-k+1) Gamma(sa+k+1)),

  summed with a coefficient recurrence and compensated accumulation and
  truncated when the proven integration-by-parts tail bound drops below
  tolerance; its bound is that tail or the roundoff floor eps sum |term|,
  whichever is larger.  Its window is half the distance to the shift, so
  |w| <= 1/2 there.

Integer beta >= 0 terminates either series naturally after m + 1 terms.  On
the centered window a = d only the k = m term of the displaced series
survives, and it is the centered gamma-ratio form
Gamma(beta+1)/Gamma(beta+sa+1) (t-d)^(beta+sa), so there the series entries
return ``closed_centered``.  That form, valid for beta > -1, takes the signed
order too.

Orders 0 and 1 are admitted everywhere as reduction checks: alpha = 0 is the
identity operator and alpha = 1 gives the classical integral or derivative.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from ._backend import kernels
from .domain import (
    BetaIndex,
    EvalWindow,
    PowerFunction,
    beta_value,
    branch_power,
    float_power,
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
_EPS = 2.220446049250313e-16
_FLOAT_MAX = sys.float_info.max
# 16 times the smallest subnormal: the rounding of a product that underflows
_TINY = 2.0 ** -1070
# Roundoff floor of the upper-limit expansion, in units of eps times the
# closed majorant of the 2F1 and the value's front factor.  Measured against
# 40-digit mpmath on both backends (12 000 random points, |beta| <= 400,
# fractions 1e-6 to 0.9999, orders 0 to 1, at tol 1e-16): the worst error was
# about 12 + 0.5 |beta| of these units, and 0.64 of the floor below.
_FLOOR_ULPS = 24.0
_FLOOR_ULPS_PER_B = 1.2


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

    The checks and the front factor (a-d)^beta are made once, the latter
    first among the numeric work, so that its ValueOverflow comes before any
    point's.  Each point costs one kernel call.  Statuses are returned as
    they come: the scalar entries raise on a non-converged one.
    """
    for t in ts:
        require_in_window(win, t)
    if win.a == pf.d:
        terms = pf.beta.m + 1
        return [SeriesResult(value, terms, 0.0, SeriesStatus.CONVERGED)
                for value in _closed(pf, sa, ts)]
    for t in ts:
        _guard_lower_limit(win.a, sa, t)
    A = win.a - pf.d
    front = branch_power(A, pf.beta)
    if A > 0.0:
        return _upper_limit(front, beta_value(pf.beta), A, win.a, sa, ts, tol,
                            max_terms)
    if ts and -1.0 < sa < 0.0 and kernels.nonpos_int_index(sa + 1.0) < 0:
        # the kernel's first term carries u**sa, largest at the first point
        float_power(ts[0] - win.a, sa)
    b, is_int = _beta_kernel_form(pf.beta)
    results = []
    for t in ts:
        results.append(_result(kernels.power_series(front, b, A, t - win.a, sa,
                                                    is_int, tol, max_terms)))
    return results


def _upper_limit(front: float, b: float, A: float, a: float, sa: float,
                 ts: list[float], tol: float,
                 max_terms: int) -> list[SeriesResult]:
    """Above the shift, at each of the sorted points ts, with u = t - a,
    w = u/A and z = w/(1+w) = (t-a)/(t-d) < 1/2:

        front (1+w)^b u^sa / Gamma(1+sa) 2F1(sa, -b; 1+sa; z),

    front = (a-d)^b.  (1+w)^b lies between 2^-|b| and 2^|b|, and it is
    multiplied into the 2F1 first, so the value underflows or overflows only
    where the value itself does.

    The kernel's stop rule leaves the first omitted term |t_n| at most
    0.5 tol' max(1, |F|) (1-z), and every later term ratio is at most
    rho = z max(1, |n-b|/(n+1)), so the tail is at most |t_n|/(1-rho); the
    kernel target tol' = tol/max(1, |front (1+w)^b u^sa/Gamma(1+sa)|) puts
    that at the value's scale.  The roundoff floor is
    (_FLOOR_ULPS + _FLOOR_ULPS_PER_B |b|) eps times the closed majorant
    sum |t_k| <= max(1, -sa/(1+sa)) (1-z)^-|b|, or for b > 0 the smaller of
    that and max(1, -sa/(1+sa)) (1+z)^ceil(b) / (1-z) (|(-b)_k/k!| is at
    most binomial(ceil(b), k) below ceil(b) and at most 1 from there),
    plus _TINY (1 + |(1+w)^b F|) for a value in the subnormal range.  A
    kernel that terminates at an exponent or order snapped to an integer
    within delta (the kernels' 1e-12) leaves a tail of at most
    2 delta max(1, -sa/(1+sa)) (1-z)^-|b| / (1-z); exact integers leave 0.

    sa = -1 is the removable pole c = 0 of 2F1/Gamma(c), and the value is
    f'(t) = front b/A (1+w)^(b-1).  An order within 1e-12 of 1 is summed as
    1, as the kernels' pole test has it, with an unknown (inf) bound.
    """
    floor_ulps = (_FLOOR_ULPS + _FLOOR_ULPS_PER_B * abs(b)) * _EPS
    results = []
    if kernels.nonpos_int_index(1.0 + sa) == 0:
        lead = front * b / A
        exact = sa == -1.0
        for t in ts:
            value = lead * float_power(1.0 + (t - a) / A, b - 1.0)
            if not abs(value) <= _FLOAT_MAX:
                raise ValueOverflow(f"f'({t!r}) with beta={b!r} is beyond the "
                                    "float range")
            if exact:
                bound = floor_ulps * abs(value) + _TINY
                results.append(SeriesResult(value, 1, bound,
                                            SeriesStatus.CONVERGED))
            else:
                results.append(SeriesResult(value, 1, math.inf,
                                            SeriesStatus.TRUNCATED))
        return results
    c = 1.0 + sa
    scale = front / kernels.gamma_value(c)  # > 0
    scale_sa = max(1.0, -sa / c)
    floor_sa = floor_ulps * scale_sa
    k_sa = kernels.nonpos_int_index(sa)
    k_b = kernels.nonpos_int_index(-b)
    # the kernel stops at the first zero parameter; snap is that parameter's
    # distance from its integer, or -1 when the series does not terminate
    snap = abs(sa) if k_sa >= 0 else abs(b - k_b) if k_b >= 0 else -1.0
    neg_b, ceil_b = -b, math.ceil(b)
    hyp2f1_series, converged = kernels.hyp2f1_series, kernels.STATUS_CONVERGED
    for t in ts:
        u = t - a
        if u == 0.0 and sa > 0.0:  # the empty integral
            results.append(SeriesResult(0.0, 0, 0.0, SeriesStatus.CONVERGED))
            continue
        w = u / A
        s = 1.0 + w
        z = w / s
        try:
            g = scale * u ** sa
            s_b = s ** b
        except OverflowError:
            g = s_b = math.inf
        mag = g * s_b
        if not mag <= _FLOAT_MAX:
            raise ValueOverflow(f"series front at t={t!r} with beta={b!r}, "
                                f"sa={sa!r} is beyond the float range")
        ktol = tol / mag if mag > 1.0 else tol
        f, n, code = hyp2f1_series(sa, neg_b, c, z, ktol, max_terms)
        sf = s_b * f
        value = g * sf
        # (1+w)^b times the majorant's (1-z)^-|b| = (1+w)^|b|, or for b > 0
        # its alternative (1+z)^ceil(b) / (1-z)
        if b > 0.0:
            try:
                alt = (1.0 + z) ** ceil_b * s
            except OverflowError:
                alt = math.inf
            sm = s_b * (s_b if s_b < alt else alt)
        else:
            sm = 1.0
        if code == converged:
            if snap < 0.0:
                ratio = abs(n - b) / (n + 1.0)
                rho = z * ratio if ratio > 1.0 else z
                size = abs(f)
                tail = (0.5 * ktol * (size if size > 1.0 else 1.0) * (1.0 - z)
                        / (1.0 - rho) * s_b) if rho < 1.0 else math.inf
            else:  # on the (1-z)^-|b| majorant, as the snap bound needs
                sm_b = s_b * s_b if b > 0.0 else 1.0
                tail = 2.0 * snap * scale_sa * sm_b / (1.0 - z)
        else:
            truncated = code == kernels.STATUS_TRUNCATED
            tail = scale_sa * sm if truncated else math.inf
        bound = g * (tail + floor_sa * sm) + _TINY * (1.0 + abs(sf))
        size = abs(value)
        if not size <= _FLOAT_MAX or code == kernels.STATUS_DIVERGED:
            status, bound = SeriesStatus.DIVERGED, math.inf
        elif code == converged and bound <= tol * max(1.0, size):
            status = SeriesStatus.CONVERGED
        else:
            status = SeriesStatus.TRUNCATED
        results.append(SeriesResult(value, n, bound, status))
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
