"""Series evaluation of the Riemann-Liouville operators on power functions.

For f(t) = (t - d)**beta with lower limit a != d, both operators expand as

    sum_k Gamma(beta+1) (a-d)^(beta-k) (t-a)^(sa+k)
          / (Gamma(beta-k+1) Gamma(sa+k+1)),

convergent on the validated window, at the signed order sa: sa = +alpha gives
the fractional integral of order alpha, and sa = -alpha the fractional
derivative, which is the integral's series with alpha -> -alpha.  Each route
here has one body over sa; the ``rlfi_*``/``rlfd_*`` entries only fix its
sign.  The series are summed with a coefficient recurrence and compensated
accumulation, truncated when the proven integration-by-parts tail bound drops
below tolerance.  Integer beta >= 0 terminates the series naturally after
m + 1 terms because the gamma ratio zeroes every later coefficient; that
finite sum is also exposed directly and is valid for every real a and t,
including the centered case a = d.

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
    IntegerExp,
    PowerFunction,
    WindowSide,
    beta_value,
    branch_power,
    make_window,
    require_in_window,
)
from .errors import (
    BetaOutOfRange,
    EvalAtLowerLimit,
    SeriesNotConverged,
    WindowViolation,
)
from .special import gamma_ratio, gen_binomial

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 10000

_INT_TOL = 1e-12


class OperatorKind(enum.Enum):
    INTEGRAL = "J"
    DERIVATIVE = "D"


class Route(enum.Enum):
    SERIES = "series"
    HYPERGEOMETRIC = "hyp"
    ORACLE = "oracle"
    CLOSED_CENTERED = "closed"


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


def _wrap(raw, tol: float, op_name: str) -> SeriesResult:
    value, terms, bound, code = raw
    result = SeriesResult(value, terms, bound, _STATUS_FROM_CODE[code])
    if result.status is not SeriesStatus.CONVERGED:
        raise SeriesNotConverged(
            f"{op_name}: {result.status.value} after {terms} terms "
            f"(bound {bound:.3e} > tol {tol:.3e})", result)
    return result


def _guard_lower_limit(a: float, sa: float, t: float) -> None:
    # the k = 0 term carries (t-a)**sa, singular at t = a for -1 < sa < 0
    if -1.0 < sa < 0.0 and t == a:
        raise EvalAtLowerLimit(
            f"derivative series is singular at t = a = {t!r} for alpha={-sa!r}")


def _series(pf: PowerFunction, win: EvalWindow, sa: float, t: float,
            tol: float, max_terms: int, op_name: str) -> SeriesResult:
    require_in_window(win, t)
    if win.side is WindowSide.CENTERED:
        value = _polynomial(pf, win.a, sa, t)
        return SeriesResult(value, pf.beta.m + 1, 0.0, SeriesStatus.CONVERGED)
    _guard_lower_limit(win.a, sa, t)
    b, is_int = _beta_kernel_form(pf.beta)
    A = win.a - pf.d
    front = branch_power(A, pf.beta)
    raw = kernels.power_series(front, b, A, t - win.a, sa, is_int, tol, max_terms)
    return _wrap(raw, tol, op_name)


def rlfi_series_displaced(pf: PowerFunction, win: EvalWindow, alpha: float,
                          t: float, tol: float = DEFAULT_TOL,
                          max_terms: int = DEFAULT_MAX_TERMS) -> SeriesResult:
    """Fractional integral of order alpha by the displaced series.

    t = a returns 0 (empty integration interval).  Integer beta >= 0
    terminates naturally after m + 1 terms.
    """
    return _series(pf, win, alpha, t, tol, max_terms, "rlfi_series_displaced")


def rlfd_series(pf: PowerFunction, win: EvalWindow, alpha: float, t: float,
                tol: float = DEFAULT_TOL,
                max_terms: int = DEFAULT_MAX_TERMS) -> SeriesResult:
    """Fractional derivative of order alpha by the displaced series.

    The k = 0 term carries (t-a)**(-alpha), so t = a is genuinely singular
    for 0 < alpha < 1 and is reported as EvalAtLowerLimit rather than
    silently returning infinity.
    """
    return _series(pf, win, -alpha, t, tol, max_terms, "rlfd_series")


def _polynomial(pf: PowerFunction, a: float, sa: float, t: float) -> float:
    if not isinstance(pf.beta, IntegerExp) or pf.beta.m < 0:
        raise ValueError("polynomial route requires beta = IntegerExp(m >= 0)")
    _guard_lower_limit(a, sa, t)
    m = pf.beta.m
    u = t - a
    if u < 0.0 and abs(sa - round(sa)) > _INT_TOL:
        raise WindowViolation("t below the lower limit with non-integer order")
    A = a - pf.d
    total = 0.0
    for k in range(m + 1):
        coeff = math.perm(m, k) * gamma_ratio(1.0, sa + k + 1.0)
        if coeff == 0.0:
            continue
        total += coeff * A ** (m - k) * _upow(u, sa + k)
    return total


def rlfi_polynomial(pf: PowerFunction, a: float, alpha: float, t: float) -> float:
    """Exact (m+1)-term integral sum for beta = m >= 0; any real a and t.

    With a = d this collapses to the single centered term
    Gamma(m+1) (t-a)^(alpha+m) / Gamma(alpha+m+1).
    """
    return _polynomial(pf, a, alpha, t)


def rlfd_polynomial(pf: PowerFunction, a: float, alpha: float, t: float) -> float:
    """Exact (m+1)-term derivative sum for beta = m >= 0; any real a and t."""
    return _polynomial(pf, a, -alpha, t)


def _upow(u: float, e: float) -> float:
    # real power with the integral-exponent cases kept exact for u <= 0
    if u > 0.0:
        return u ** e
    if u == 0.0:
        if e > 0.0:
            return 0.0
        if e == 0.0:
            return 1.0
        return math.inf
    n = round(e)
    if abs(e - n) <= _INT_TOL:
        return float(u) ** int(n)
    raise WindowViolation("negative offset with non-integer exponent")


def _neg_integer(pf: PowerFunction, win: EvalWindow, sa: float, t: float,
                 tol: float, max_terms: int, op_name: str) -> SeriesResult:
    m = _require_neg_int(pf)
    require_in_window(win, t)
    _guard_lower_limit(win.a, sa, t)
    raw = kernels.neg_int_series(m, win.a - pf.d, t - win.a, sa, tol, max_terms)
    return _wrap(raw, tol, op_name)


def rlfi_neg_integer(pf: PowerFunction, win: EvalWindow, alpha: float, t: float,
                     tol: float = DEFAULT_TOL,
                     max_terms: int = DEFAULT_MAX_TERMS) -> SeriesResult:
    """Alternating-form integral series for beta = -m, m >= 1.

    Coefficientwise equal to the general series through
    (-1)^k Gamma(-beta+k)/Gamma(-beta) = (beta)_{-k}, but accumulated along
    an independent arithmetic path.
    """
    return _neg_integer(pf, win, alpha, t, tol, max_terms, "rlfi_neg_integer")


def rlfd_neg_integer(pf: PowerFunction, win: EvalWindow, alpha: float, t: float,
                     tol: float = DEFAULT_TOL,
                     max_terms: int = DEFAULT_MAX_TERMS) -> SeriesResult:
    """Alternating-form derivative series for beta = -m, with a single
    epsilon^(-(m+k)) factor."""
    return _neg_integer(pf, win, -alpha, t, tol, max_terms, "rlfd_neg_integer")


def _require_neg_int(pf: PowerFunction) -> int:
    if not isinstance(pf.beta, IntegerExp) or pf.beta.m >= 0:
        raise ValueError("negative-integer route requires beta = IntegerExp(-m), m >= 1")
    return -pf.beta.m


def closed_centered(kind: OperatorKind, beta: float, d: float, alpha: float,
                    t: float) -> float:
    """Centered closed forms Gamma(beta+1)/Gamma(beta+-alpha+1) (t-d)^(beta+-alpha).

    Valid for beta > -1 only; the Euler-beta argument behind them fails below
    that, which is exactly what the displaced series exist to work around.
    """
    if beta <= -1.0:
        raise BetaOutOfRange(f"centered closed form requires beta > -1, got {beta!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha!r} outside [0, 1]")
    x = t - d
    if x < 0.0:
        raise WindowViolation("centered forms need t >= d")
    exponent = beta + alpha if kind is OperatorKind.INTEGRAL else beta - alpha
    coeff = gamma_ratio(beta + 1.0, exponent + 1.0)
    if x == 0.0:
        if exponent > 0.0 or coeff == 0.0:
            return 0.0
        if exponent == 0.0:
            return coeff
        raise EvalAtLowerLimit("centered value is singular at t = d")
    return coeff * math.exp(exponent * math.log(x))


def remainder_bound(pf: PowerFunction, win: EvalWindow, sa: float, t: float,
                    p: int) -> float:
    """Explicit upper bound on the series tail after p terms at signed order sa.

    sa = +alpha bounds the integral series of order alpha, sa = -alpha the
    derivative series.  General beta uses the integration-by-parts estimate
    with the |x - d| power integrated exactly; beta = -m uses the geometric
    form with the side-dependent endpoint (|t - d| below the shift, |a - d|
    above it, the latter being the sound choice on that side).  Monotone
    decreasing in p past a computable crossover.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    require_in_window(win, t)
    b, is_int = _beta_kernel_form(pf.beta)
    return kernels.series_tail_bound(b, is_int, win.a - pf.d, t - win.a, sa, p)


def partial_sum(pf: PowerFunction, win: EvalWindow, sa: float, t: float,
                p: int) -> float:
    """Sum of the first p series terms at signed order sa (+alpha for the
    integral, -alpha for the derivative); diagnostic companion to
    :func:`remainder_bound`."""
    require_in_window(win, t)
    _guard_lower_limit(win.a, sa, t)
    b, _ = _beta_kernel_form(pf.beta)
    A = win.a - pf.d
    front = branch_power(A, pf.beta)
    return kernels.power_series_partial(front, b, A, t - win.a, sa, p)


def taylor_route(pf: PowerFunction, a: float, alpha: float, t: float,
                 tol: float = DEFAULT_TOL,
                 max_terms: int = DEFAULT_MAX_TERMS) -> SeriesResult:
    """Integral via the Taylor expansion of f at a, integrated term by term.

    Expands (x-d)**beta = sum_k C(beta,k) (a-d)^(beta-k) (x-a)^k and applies
    the monomial rule Gamma(k+1) (t-a)^(alpha+k) / Gamma(alpha+k+1) to each
    term; coefficients go through the generalized binomial, so this is an
    independent arithmetic path that must reproduce the displaced series.
    """
    win = make_window(a, pf)
    if win.side is WindowSide.CENTERED:
        value = rlfi_polynomial(pf, a, alpha, t)
        return SeriesResult(value, pf.beta.m + 1, 0.0, SeriesStatus.CONVERGED)
    require_in_window(win, t)
    b, is_int = _beta_kernel_form(pf.beta)
    A = a - pf.d
    u = t - a
    if u == 0.0 and alpha > 0.0:
        return SeriesResult(0.0, 0, 0.0, SeriesStatus.CONVERGED)
    shift_pow = branch_power(A, pf.beta)
    total = 0.0
    comp = 0.0
    status = SeriesStatus.TRUNCATED
    bound = math.inf
    terms = 0
    for k in range(max_terms):
        coeff = gen_binomial(b, k) * gamma_ratio(k + 1.0, alpha + k + 1.0)
        term = coeff * shift_pow * _upow(u, alpha + k)
        s = total + term
        if abs(total) >= abs(term):
            comp += (total - s) + term
        else:
            comp += (term - s) + total
        total = s
        terms = k + 1
        shift_pow /= A
        value = total + comp
        if not math.isfinite(value):
            status = SeriesStatus.DIVERGED
            break
        nxt = gen_binomial(b, k + 1) * gamma_ratio(k + 2.0, alpha + k + 2.0) \
            * shift_pow * _upow(u, alpha + k + 1)
        scale = max(1.0, abs(value))
        if abs(nxt) <= tol * scale:
            bound = kernels.series_tail_bound(b, is_int, A, u, alpha, terms)
            if bound <= tol * scale:
                status = SeriesStatus.CONVERGED
                break
    value = total + comp
    result = SeriesResult(value, terms, bound, status)
    if status is not SeriesStatus.CONVERGED:
        raise SeriesNotConverged(
            f"taylor_route: {status.value} after {terms} terms", result)
    return result
