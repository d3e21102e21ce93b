"""Series evaluation of the Riemann-Liouville operators on power functions.

Both operators are taken at the signed order sa: sa = +alpha gives the
fractional integral of order alpha, and sa = -alpha the fractional
derivative, the integral's series with alpha -> -alpha.  Each route here has
one body over sa and a sorted list of points, which returns the parallel
columns (values, terms, bounds, status names) over the points; the
``rlfi_*``/``rlfd_*`` entries fix its sign, pass it one point and wrap that
point in a ``SeriesResult``.  For f(t) = (t - d)**beta the body takes one
expansion per side of the shift:

* Above the shift (a > d) f is expanded at the upper limit t, and the
  operator is one Gauss series (DLMF 15.8.1 on the b parameter of the
  paper's 2F1(1, -beta; 1+sa; -w), w = (t-a)/(a-d)):

      (t-d)^beta (t-a)^sa / Gamma(1+sa) 2F1(sa, -beta; 1+sa; z),
      z = (t-a)/(t-d) < 1/2 on the window.

* Below the shift (a < d) f is expanded at the lower limit a, the paper's
  displaced series

      sum_k Gamma(beta+1) (a-d)^(beta-k) (t-a)^(sa+k)
            / (Gamma(beta-k+1) Gamma(sa+k+1))
      = (a-d)^beta (t-a)^sa / Gamma(1+sa) 2F1(1, -beta; 1+sa; -w),

  and the route sums its Euler transform (DLMF 15.8.1 on both parameters)

      (a-d)^beta (1+w)^(sa+beta) (t-a)^sa / Gamma(1+sa)
          2F1(sa, 1+sa+beta; 1+sa; -w),

  -w < 1/2 on the window, which is half the distance to the shift.

One body, ``_gauss``, sums both sides on the one 2F1 kernel, and its cost
stays flat up to the window edge.  The reported bound is a proven geometric
tail after the kernel's stop plus a measured roundoff floor on a closed
majorant of sum |term|.  At sa = 0 the 2F1 is 1, and at sa = -1 its
removable pole c = 0 leaves f'(t).  For beta < -2 - sa above the shift the
hyp route's Pfaff transform on b sums this same term sequence, so there the
two routes differ only in arithmetic and the oracle is the independent
check.

On the centered window a = d only the k = m term of the displaced series
survives for an integer beta = m >= 0, and it is the centered gamma-ratio
form Gamma(beta+1)/Gamma(beta+sa+1) (t-d)^(beta+sa).  One body,
``_centered``, evaluates that form for any beta > -1 with the roundoff floor
of its arithmetic as the bound: the closed route's columns (terms 0) and,
with terms m + 1, the series route's on the centered window.
``closed_centered`` is its one-point value.

Orders 0 and 1 are admitted everywhere as reduction checks: alpha = 0 is the
identity operator and alpha = 1 gives the classical integral or derivative.

Term sequences.  With w = (t-a)/(a-d) and z = w/(1+w) = (t-a)/(t-d), each
route sums, after its front factors:

  side   beta               series route             hyp route
  -----  -----------------  -----------------------  ------------------------
  above  integer m >= 0     2F1(sa, -m; 1+sa; z)     2F1(1, -m; 1+sa; -w)
  above  -2-sa <= beta,     2F1(sa, -beta; 1+sa; z)  Pfaff on a:
         not integer >= 0                            2F1(1, 1+sa+beta; 1+sa; z)
  above  beta < -2-sa       2F1(sa, -beta; 1+sa; z)  Pfaff on b:
                                                     2F1(-beta, sa; 1+sa; z)
  below  any                Euler:                   2F1(1, -beta; 1+sa; -w)
                            2F1(sa, 1+sa+beta;
                                1+sa; -w)
  at d   beta > -1          the gamma ratio          none (WindowViolation)

An integer m >= 0 stops the hyp route after m + 1 terms, and the series
route above the shift too.  Where the hyp route takes Pfaff on b, it sums
the series route's sequence (2F1 is symmetric in its first two parameters),
and there the routes differ only in their arithmetic (kernel, gamma and stop
rule), and the oracle is the independent check.  Below the shift the two
routes sum different sequences, the hyp route the displaced series' own.
At sa = 0 the series route's 2F1 is 1; at sa = -1 it is f'(t) in closed
form, and the hyp route sums 2F1(2, 1-beta; 2; -w) with the same Pfaff
choice.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import NamedTuple

from ._backend import kernels
from .domain import (
    EvalWindow,
    PowerFunction,
    beta_slack,
    beta_value,
    branch_power,
    float_power,
    require_order,
    require_points,
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
# Roundoff floor of the centered value, in units of eps |value| on top of
# the terms for its logarithms and arguments (see _centered).  Against
# 40-digit mpmath on both backends, 27 600 points (integer m <= 200,
# rational and real beta > -1, beta + sa near 0 or near -1, beta near -1,
# t - d from 1e-300 to 1e300) lay within 0.54 of the bound; with this 0,
# 2 of 6 900 lay outside.
_CENTERED_ULPS = 8.0


class SeriesStatus(enum.Enum):
    CONVERGED = "converged"
    TRUNCATED = "truncated"
    DIVERGED = "diverged"


# the bodies name a status by its value; a dict, not SeriesStatus(name), maps
# it back at the price of one lookup
_STATUS = {status.value: status for status in SeriesStatus}


# a body's result over its points: (values, terms, bounds, status names)
Columns = tuple[list[float], list[int], list[float], list[str]]


class SeriesResult(NamedTuple):
    value: float
    terms_used: int
    remainder_bound: float
    status: SeriesStatus


def _scalar(columns: Columns, tol: float, op_name: str) -> SeriesResult:
    # a body's one-point columns as a SeriesResult; raises unless converged
    (value,), (terms,), (bound,), (status,) = columns
    result = SeriesResult(value, terms, bound, _STATUS[status])
    if status != "converged":
        raise SeriesNotConverged(f"{op_name}: {status} after {terms} terms "
                                 f"(bound {bound:.3e} > tol {tol:.3e})", result)
    return result


def _series(pf: PowerFunction, win: EvalWindow, sa: float, ts: list[float],
            tol: float, max_terms: int) -> Columns:
    """The series route at the signed order sa over the sorted points ts:
    the columns (values, terms, bounds, status names).

    The checks and the front factor (a-d)^beta are made once, the latter
    first among the numeric work, so that its ValueOverflow comes before any
    point's.  Each point costs one kernel call.  Statuses are returned as
    they come: the scalar entries raise on a non-converged one.
    """
    require_points(win, win.a, pf.d, sa, ts)
    if win.a == pf.d:
        values, _, bounds, statuses = _centered(pf, sa, ts, tol)
        return values, [pf.beta.m + 1] * len(ts), bounds, statuses
    A = win.a - pf.d
    return _gauss(branch_power(A, pf.beta), beta_value(pf.beta), A, win.a, sa,
                  ts, tol, max_terms)


def _centered(pf: PowerFunction, sa: float, ts: list[float],
              tol: float) -> Columns:
    """Gamma(beta+1)/Gamma(beta+sa+1) (t-d)^(beta+sa), beta > -1, at the
    sorted points ts: the closed route's columns, and with terms m + 1 the
    series route's on the centered window.  The coefficient exp(lgamma -
    lgamma) is made once.  With e = beta + sa, b beta's float, s twice
    |b - p/q| for a rational beta = p/q (else 0) and psi >= |digamma|
    (_digamma_size), the bound is the form's roundoff,

        (_CENTERED_ULPS + 2 |lgamma(b+1)| + 2 |lgamma(e+1)| + 2 |e ln(t-d)|
         + psi(e+1) (|e| + |e+1|) + psi(b+1) |b+1|) eps |value|
        + (psi(e+1) + psi(b+1) + |ln(t-d)|) s |value| + _TINY (|coeff| + 1),

    the psi terms for the rounded arguments of lgamma and the last for a
    value in the subnormal range.  A beta + sa + 1 within 1e-12 of a pole of
    Gamma is taken for it, as the kernels' pole test has it: the value 0 is
    exact where beta + sa + 1 = 0 exactly, else its bound is inf.
    """
    beta = beta_value(pf.beta)
    # within 1e-12 of -1 counts as the numerator pole of Gamma(beta+1)
    if beta + 1.0 <= _INT_TOL:
        raise BetaOutOfRange(f"centered closed form requires beta > -1, got {beta!r}")
    require_order(abs(sa))
    exponent = beta + sa
    pole = kernels.nonpos_int_index(exponent + 1.0) >= 0
    slack = 2.0 * beta_slack(pf.beta)  # twice: its first-order effect is exact
    coeff = rel = 0.0
    try:
        if not pole:
            lg_b, lg_e = math.lgamma(beta + 1.0), math.lgamma(exponent + 1.0)
            coeff = math.exp(lg_b - lg_e)
            if exponent + 1.0 < 0.0:
                # beta > -1 and |sa| <= 1 put it in (-1, 0), where Gamma < 0
                coeff = -coeff
            psi_e = _digamma_size(exponent + 1.0)
            psi_b = _digamma_size(beta + 1.0)
            rel = (_CENTERED_ULPS + 2.0 * (abs(lg_b) + abs(lg_e))
                   + psi_e * (abs(exponent) + abs(exponent + 1.0))
                   + psi_b * (beta + 1.0)) * _EPS + (psi_e + psi_b) * slack
    except OverflowError:
        coeff = math.inf  # every point's value is beyond the float range
    per_log, tiny = 2.0 * abs(exponent) * _EPS + slack, _TINY * (abs(coeff) + 1.0)
    d, exp, log, isinf, huge = pf.d, math.exp, math.log, math.isinf, math.isinf(coeff)
    values, bounds, statuses = [], [], []
    for t in ts:
        x = t - d
        if x < 0.0:
            raise WindowViolation("centered forms need t >= d")
        lx = log(x) if x > 0.0 else 0.0
        try:
            value = coeff * exp(exponent * lx) if x > 0.0 else 0.0
        except OverflowError:
            value = math.inf
        if isinf(value) or huge:
            raise ValueOverflow(f"centered value at t - d = {x!r} with beta={beta!r}, "
                                f"sa={sa!r} is beyond the float range")
        if x == 0.0 and exponent <= 0.0 and coeff != 0.0:
            if exponent < 0.0:
                raise EvalAtLowerLimit("centered value is singular at t = d")
            value = coeff
        size = abs(value)
        bound = (rel + per_log * abs(lx)) * size + tiny
        values.append(value)
        bounds.append(bound)
        statuses.append("converged" if bound <= tol * (size if size > 1.0 else 1.0)
                        else "truncated")
    n = len(values)
    if pole:
        exact = slack == 0.0 and math.fsum((beta, sa, 1.0)) == 0.0
        return (values, [0] * n, [0.0 if exact else math.inf] * n,
                ["converged" if exact else "truncated"] * n)
    return values, [0] * n, bounds, statuses


def _digamma_size(y: float) -> float:
    # at least |digamma(y)| for y > -1, y != 0: digamma(y) = digamma(y + 2)
    # - 1/y - 1/(y + 1), and |digamma(y + 2)| < ln(2 + |y|)
    return 1.0 / abs(y) + 1.0 / abs(y + 1.0) + math.log(2.0 + abs(y))


def _gauss(front: float, b: float, A: float, a: float, sa: float,
           ts: list[float], tol: float, max_terms: int) -> Columns:
    """At each of the sorted points ts, with u = t - a, w = u/A and
    s = 1 + w, the Gauss form

        front s^P u^sa / Gamma(1+sa) 2F1(sa, Q; 1+sa; y),

    front = (a-d)^b on the real branch, and by side of the shift:

    * above (A > 0): (P, Q, y) = (b, -b, w/s), y = (t-a)/(t-d) < 1/2;
    * below (A < 0): (P, Q, y) = (sa+b, 1+sa+b, -w), y < 1/2.

    Both are Euler's transformation (DLMF 15.8.1) of the paper's
    2F1(1, -b; 1+sa; -w), above on its b parameter and below on both, so
    0 <= y < 1/2 up to the window edge.  s^P is multiplied into the 2F1
    first, so the value underflows or overflows only where the value itself
    does.  front can be negative below the shift: the scale, the kernel
    target and the bound take |front|, and the value its sign.

    The kernel's stop rule leaves the first omitted term |t_n| at most
    0.5 tol' max(1, |F|) (1-y), and every later term ratio is at most
    rho = y max(1, |n+Q|/(n+1)), so the tail is at most |t_n|/(1-rho); the
    kernel target tol' = tol/max(1, |front s^P u^sa/Gamma(1+sa)|) puts
    that at the value's scale.  The roundoff floor is
    (_FLOOR_ULPS + _FLOOR_ULPS_PER_B max(|b|, |Q|)) eps times the closed
    majorant sum |t_k| <= max(1, -sa/(1+sa)) (1-y)^-|Q|, or for Q < 0 the
    smaller of that and max(1, -sa/(1+sa)) (1+y)^ceil(-Q) / (1-y)
    (|(Q)_k/k!| is at most binomial(ceil(-Q), k) below ceil(-Q) and at most
    1 from there), plus _TINY (1 + |s^P F|) for a value in the subnormal
    range.  A kernel that terminates at a parameter snapped to an integer
    within delta (the kernels' 1e-12) leaves a tail of at most
    2 delta max(1, -sa/(1+sa)) (1-y)^-|Q| / (1-y); exact integers leave 0.

    sa = -1 is the removable pole c = 0 of 2F1/Gamma(c), and the value is
    f'(t) = front b/A (1+w)^(b-1) on both sides.  An order within 1e-12 of
    1 is summed as 1, as the kernels' pole test has it, with an unknown
    (inf) bound.
    """
    above = A > 0.0
    P, Q = (b, -b) if above else (sa + b, 1.0 + sa + b)
    floor_ulps = (_FLOOR_ULPS + _FLOOR_ULPS_PER_B * max(abs(b), abs(Q))) * _EPS
    if kernels.nonpos_int_index(1.0 + sa) == 0:
        lead = front * b / A
        values = []
        for t in ts:
            value = lead * float_power(1.0 + (t - a) / A, b - 1.0)
            if not abs(value) <= _FLOAT_MAX:
                raise ValueOverflow(f"f'({t!r}) with beta={b!r} is beyond the "
                                    "float range")
            values.append(value)
        n = len(values)
        if sa == -1.0:
            return (values, [1] * n,
                    [floor_ulps * abs(value) + _TINY for value in values],
                    ["converged"] * n)
        return values, [1] * n, [math.inf] * n, ["truncated"] * n
    c = 1.0 + sa
    scale = abs(front) / math.gamma(c)  # Gamma(c) > 0
    negative = front < 0.0
    scale_sa = max(1.0, -sa / c)
    floor_sa = floor_ulps * scale_sa
    k_sa = kernels.nonpos_int_index(sa)
    k_q = kernels.nonpos_int_index(Q)
    # the kernel stops at the first zero parameter; snap is that parameter's
    # distance from its integer, or -1 when the series does not terminate
    snap = abs(sa) if k_sa >= 0 else abs(Q + k_q) if k_q >= 0 else -1.0
    q_neg, ceil_q = Q < 0.0, math.ceil(-Q)
    hyp2f1_series, converged = kernels.hyp2f1_series, kernels.STATUS_CONVERGED
    values, terms, bounds, statuses = [], [], [], []
    for t in ts:
        u = t - a
        if u == 0.0 and sa > 0.0:  # the empty integral
            values.append(0.0)
            terms.append(0)
            bounds.append(0.0)
            statuses.append("converged")
            continue
        w = u / A
        s = 1.0 + w
        # r = 1/(1-y)
        if above:
            y, r = w / s, s
        else:
            y, r = -w, 1.0 / s
        try:
            g = scale * u ** sa
            s_p = s ** P
            # for Q < 0, the majorant's (1-y)^-|Q|: s^b = s^P above the
            # shift, s^Q <= s^P below it
            m1 = s_p if above or not q_neg else s ** Q
        except OverflowError:
            g = s_p = math.inf
        mag = g * s_p
        if not mag <= _FLOAT_MAX:
            raise ValueOverflow(f"series front at t={t!r} with beta={b!r}, "
                                f"sa={sa!r} is beyond the float range")
        ktol = tol / mag if mag > 1.0 else tol
        f, n, code = hyp2f1_series(sa, Q, c, y, ktol, max_terms)
        sf = s_p * f
        value = g * sf
        # s^P times the majorant's (1-y)^-|Q| (sq), and times the smaller of
        # that and, for Q < 0, (1+y)^ceil(-Q) / (1-y) (sm); for Q >= 0 their
        # product is s^(P-Q): 1 above the shift, 1/s below it
        if q_neg:
            try:
                alt = (1.0 + y) ** ceil_q * r
            except OverflowError:
                alt = math.inf
            sq = s_p * m1
            sm = s_p * (m1 if m1 < alt else alt)
        else:
            sq = sm = 1.0 if above else r
        if code == converged:
            if snap < 0.0:
                ratio = abs(n + Q) / (n + 1.0)
                rho = y * ratio if ratio > 1.0 else y
                size = abs(f)
                tail = (0.5 * ktol * (size if size > 1.0 else 1.0) * (1.0 - y)
                        / (1.0 - rho) * s_p) if rho < 1.0 else math.inf
            else:
                tail = 2.0 * snap * scale_sa * sq / (1.0 - y)
        else:
            truncated = code == kernels.STATUS_TRUNCATED
            tail = scale_sa * sm if truncated else math.inf
        bound = g * (tail + floor_sa * sm) + _TINY * (1.0 + abs(sf))
        size = abs(value)
        if not size <= _FLOAT_MAX or code == kernels.STATUS_DIVERGED:
            status, bound = "diverged", math.inf
        elif code == converged and bound <= tol * max(1.0, size):
            status = "converged"
        else:
            status = "truncated"
        values.append(-value if negative else value)
        terms.append(n)
        bounds.append(bound)
        statuses.append(status)
    return values, terms, bounds, statuses


def rlfi_series_displaced(pf: PowerFunction, win: EvalWindow, alpha: float,
                          t: float, tol: float = DEFAULT_TOL,
                          max_terms: int = DEFAULT_MAX_TERMS) -> SeriesResult:
    """Fractional integral of order alpha by the series route.

    t = a returns 0 (empty integration interval).  Above the shift an
    integer beta >= 0 terminates after m + 1 terms.
    """
    return _scalar(_series(pf, win, require_order(alpha), [t], tol, max_terms),
                   tol, "rlfi_series_displaced")


def rlfd_series(pf: PowerFunction, win: EvalWindow, alpha: float, t: float,
                tol: float = DEFAULT_TOL,
                max_terms: int = DEFAULT_MAX_TERMS) -> SeriesResult:
    """Fractional derivative of order alpha by the series route.

    The value carries (t-a)**(-alpha), so t = a is genuinely singular
    for 0 < alpha < 1 and is reported as EvalAtLowerLimit rather than
    silently returning infinity.  On the centered window the one term left
    carries (t-d)**(m-alpha), which is 0 at t = a for m >= 1.
    """
    return _scalar(_series(pf, win, -require_order(alpha), [t], tol, max_terms),
                   tol, "rlfd_series")


def closed_centered(pf: PowerFunction, sa: float, t: float) -> float:
    """Centered closed forms Gamma(beta+1)/Gamma(beta+sa+1) (t-d)^(beta+sa)
    at the signed order sa (+alpha integral, -alpha derivative): the value
    of _centered's one point, whatever its status.

    Valid for beta > -1 only; the Euler-beta argument behind them fails below
    that, which is exactly what the displaced series exist to work around.
    """
    return _centered(pf, sa, [t], DEFAULT_TOL)[0][0]
