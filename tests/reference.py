"""Independent reference paths that the tests compare the package against.

Each evaluates a quantity of the package along another arithmetic path, or
exposes an intermediate the package does not return:

* the pole-aware gamma ratio, Pochhammer products and the generalized
  binomial;
* the polynomial sums for beta = m >= 0 at either sign of the order and any
  lower limit, term by term where the package evaluates the centered window
  as one closed term;
* the alternating series for beta = -m, m >= 1;
* the truncated displaced series and its explicit tail bound after p terms;
* the pure twin's displaced-series kernel with its tail bound made afresh at
  every p, the loop the package's pure kernel must match bit for bit;
* the kernels that the compiled module exports and no route calls, in pure
  Python: ``gamma_sign``, ``series_tail_bound``, ``power_series_partial``
  and ``neg_int_series``;
* the Taylor route, which integrates the binomial expansion of f at a term by
  term;
* the logarithm series of the beta = -1 integral at order 1;
* the z <-> 1-z connection split of 2F1;
* the exact operator value above the shift, and on either side of it, at 40
  digits;
* the operator value from a = d, and the integral and derivative of an
  even-numerator rational exponent with the shift inside [a, t], at 40
  digits;
* the reader of the CLI's csv records.

The package itself calls none of them, and they take no kernel from the
package: the arithmetic they share with it is copied here.
"""

from __future__ import annotations

import math

import mpmath as mp

from rlpower.cli import CSV_COLUMNS, EvalRecord
from rlpower.domain import (
    EvalWindow,
    IntegerExp,
    PowerFunction,
    RationalExp,
    beta_value,
    branch_power,
    make_window,
    require_in_window,
)
from rlpower.errors import (ArgOutOfDisk, EvalAtLowerLimit, SeriesNotConverged,
                            WindowViolation)
from rlpower.hypergeom import hyp2f1
from rlpower.series import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    SeriesResult,
    SeriesStatus,
    _NAME_FROM_CODE,
    _beta_kernel_form,
    _scalar,
)

_INT_TOL = 1e-12
_PRODUCT_CUTOFF = 64


# --- gamma ratios, Pochhammer products and binomials -------------------------

class NumeratorPole(ArithmeticError):
    """Gamma ratio with a pole in the numerator only: the ratio is infinite."""


def gamma_ratio(num: float, den: float) -> float:
    """Gamma(num)/Gamma(den), defined through the pole rules.

    The gamma function has poles at the non-positive integers (within 1e-12
    of one counts), but ratios there are still defined,
    Gamma(-n)/Gamma(-m) = (-1)^(m-n) m!/n!.  Both arguments at poles -n, -m
    give that; a pole only in the denominator gives 0; a pole only in the
    numerator raises NumeratorPole.
    """
    n = _nonpos_int_index(num)
    m = _nonpos_int_index(den)
    if n >= 0 and m >= 0:
        sign = -1.0 if (m - n) & 1 else 1.0
        if m < 170 and n < 170:
            return sign * math.factorial(m) / math.factorial(n)
        return sign * math.exp(math.lgamma(m + 1.0) - math.lgamma(n + 1.0))
    if m >= 0:
        return 0.0
    if n >= 0:
        raise NumeratorPole(
            f"gamma_ratio({num!r}, {den!r}): numerator pole with finite denominator")
    sign = gamma_sign(num) * gamma_sign(den)
    return sign * math.exp(math.lgamma(num) - math.lgamma(den))


def pochhammer_asc(z: float, k: int) -> float:
    """Ascending factorial (z)_k = z (z+1) ... (z+k-1); empty product is 1."""
    if k < 0:
        raise ValueError("pochhammer_asc requires k >= 0")
    if k == 0:
        return 1.0
    if k <= _PRODUCT_CUTOFF:
        out = 1.0
        for j in range(k):
            out *= z + j
        return out
    n = _nonpos_int_index(z)
    if n >= 0:
        if n <= k - 1:
            return 0.0
        # all factors are negative integers; magnitude n!/(n-k)!
        mag = math.exp(math.lgamma(n + 1.0) - math.lgamma(n - k + 1.0))
        return -mag if k & 1 else mag
    sign = gamma_sign(z + k) * gamma_sign(z)
    return sign * math.exp(math.lgamma(z + k) - math.lgamma(z))


def pochhammer_desc(z: float, k: int) -> float:
    """Descending factorial (z)_{-k} = z (z-1) ... (z-k+1)."""
    if k < 0:
        raise ValueError("pochhammer_desc requires k >= 0")
    if k == 0:
        return 1.0
    if k <= _PRODUCT_CUTOFF:
        out = 1.0
        for j in range(k):
            out *= z - j
        return out
    # (z)_{-k} = (-1)^k (-z)_k, exact sign flip per factor
    v = pochhammer_asc(-z, k)
    return -v if k & 1 else v


def gen_binomial(beta: float, k: int) -> float:
    """Generalized binomial coefficient Gamma(beta+1)/(Gamma(beta-k+1) k!).

    Routed through the descending factorial so that integer beta with k > beta
    yields an exact 0.
    """
    if k < 0:
        raise ValueError("gen_binomial requires k >= 0")
    if k <= _PRODUCT_CUTOFF:
        return pochhammer_desc(beta, k) / math.factorial(k)
    n_num = _nonpos_int_index(beta + 1.0)
    n_den = _nonpos_int_index(beta - k + 1.0)
    if n_num >= 0 and n_den >= 0:
        # negative integer beta: both gammas sit at poles, ratio via the
        # factorial rule in log space
        sign = -1.0 if (n_den - n_num) & 1 else 1.0
        return sign * math.exp(math.lgamma(n_den + 1.0) - math.lgamma(n_num + 1.0)
                               - math.lgamma(k + 1.0))
    if n_den >= 0:
        return 0.0
    sign = gamma_sign(beta + 1.0) * gamma_sign(beta - k + 1.0)
    return sign * math.exp(math.lgamma(beta + 1.0) - math.lgamma(beta - k + 1.0)
                           - math.lgamma(k + 1.0))


# --- series paths -----------------------------------------------------------

def _guard_lower_limit(a: float, sa: float, t: float) -> None:
    # the k = 0 term carries (t-a)**sa, singular at t = a for -1 < sa < 0
    if -1.0 < sa < 0.0 and t == a:
        raise EvalAtLowerLimit(f"t = a = {t!r} is singular for the derivative")


def _polynomial(pf: PowerFunction, a: float, sa: float, t: float) -> float:
    """Exact (m+1)-term sum for beta = m >= 0 at signed order sa; any real a
    and t.  With a = d it collapses to the single centered term
    Gamma(m+1) (t-a)^(sa+m) / Gamma(sa+m+1)."""
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


def rlfi_polynomial(pf: PowerFunction, a: float, alpha: float, t: float) -> float:
    """Exact (m+1)-term integral sum for beta = m >= 0; any real a and t.

    With a = d this collapses to the single centered term
    Gamma(m+1) (t-a)^(alpha+m) / Gamma(alpha+m+1).
    """
    return _polynomial(pf, a, alpha, t)


def rlfd_polynomial(pf: PowerFunction, a: float, alpha: float, t: float) -> float:
    """Exact (m+1)-term derivative sum for beta = m >= 0; any real a and t."""
    return _polynomial(pf, a, -alpha, t)


def _neg_integer(pf: PowerFunction, win: EvalWindow, sa: float, t: float,
                 tol: float, max_terms: int, op_name: str) -> SeriesResult:
    if not isinstance(pf.beta, IntegerExp) or pf.beta.m >= 0:
        raise ValueError("negative-integer route requires beta = IntegerExp(-m), m >= 1")
    require_in_window(win, t)
    _guard_lower_limit(win.a, sa, t)
    value, terms, bound, code = neg_int_series(
        -pf.beta.m, win.a - pf.d, t - win.a, sa, tol, max_terms)
    return _scalar(([value], [terms], [bound], [_NAME_FROM_CODE[code]]), tol,
                   op_name)


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
    return series_tail_bound(b, is_int, win.a - pf.d, t - win.a, sa, p)


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
    return power_series_partial(front, b, A, t - win.a, sa, p)


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
    if a == pf.d:
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
            bound = series_tail_bound(b, is_int, A, u, alpha, terms)
            if bound <= tol * scale:
                status = SeriesStatus.CONVERGED
                break
    value = total + comp
    result = SeriesResult(value, terms, bound, status)
    if status is not SeriesStatus.CONVERGED:
        raise SeriesNotConverged(
            f"taylor_route: {status.value} after {terms} terms", result)
    return result


# --- the series kernels in pure Python --------------------------------------
# The pure twin's power_series and series_tail_bound as they were before the
# loop built its tail bound once per call, and the kernels that only the
# tests call (gamma_sign, power_series_partial and neg_int_series, which the
# compiled module still exports), with their own copies of the helpers and
# constants they call, so that a change to the package's copies shows.  The
# package's pure power_series must return what this one does, bit for bit, or
# raise the same exception.

_STATUS_CONVERGED = 0
_STATUS_TRUNCATED = 1
_STATUS_DIVERGED = 2
_HUGE = 1e290
_EPS = 2.220446049250313e-16
_SQRT_TWO_PI = 2.5066282746310002
# Lanczos coefficients, g = 7, n = 9.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction done on x, accurate near integers."""
    n = math.floor(x + 0.5)
    s = math.sin(math.pi * (x - n))
    if int(n) & 1:
        return -s
    return s


def _gamma_positive(z: float) -> float:
    # z >= 0.5 only
    if z > 180.0:
        return math.inf
    z -= 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + 7.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * acc


def _gamma_value(z: float) -> float:
    """Gamma for non-pole arguments; reflection below 0.5."""
    if z < 0.5:
        return math.pi / (_sinpi(z) * _gamma_positive(1.0 - z))
    return _gamma_positive(z)


def _nonpos_int_index(x: float) -> int:
    """Return n >= 0 when x is within 1e-12 of -n, else -1."""
    if x > 0.5:
        return -1
    n = math.floor(x + 0.5)
    if abs(x - n) <= _INT_TOL:
        return int(-n)
    return -1


def gamma_sign(z: float) -> float:
    """Sign of Gamma at a non-pole argument."""
    if z > 0.0:
        return 1.0
    return 1.0 if _sinpi(z) > 0.0 else -1.0


def _start_index(sa: float) -> int:
    # Smallest k with 1/Gamma(sa+k+1) finite and nonzero; skips the exact
    # zero coefficients at sa = -1 (classical-derivative reduction).
    n = _nonpos_int_index(sa + 1.0)
    if n < 0:
        return 0
    return n + 1


def series_tail_bound(beta: float, beta_is_int: int, A: float, u: float,
                      sa: float, p: int) -> float:
    """Upper bound on the tail after the first p series indices.

    Integration-by-parts estimate: the |t - x| factor is bounded by its
    endpoint value and the |x - d| power is integrated exactly, which is valid
    on both sides of the shift.  For negative integer exponents the simpler
    geometric form is used with the side-dependent endpoint: |t - d| below the
    shift, |a - d| above it (the below-side factor is not an upper bound above
    the shift).  A bound beyond the float range is inf, as in the compiled
    twin.
    """
    try:
        if u <= 0.0:
            return 0.0
        abs_a = abs(A)
        abs_td = abs(A + u)
        if sa + p - 1.0 < 0.0:
            # First derivative-side truncation: integrate (t-x)^sa exactly and
            # bound |x-d|^(beta-1) by its endpoint maximum.
            if sa <= -1.0 + _INT_TOL:
                return math.inf
            w = max(abs_a ** (beta - 1.0), abs_td ** (beta - 1.0))
            return abs(beta) * w * u ** (1.0 + sa) / math.exp(math.lgamma(2.0 + sa))
        if beta_is_int:
            m = int(math.floor(beta + 0.5))
            if m >= 0:
                if p >= m + 1:
                    return 0.0
                ln_ratio = math.lgamma(m + 1.0) - math.lgamma(m - p + 2.0)
            else:
                mm = float(-m)
                omega = abs_td if A < 0.0 else abs_a
                ln_b = (math.lgamma(mm + p) - math.lgamma(mm) - math.lgamma(sa + p)
                        + sa * math.log(u) + p * (math.log(u) - math.log(omega))
                        - mm * math.log(omega))
                return math.exp(ln_b)
        else:
            if p <= beta + 1.0:
                ln_ratio = math.lgamma(beta + 1.0) - math.lgamma(beta - p + 2.0)
            else:
                # |Gamma(beta-p+2)| rewritten through reflection so no huge
                # intermediate gamma is ever formed.
                ln_ratio = (math.lgamma(beta + 1.0) + math.log(abs(_sinpi(beta)))
                            - math.log(math.pi) + math.lgamma(p - beta - 1.0))
        nu = beta - p + 1.0
        e1 = nu * math.log(abs_td)
        e2 = nu * math.log(abs_a)
        if e1 >= e2:
            big, small = e1, e2
        else:
            big, small = e2, e1
        brace = -math.expm1(small - big)
        return math.exp(ln_ratio - math.lgamma(sa + p)
                        + (sa + p - 1.0) * math.log(u) + big) * brace
    except OverflowError:
        # exp, ** and lgamma past the float range: C returns inf there
        return math.inf


def power_series(front: float, beta: float, A: float, u: float, sa: float,
                 beta_is_int: int, tol: float, max_terms: int):
    """Displaced power-operator series.

    Sums ``Gamma(beta+1) (a-d)^(beta-k) (t-a)^(sa+k) /
    (Gamma(beta-k+1) Gamma(sa+k+1))`` over k with Neumaier compensation and
    the coefficient recurrence ``*(beta-k) u / ((sa+k+1) A)``.

    The reported bound covers both the analytic tail and the summation's
    roundoff floor eps * sum|term|: alternating series whose terms grow far
    above the result (steep exponents near the window edge) cannot reach
    tolerances below that floor in doubles, and claiming otherwise would be
    lying.  Returns ``(value, terms_used, bound, status)``.
    """
    if u == 0.0 and sa > 0.0:
        return 0.0, 0, 0.0, _STATUS_CONVERGED
    k0 = _start_index(sa)
    coef = front
    for j in range(k0):
        coef *= (beta - j) / A
    term = coef * u ** (sa + k0) / _gamma_value(sa + k0 + 1.0)
    total = 0.0
    comp = 0.0
    sum_abs = 0.0
    k = k0
    added = 0
    bound = math.inf
    status = _STATUS_TRUNCATED
    while True:
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        sum_abs += abs(term)
        added += 1
        p = k + 1
        value = total + comp
        if not math.isfinite(value) or abs(term) > _HUGE:
            bound = math.inf
            status = _STATUS_DIVERGED
            break
        term = term * (beta - k) * u / ((sa + k + 1.0) * A)
        k += 1
        scale = abs(value)
        if scale < 1.0:
            scale = 1.0
        if abs(term) <= tol * scale:
            bound = series_tail_bound(beta, beta_is_int, A, u, sa, p)
            if bound <= tol * scale:
                if _EPS * sum_abs <= tol * scale:
                    status = _STATUS_CONVERGED
                # roundoff floor above tolerance: more terms cannot help
                break
        if added >= max_terms:
            bound = series_tail_bound(beta, beta_is_int, A, u, sa, p)
            break
    floor = _EPS * sum_abs
    if floor > bound:
        bound = floor
    return total + comp, added, bound, status


def power_series_partial(front: float, beta: float, A: float, u: float,
                         sa: float, p: int) -> float:
    """Exact partial sum over series indices 0..p-1 (zero coefficients included)."""
    if p <= 0:
        return 0.0
    if u == 0.0 and sa > 0.0:
        return 0.0
    k0 = _start_index(sa)
    if k0 >= p:
        return 0.0
    coef = front
    for j in range(k0):
        coef *= (beta - j) / A
    term = coef * u ** (sa + k0) / _gamma_value(sa + k0 + 1.0)
    total = 0.0
    comp = 0.0
    for k in range(k0, p):
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        term = term * (beta - k) * u / ((sa + k + 1.0) * A)
    return total + comp


def neg_int_series(m: int, A: float, u: float, sa: float, tol: float,
                   max_terms: int):
    """Alternating form for beta = -m: sum of
    ``(-1)^k Gamma(m+k) (a-d)^{-(m+k)} (t-a)^{sa+k} / (Gamma(m) Gamma(sa+k+1))``.

    Same contract as :func:`power_series`; kept as a separate accumulation so
    the two routes really are independent arithmetic paths.
    """
    if u == 0.0 and sa > 0.0:
        return 0.0, 0, 0.0, _STATUS_CONVERGED
    k0 = _start_index(sa)
    # r_k = Gamma(m+k)/(Gamma(m) Gamma(sa+k+1)); s_k = (-1)^k A^{-(m+k)} u^{sa+k}
    r = 1.0
    for j in range(k0):
        r *= (m + j)
    r /= _gamma_value(sa + k0 + 1.0)
    s = A ** (-(m + k0)) * u ** (sa + k0)
    if k0 & 1:
        s = -s
    total = 0.0
    comp = 0.0
    sum_abs = 0.0
    k = k0
    added = 0
    bound = math.inf
    status = _STATUS_TRUNCATED
    while True:
        term = r * s
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        sum_abs += abs(term)
        added += 1
        p = k + 1
        value = total + comp
        if not math.isfinite(value) or abs(term) > _HUGE:
            bound = math.inf
            status = _STATUS_DIVERGED
            break
        r = r * (m + k) / (sa + k + 1.0)
        s = s * (-u) / A
        k += 1
        nxt = r * s
        scale = abs(value)
        if scale < 1.0:
            scale = 1.0
        if abs(nxt) <= tol * scale:
            bound = series_tail_bound(float(-m), 1, A, u, sa, p)
            if bound <= tol * scale:
                if _EPS * sum_abs <= tol * scale:
                    status = _STATUS_CONVERGED
                break
        if added >= max_terms:
            bound = series_tail_bound(float(-m), 1, A, u, sa, p)
            break
    floor = _EPS * sum_abs
    if floor > bound:
        bound = floor
    return total + comp, added, bound, status


# --- closed-form companions -------------------------------------------------

def log_reference(a: float, d: float, t: float) -> tuple[float, float]:
    """Closed-form and series values of the beta = -1 integral at order 1.

    Returns (ln((t-d)/(a-d)), series sum of (-1)^k/(k+1) r^(k+1)) with
    r = (t-a)/(a-d); requires d < a <= t < 2a - d so the series converges.
    """
    if not d < a:
        raise ValueError("log reference requires d < a")
    if not a <= t < a + (a - d):
        raise ValueError(
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


def connection_a6(alpha: float, beta: float, z: float) -> tuple[float, float]:
    """Two-term z <-> 1-z split of 2F1(1, -beta; alpha+1; 1-z), 0 < z < 1.

    Returns the pair whose sum must reproduce the direct evaluation of the
    left side.  Requires alpha + beta not an integer; the gamma prefactors
    degenerate otherwise.  On 0 < z < 1 both terms are real and
    z**(alpha+beta) needs no branch choice.
    """
    s = alpha + beta
    if abs(s - math.floor(s + 0.5)) <= _INT_TOL:
        raise ValueError(
            f"alpha+beta={s!r} is an integer; the connection split degenerates")
    if not 0.0 < z < 1.0:
        raise ArgOutOfDisk(f"connection split needs 0 < z < 1, got z={z!r}")
    c1 = gamma_ratio(s, s + 1.0) * gamma_ratio(alpha + 1.0, alpha)
    c2 = _gamma_value(alpha + 1.0) * gamma_ratio(-s, -beta)
    return (c1 * hyp2f1(1.0, -beta, 1.0 - s, z),
            c2 * z ** s * hyp2f1(alpha, s + 1.0, s + 1.0, z))


# --- CLI records ------------------------------------------------------------

def parse_csv_records(text: str) -> list[EvalRecord]:
    """Parse records out of an emitted CSV body (round-trip companion)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError("missing or malformed CSV header")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"bad CSV record: {ln!r}")
        records.append(EvalRecord(
            op=parts[0], alpha=float(parts[1]), beta=parts[2], d=float(parts[3]),
            a=float(parts[4]), t=float(parts[5]), route=parts[6],
            value=float(parts[7]), terms=int(parts[8]),
            remainder=float(parts[9]), status=parts[10]))
    return records


def upper_limit_exact(b, d: float, a: float, sa: float, t: float) -> mp.mpf:
    """J^sa (t-d)^b above the shift (a > d), at 40 digits from the float
    inputs, by the paper's form (a-d)^b (t-a)^sa / Gamma(1+sa)
    2F1(1, -b; 1+sa; -(t-a)/(a-d)), not the package's upper-limit expansion.
    b may be an mpf.  sa = -1 gives f'(t), the removable pole c = 0."""
    with mp.workdps(40):
        t, a, d, b, sa = (mp.mpf(x) for x in (t, a, d, b, sa))
        A, u = a - d, t - a
        if sa == -1:
            return +(b * (t - d) ** (b - 1))
        if u == 0:
            return +(A ** b) if sa == 0 else mp.mpf(0)
        return +(A ** b * u ** sa / mp.gamma(1 + sa)
                 * mp.hyp2f1(1, -b, 1 + sa, -u / A))


def displaced_exact(beta, d: float, a: float, sa: float, t: float) -> mp.mpf:
    """J^sa (t-d)^beta for a lower limit on either side of the shift, at 40
    digits from the float inputs: the form of upper_limit_exact with (a-d)^beta
    on the real branch that beta's exact class selects.  beta is an
    IntegerExp, RationalExp or RealExp; t > a."""
    with mp.workdps(40):
        if isinstance(beta, IntegerExp):
            b, odd = mp.mpf(beta.m), beta.m % 2
        elif isinstance(beta, RationalExp):
            b, odd = mp.mpf(beta.p) / beta.q, beta.p % 2
        else:
            b, odd = mp.mpf(beta.x), 0
        t, a, d, sa = (mp.mpf(x) for x in (t, a, d, sa))
        A, u = a - d, t - a
        front = abs(A) ** b * (-1 if A < 0 and odd else 1)
        return +(front * u ** sa / mp.gamma(1 + sa)
                 * mp.hyp2f1(1, -b, 1 + sa, -u / A))


def centered_exact(beta, d: float, sa: float, t: float) -> mp.mpf:
    """J^sa (t-d)^beta from a = d, for beta > -1: the gamma ratio
    Gamma(beta+1) / Gamma(beta+1+sa) (t-d)^(beta+sa) at 40 digits from the
    float inputs, beta on its exact class as in displaced_exact."""
    with mp.workdps(40):
        b = mp.mpf(beta.p) / beta.q if isinstance(beta, RationalExp) \
            else mp.mpf(beta_value(beta))
        sa = mp.mpf(sa)
        return +(mp.gamma(b + 1) / mp.gamma(b + 1 + sa)
                 * (mp.mpf(t) - d) ** (b + sa))


def shift_inside_exact(beta: RationalExp, d: float, a: float, alpha: float,
                       t: float, integral: bool = False) -> mp.mpf:
    """D^alpha (t-d)^beta from a < d < t, or with `integral` J^alpha, at 40
    digits, for a positive rational beta = p/q with p even, so that
    (x-d)^beta = (d-x)^beta below the shift: the centered value from d,
    Gamma(beta+1)/Gamma(beta+1+sa) (t-d)^(beta+sa) with sa = alpha for J and
    -alpha for D, plus the part of the lower limit's integral below the
    shift, 1/Gamma(alpha) times the integral of (t-x)^(sa-1) (d-x)^beta over
    [a, d] for J, and -alpha/Gamma(1-alpha) times it, that part
    differentiated in t, for D.  With s = d - x, L = d - a and h = t - d that
    integral is h^(sa-1) L^(beta+1)/(beta+1) 2F1(1-sa, beta+1; beta+2; -L/h)
    (Euler's integral, DLMF 15.6.1)."""
    if beta.p <= 0 or beta.p % 2:
        raise ValueError("shift_inside_exact needs p/q with p even and positive")
    with mp.workdps(40):
        b = mp.mpf(beta.p) / beta.q
        d, a, alpha, t = (mp.mpf(x) for x in (d, a, alpha, t))
        sa = alpha if integral else -alpha
        centered = mp.gamma(b + 1) / mp.gamma(b + 1 + sa) * (t - d) ** (b + sa)
        span, h = d - a, t - d
        below = h ** (sa - 1) * span ** (b + 1) / (b + 1) \
            * mp.hyp2f1(1 - sa, b + 1, b + 2, -span / h)
        scale = 1 / mp.gamma(alpha) if integral else -alpha / mp.gamma(1 - alpha)
        return +(centered + scale * below)
