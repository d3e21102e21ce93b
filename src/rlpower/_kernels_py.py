"""Scalar numeric kernels: the displaced power series and the 2F1 series.

Pure-Python twin of what the routes call in the compiled module
``_kernels_cy``: ``nonpos_int_index``, ``power_series``, ``hyp2f1_series``
and the status codes, with the helpers they call.  Every public function
here has a compiled twin of the same name and argument order, and
``hyp2f1_series`` returns the same outputs bit for bit (value, term count
and status), which ``tests/test_backends.py`` checks as a property.  The
compiled module also exports ``gamma_sign``, ``series_tail_bound``,
``power_series_partial`` and ``neg_int_series``, which no route calls: its
``.c`` changes only when Cython regenerates it from the ``.pyx``, so they
stay until that module is rewritten.  Their pure copies are in
``tests/reference.py``.  ``hyp2f1_series`` takes the floating-point
operations of the compiled loop in the same order, with fewer interpreter
operations a term.
``power_series`` differs from the compiled loop in more than that.  Its tail
bound is one evaluator, ``_TailBound``, which makes each per-call constant at
the first p that needs it and gives the bound's step ratio from the same
constants.  The loop evaluates that bound, and tests it against the
threshold, in one place, only at the terms where it could stop the loop.
Once the sum stops changing, the loop stops summing the terms that no
longer change it and crosses, in log-gamma jumps on a lower bound of the
tail bound, the terms where that lower bound stays above the threshold (its
docstring has the proof).  Its outputs stay those of the old loop that
``tests/reference.py`` keeps, bit for bit, where the bound is made afresh at
every term within the tolerance.  Its value, term count and status are the
compiled twin's; its bound agrees with the compiled one to within lgamma's
rounding, since each twin has its own lgamma.  Everything works on plain
floats so the compiled build carries no CPython object traffic inside the
hot loops.

Conventions used throughout:

* ``A``  is the signed gap a - d between the lower limit and the shift,
* ``u``  is the signed offset t - a (non-negative once validated),
* ``sa`` is the signed order: +alpha for the integral, -alpha for the
  derivative, so one loop serves both operators,
* ``front`` is the real-branch value of (a - d)**beta supplied by the caller;
  dividing by the signed ``A`` in the term recurrence then reproduces the
  correct alternating signs on the left side of the shift.
"""

from __future__ import annotations

import math

SQRT_TWO_PI = 2.5066282746310002

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

STATUS_CONVERGED = 0
STATUS_TRUNCATED = 1
STATUS_DIVERGED = 2
STATUS_PARAM_POLE = 3
STATUS_ARG_OUT = 4

_INT_TOL = 1e-12
_HUGE = 1e290
_EPS = 2.220446049250313e-16
_INF = math.inf
_TINY = 2.0 ** -1022  # the smallest normal float

# power_series's skip, stationary phase and jump (proved in its docstring):
# where they start and hold, the margin on the threshold that covers the
# bound's rounding, and the jump's on its log that covers the log-gamma
# rounding
_STEP_FROM_P = 16.0
_STEP_MAX_P = 2.0 ** 15
_STEP_MAX_PARAM = 2.0 ** 13
_SKIP_MARGIN = 1.000001
_JUMP_MARGIN = 1e-6
_NO_STEP = 0.0, 0.0, 0.0, _INF


def sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction done on x, accurate near integers."""
    n = math.floor(x + 0.5)
    s = math.sin(math.pi * (x - n))
    if int(n) & 1:
        return -s
    return s


def nonpos_int_index(x: float) -> int:
    """Return n >= 0 when x is within 1e-12 of -n, else -1."""
    if not -_INF < x <= 0.5:  # NaN and -inf too, as in the compiled twin
        return -1
    n = math.floor(x + 0.5)
    if abs(x - n) <= _INT_TOL:
        return int(-n)
    return -1


def _gamma_positive(z: float) -> float:
    # z >= 0.5 only
    if z > 180.0:
        return math.inf
    z -= 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + 7.5
    return SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * acc


def gamma_value(z: float) -> float:
    """Gamma for non-pole arguments; reflection below 0.5."""
    if z < 0.5:
        return math.pi / (sinpi(z) * _gamma_positive(1.0 - z))
    return _gamma_positive(z)


class _TailBound:
    """Upper bound B(p) on the tail after the first p series indices, at
    fixed (beta, A, u, sa), as a function of p: ``tail(p)``; and B's step
    where it runs long: ``tail.step()``.

    Integration-by-parts estimate: the |t - x| factor is bounded by its
    endpoint value and the |x - d| power is integrated exactly, which is valid
    on both sides of the shift.  For negative integer exponents the simpler
    geometric form is used with the side-dependent endpoint: |t - d| below the
    shift, |a - d| above it (the below-side factor is not an upper bound above
    the shift).  A bound beyond the float range is inf, as in the compiled
    twin's ``series_tail_bound``, which is this bound at one p.

    Building keeps the arguments and makes nothing else.  What does not
    depend on p is made once, at the first p that needs it: the logs of u,
    |t - d| and |a - d|; lgamma(m + 1), lgamma(beta + 1) or lgamma(beta + 1) +
    log|sinpi(beta)| - log(pi); for beta = -m' < 0, omega, lgamma(m'),
    log(omega) and their products.  A p then pays its own lgammas, one expm1
    and one exp.  Every floating-point operation keeps the grouping of the
    one-p formula, ``series_tail_bound`` in ``tests/reference.py``, so the
    bounds are the same bit for bit.  The parts that can raise (log 0 at
    |t - d| = 0, lgamma past the float range, the log of a zero sinpi) are
    made at the first p that needs them, so each p returns or raises what
    the one-p formula does.

    ``step()`` is ``(b0, b1, c, p_lo)``: for p - 1 >= p_lo, B(p) >=
    B(p - 1) (p + b0) / (p + b1) c in exact arithmetic, with p + b0 >= 1 and
    p + b1 >= 2.  It is made from the constants of the two regimes that run
    long, once a bound has made them, and is ``_NO_STEP`` (p_lo = inf)
    before that and elsewhere:

    * beta = -m' < 0 an integer, q >= 0: B(p) is
      Gamma(m'+p) u^(sa+p) / (Gamma(m') Gamma(sa+p) omega^(m'+p)), so
      B(p+1) / B(p) = (p + m') / (p + sa) u / omega, exactly.
    * beta not an integer, p > beta + 1 (the reflection form), with p_lo at
      least beta + 2: B(p) is a p-free factor times Gamma(p-beta-1)
      u^(sa+p-1) mn^(beta-p+1) / Gamma(sa+p) times the brace
      1 - (mn/mx)^(p-beta-1), where mn and mx are the smaller and the larger
      of |t - d| and |a - d|.  The brace grows with p, so the ratio is at
      least (p - beta - 1) / (p + sa) u / mn.

    No step is given past |beta| or |sa| = 2^13, where c is not a normal
    float, or, for the brace, where u < mx / 64: the brace is 1 - exp of
    (p - beta - 1) times log(mn) - log(mx), whose size is at least
    (p - beta - 1) u / mx, and each of the two products that make it rounds
    by at most eps 745 (p - beta - 1), so the brace keeps all but 2^-35 of
    its value.
    """

    # the per-call constants, each made at the first p that needs it
    lg_m1 = lg_b1 = ln_reflect = logs = neg = None

    def __init__(self, beta: float, beta_is_int: int, A: float, u: float,
                 sa: float):
        self.beta, self.beta_is_int, self.A, self.u, self.sa = (
            beta, beta_is_int, A, u, sa)

    def __call__(self, p) -> float:
        beta, A, u, sa = self.beta, self.A, self.u, self.sa
        lgamma = math.lgamma
        try:
            if u <= 0.0:
                return 0.0
            s = sa + p
            q = s - 1.0
            if q < 0.0:
                # First derivative-side truncation: integrate (t-x)^sa exactly
                # and bound |x-d|^(beta-1) by its endpoint maximum.
                if sa <= -1.0 + _INT_TOL:
                    return _INF
                w = max(abs(A) ** (beta - 1.0), abs(A + u) ** (beta - 1.0))
                return (abs(beta) * w * u ** (1.0 + sa)
                        / math.exp(lgamma(2.0 + sa)))
            if self.beta_is_int:
                m = math.floor(beta + 0.5)
                if m < 0:
                    neg = self.neg
                    if neg is None:
                        f = float(-m)
                        omega = abs(A + u) if A < 0.0 else abs(A)
                        lg_f = lgamma(f)
                        ln_omega, ln_u = math.log(omega), math.log(u)
                        neg = self.neg = (f, omega, lg_f, sa * ln_u,
                                          ln_u - ln_omega, f * ln_omega)
                    f, _, lg_f, sa_ln_u, ln_u_omega, f_ln_omega = neg
                    return math.exp(lgamma(f + p) - lg_f - lgamma(s) + sa_ln_u
                                    + p * ln_u_omega - f_ln_omega)
                if p >= m + 1:
                    return 0.0
                if self.lg_m1 is None:
                    self.lg_m1 = lgamma(m + 1.0)
                ln_ratio = self.lg_m1 - lgamma(m - p + 2.0)
            elif p <= beta + 1.0:
                if self.lg_b1 is None:
                    self.lg_b1 = lgamma(beta + 1.0)
                ln_ratio = self.lg_b1 - lgamma(beta - p + 2.0)
            else:
                # |Gamma(beta-p+2)| rewritten through reflection so no huge
                # intermediate gamma is ever formed.
                if self.ln_reflect is None:
                    self.ln_reflect = (lgamma(beta + 1.0)
                                       + math.log(abs(sinpi(beta)))
                                       - math.log(math.pi))
                ln_ratio = self.ln_reflect + lgamma(p - beta - 1.0)
            logs = self.logs
            if logs is None:
                logs = self.logs = (math.log(u), math.log(abs(A + u)),
                                    math.log(abs(A)))
            ln_u, ln_td, ln_a = logs
            nu = beta - p + 1.0
            e1 = nu * ln_td
            e2 = nu * ln_a
            big, small = (e1, e2) if e1 >= e2 else (e2, e1)
            return (math.exp(ln_ratio - lgamma(s) + q * ln_u + big)
                    * -math.expm1(small - big))
        except OverflowError:
            # exp, ** and lgamma past the float range: C returns inf there
            return _INF

    def step(self):
        """``(b0, b1, c, p_lo)``, or ``_NO_STEP``: see the class."""
        beta, A, u, sa = self.beta, self.A, self.u, self.sa
        if self.neg is not None:
            f, omega = self.neg[:2]
            b0, p_lo = f - 1.0, 2.0 - sa
        elif self.ln_reflect is not None:
            abs_td, abs_a = abs(A + u), abs(A)
            omega, mx = (abs_td, abs_a) if abs_td < abs_a else (abs_a, abs_td)
            if not u >= 0.015625 * mx:
                return _NO_STEP
            b0, p_lo = -beta - 2.0, beta + 2.0 if beta + sa > 0.0 else 2.0 - sa
        else:
            return _NO_STEP
        c = u / omega if omega > 0.0 else 0.0
        if (_TINY <= c < _INF and -_STEP_MAX_PARAM <= beta <= _STEP_MAX_PARAM
                and -_STEP_MAX_PARAM <= sa <= _STEP_MAX_PARAM):
            return b0, sa - 1.0, c, p_lo
        return _NO_STEP


def _start_index(sa: float) -> int:
    # Smallest k with 1/Gamma(sa+k+1) finite and nonzero; skips the exact
    # zero coefficients at sa = -1 (classical-derivative reduction).
    n = nonpos_int_index(sa + 1.0)
    if n < 0:
        return 0
    return n + 1


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

    The loop stops at the first p (series indices summed) where the pending
    term and the tail bound B(p) are both within the threshold
    tol max(1, |value|), or at max_terms.  Near the window edge the terms
    fall within it long before B(p) does, and B(p) costs more than a term.
    Three rules skip the work that cannot change the outputs; they return
    the outputs of evaluating B(p) at every such p, bit for bit.  B(p) is
    evaluated, and tested against the threshold, in one place of the loop:
    where the pending term is within the threshold and no rule certifies
    that B(p) exceeds it, and at max_terms.
    No rule applies before a finite bound of at least 2^-1022 has been
    evaluated at some p >= p_lo of ``_TailBound.step()``, nor when tol is
    below 2^-1022 (the threshold is at least tol), nor past k0 + max_terms =
    2^15.  Nor do they start before p = 16: mid-window calls stop at about
    that term, a few bounds after their first, and making the step costs
    about as much as evaluating a bound.

    1. Certified skip.  The loop carries ``lower``: the last bound it
       evaluated, times the step's ratio at each p since, while every
       pending term stays within the threshold (else lower is dropped).  It
       evaluates B(p) only when lower <= threshold (1 + 1e-6), or when lower
       is inf.  Proof that a skipped B(p) exceeds the threshold: call B*(p)
       the bound in exact arithmetic from the per-call constants as rounded
       (the logs, lgamma(m'), ...).  By the step, B*(p) >= B*(p0) times the
       exact ratios, with exp of the rounded log-difference in place of c.
       With p <= 2^15 and |beta|, |sa| <= 2^13, every lgamma argument is
       below 49 200 and every |log| of a float below 745, so the exponent's
       summands are below 1.1e8 and their roundings, with lgamma within a
       few ulps of its value (CPython's), add up to less than 1e-7; the
       brace loses less than 2^-35.  So the computed B(p) is within a factor
       exp(1e-7) of B*(p).  c is within 3 000 eps of exp of the rounded
       log-difference, and b0, b1 and the products' roundings add 5e-10 more
       over 2^15 steps, so lower <= B(p) exp(2.3e-7) < B(p) (1 + 1e-6) /
       (1 + 3 eps), and lower > threshold (1 + 1e-6) as rounded gives
       B(p) > threshold.  At a bound below 2^-1022 the same holds for its
       unrounded value, which is below 2^-1022 <= threshold.  A bound
       skipped after a finite bound in its regime cannot raise: what raises
       (log 0, a zero sinpi) is made once, at that first bound.
    2. Stationary phase.  Where a bound is skipped, with the pending term
       (index k, size s, d = sa + k + 1 > 0) such that
       s 2^55 < L = min(|total|, |comp|, sum_abs), L >= 2^-960,
       u + 1 <= 2^20 d |A| and |u/A| max(1, |beta - k| / d) < 1 - 1e-9,
       every later iteration changes only k and added.  Where, besides,
       b0 >= b1 or c <= 1, so that rule 3 applies, the loop sums no more
       terms: from there it moves k and added by rule 3 alone, up to the
       first bound that stops it, or max_terms.
       Proof: for k' >= k, |beta - k'| / (sa + k' + 1) <= max(1, its value
       at k), as it falls while k' < beta and stays below 1 past beta, or
       falls to 1 where beta + sa + 1 <= 0.  So the exact term ratio is
       below 1 - 1e-9, and its roundings keep it below 1; an underflow of at
       most 2^-1075 in each product of the recurrence adds at most 2^-1053
       to a size, as u + 1 <= 2^20 d |A|.  So the computed sizes stay below
       max(s, 2^-1053 / 1e-9) < max(s, 2^-1023): below a quarter ulp of
       total, comp and sum_abs (2^-55 of a number is less than a quarter of
       its ulp, and 2^-1023 2^55 < 2^-960) and within the threshold (at
       least 2^-1022).  So total + term, comp +
       ((total - t) + term) and sum_abs + size give back total, comp and
       sum_abs (all nonzero, so no sign of zero changes); value, threshold
       and the divergence test do not change; and at every later p the
       pending term is within the threshold, so only B(p) can stop the
       loop, as in rule 1.
    3. Log-gamma jump.  In the stationary phase the loop does not step
       rule 1's product one p at a time.  From its value ``lower`` at k,
       the product j steps on is, by the closed form of
       prod (p + b0) / (p + b1),
       ln L(j) = ln lower + lgamma(k+j+b0+1) - lgamma(k+b0+1)
       - lgamma(k+j+b1+1) + lgamma(k+b1+1) + j ln c,
       and step j is certified when the computed ln L(j) exceeds
       ln(threshold (1 + 1e-6)) + 1e-6.  The loop gallops j = 1, 2, 4, ...
       up to the cap max_terms - added while steps are certified, bisects
       between the last certified step and the first that is not, and
       evaluates B(p) at that step: it stops the loop or becomes the new
       ``lower``, as in rule 1 (where it is not a normal float, the loop
       steps one p at a time and evaluates every bound).  Where every step
       up to the cap is certified, B(p) is evaluated at max_terms.  Proof
       that the skipped B(p) exceed the threshold: in exact arithmetic the
       increments ln L(j) - ln L(j - 1) = ln((p + b0) / (p + b1)) + ln c,
       p = k + j, fall with p where b0 >= b1 (negative integer beta, or
       beta + sa <= -1), so ln L is concave, and are negative where b0 < b1
       and c <= 1, so ln L falls.  Either way ln L has no interior minimum:
       between two steps it is at least its smaller end value, so the steps
       from 1 to the last certified one are certified with the ends.  Where
       b0 < b1 and c > 1, ln L can dip between its ends, and the loop keeps
       summing under rule 1; that takes u past the half-window below the
       shift, which no route passes (inside the window c < 1: below the
       shift, |t - d| > |A|/2 > u).  Rounding: every lgamma argument is
       below 41 000, where lgamma (CPython's) is within 2e-10 of its value;
       ln c is within 1.2e-13 of the log of c, which j <= 2^15 multiplies
       to 4e-9; and the seven sums and products, none above 2.4e7 in size,
       add at most 1.5e-8.  So the computed ln L(j) exceeds the log of rule
       1's product in exact arithmetic by less than 2e-8, well within the
       1e-6 added to rule 1's margin, and rule 1's proof gives
       B(p) > threshold.
    """
    if u == 0.0 and sa > 0.0:
        return 0.0, 0, 0.0, STATUS_CONVERGED
    k0 = _start_index(sa)
    coef = front
    for j in range(k0):
        coef *= (beta - j) / A
    term = coef * u ** (sa + k0) / gamma_value(sa + k0 + 1.0)
    tail = _TailBound(beta, beta_is_int, A, u, sa)
    # As in hyp2f1_series: k is the term index as a float, |term| is carried
    # in size, |.| is spelled as comparisons and value - value != 0.0 is true
    # exactly for NaN and +-inf; the floating-point operations are those of
    # the compiled twin, in the same order.  Past k += 1.0, k is the number
    # of series indices summed, the tail bound's p.
    total = 0.0
    comp = 0.0
    sum_abs = 0.0
    size = term if term >= 0.0 else -term
    k = float(k0)
    added = 0
    status = STATUS_TRUNCATED
    lower = 0.0  # rule 1's lower bound on tail(k), or 0
    ln_thr = None  # rule 3's log threshold, set where the sum stands still
    while True:
        if ln_thr is None:
            t = total + term
            if total >= size or total <= -size:
                comp += (total - t) + term
            else:
                comp += (term - t) + total
            total = t
            sum_abs += size
            added += 1
            value = total + comp
            if value - value != 0.0 or size > _HUGE:
                bound = math.inf
                status = STATUS_DIVERGED
                break
            term = term * (beta - k) * u / ((sa + k + 1.0) * A)
            size = term if term >= 0.0 else -term
            k += 1.0
            # value is finite here
            scale = value if value >= 1.0 else -value if value <= -1.0 else 1.0
            threshold = tol * scale
            if not size <= threshold:
                lower = 0.0
                if added < max_terms:
                    continue
            elif lower and (threshold * _SKIP_MARGIN
                            < (lower := lower * ((k + b0) / (k + b1) * c))
                            < _INF):
                # rule 1: tail(k) > threshold; rule 2 where the sum stands
                # still and rule 3 can cross the bounds that follow
                least = size * 2.0 ** 55 + 2.0 ** -960
                if ((least < comp or least < -comp)
                        and (least < total or least < -total)
                        and least < sum_abs and (d := sa + k + 1.0) > 0.0
                        and u + 1.0 <= 2.0 ** 20 * d * abs(A)
                        and abs(u / A) * max(1.0, abs(beta - k) / d)
                        < 1.0 - 1e-9 and (b0 >= b1 or c <= 1.0)):
                    lgamma, ln_c = math.lgamma, math.log(c)
                    ln_thr = math.log(threshold * _SKIP_MARGIN) + _JUMP_MARGIN
                if added < max_terms:
                    continue
        elif lower:
            # rule 3: gallop, then bisect, to the first uncertified step hi,
            # or past the cap; lo is certified
            base = (math.log(lower) - lgamma(k + b0 + 1.0)
                    + lgamma(k + b1 + 1.0))
            cap = max_terms - added
            lo, hi, j = 0, cap + 1, 1
            while hi - lo > 1:
                if (base + lgamma(k + j + b0 + 1.0) - lgamma(k + j + b1 + 1.0)
                        + j * ln_c > ln_thr):
                    lo = j
                else:
                    hi = j
                j = min(2 * j, cap) if hi > cap else (lo + hi) // 2
            hi = min(hi, cap)
            added += hi
            k += hi
        else:
            # the last bound was not finite: no lower bound to jump on, so every p
            # is evaluated, as under rule 1
            added += 1
            k += 1.0
        bound = tail(k)
        if bound <= threshold and size <= threshold:
            if _EPS * sum_abs <= threshold:
                status = STATUS_CONVERGED
            # roundoff floor above tolerance: more terms cannot help
            break
        if added >= max_terms:
            break
        if (k >= _STEP_FROM_P and tol >= _TINY
                and k0 + max_terms <= _STEP_MAX_P):
            b0, b1, c, p_lo = tail.step()
            lower = bound if k >= p_lo and _TINY <= bound < _INF else 0.0
    floor = _EPS * sum_abs
    if floor > bound:
        bound = floor
    return total + comp, added, bound, status


def hyp2f1_series(a: float, b: float, c: float, x: float, tol: float,
                  max_terms: int):
    """Gauss series for 2F1(a,b;c;x).

    Returns ``(value, terms_used, status)``.  Terminating cases (a or b a
    non-positive integer) are summed exactly for any x; otherwise |x| < 1 is
    required.  A denominator pole reached before termination reports
    STATUS_PARAM_POLE.
    """
    ka = nonpos_int_index(a)
    kb = nonpos_int_index(b)
    kterm = -1
    if ka >= 0:
        kterm = ka
    if kb >= 0 and (kterm < 0 or kb < kterm):
        kterm = kb
    kc = nonpos_int_index(c)
    if kc >= 0 and not (0 <= kterm <= kc):
        return math.nan, 0, STATUS_PARAM_POLE
    ax = abs(x)
    if kterm < 0 and ax >= 1.0:
        return math.nan, 0, STATUS_ARG_OUT
    # The compiled twin's single loop split in two, with its floating-point
    # operations in the same order: k is its term index as a float, |term|
    # is carried in size, |.| is spelled as comparisons (cheaper than abs()
    # here), and value - value != 0.0 is true exactly for NaN and +-inf.
    total = 0.0
    comp = 0.0
    term = 1.0
    size = 1.0
    k = 0.0
    n = 0
    if kterm >= 0:
        while n < max_terms:
            n += 1
            t = total + term
            if total >= size or total <= -size:
                comp += (total - t) + term
            else:
                comp += (term - t) + total
            total = t
            value = total + comp
            if value - value != 0.0 or size > _HUGE:
                return value, n, STATUS_DIVERGED
            if n > kterm:
                return value, n, STATUS_CONVERGED
            term = term * (a + k) * (b + k) / ((c + k) * (1.0 + k)) * x
            size = term if term >= 0.0 else -term
            k += 1.0
        return total + comp, n, STATUS_TRUNCATED
    # the stop rule |term| <= 0.5 tol max(1, |value|) (1 - |x|), twice running,
    # rounded as ((0.5 tol) scale) (1 - |x|)
    half_tol = 0.5 * tol
    one_m_ax = 1.0 - ax
    small = False
    while n < max_terms:
        n += 1
        t = total + term
        if total >= size or total <= -size:
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        value = total + comp
        if value - value != 0.0 or size > _HUGE:
            return value, n, STATUS_DIVERGED
        term = term * (a + k) * (b + k) / ((c + k) * (1.0 + k)) * x
        size = term if term >= 0.0 else -term
        k += 1.0
        # value is finite here
        scale = value if value >= 1.0 else -value if value <= -1.0 else 1.0
        if size <= half_tol * scale * one_m_ax:
            if small:
                return value, n, STATUS_CONVERGED
            small = True
        else:
            small = False
    return total + comp, n, STATUS_TRUNCATED
