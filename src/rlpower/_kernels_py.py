"""Scalar numeric kernel: the Gauss 2F1 series.

Pure-Python twin of what the routes call in the compiled module
``_kernels_cy``: ``nonpos_int_index``, ``hyp2f1_series`` and the status
codes.  Every public function here has a compiled twin of the same name and
argument order, and ``hyp2f1_series`` returns the same outputs bit for bit
(value, term count and status), which ``tests/test_backends.py`` checks as a
property: it takes the floating-point operations of the compiled loop in the
same order, with fewer interpreter operations a term.  The compiled module
also exports ``power_series``, ``sinpi``, ``gamma_value``, ``gamma_sign``,
``series_tail_bound``, ``power_series_partial`` and ``neg_int_series``,
which no route calls: its ``.c`` changes only when Cython regenerates it
from the ``.pyx``, so they stay until that module is rewritten.  Their pure
copies are in ``tests/reference.py``.  Everything works on plain floats so
the compiled build carries no CPython object traffic inside the hot loop.
"""

from __future__ import annotations

import math

STATUS_CONVERGED = 0
STATUS_TRUNCATED = 1
STATUS_DIVERGED = 2
STATUS_PARAM_POLE = 3
STATUS_ARG_OUT = 4

_INT_TOL = 1e-12
_HUGE = 1e290
_INF = math.inf


def nonpos_int_index(x: float) -> int:
    """Return n >= 0 when x is within 1e-12 of -n, else -1."""
    if not -_INF < x <= 0.5:  # NaN and -inf too, as in the compiled twin
        return -1
    n = math.floor(x + 0.5)
    if abs(x - n) <= _INT_TOL:
        return int(-n)
    return -1


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
