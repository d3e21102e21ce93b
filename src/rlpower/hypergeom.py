"""Gauss 2F1 evaluation and the hypergeometric closed forms of the operators.

Inside the validated windows the displaced operator values collapse to a
single real 2F1 evaluation,

    J = (a-d)^beta (t-a)^alpha  / Gamma(alpha+1) * 2F1(1, -beta; alpha+1; -w),
    D = (a-d)^beta (t-a)^-alpha / Gamma(1-alpha) * 2F1(1, -beta; 1-alpha; -w),

with w = (t-a)/(a-d).  Both are the one form

    (a-d)^beta (t-a)^sa / Gamma(1+sa) * 2F1(1, -beta; 1+sa; -w)

at the signed order sa = +alpha (J) or sa = -alpha (D).  Inside the window
|w| < 1.  Above the shift w > 0, and the Gauss series at -w -> -1 would
alternate and cancel; ``hyp2f1`` therefore takes every non-terminating
argument -1 < x < 0 through the Pfaff transformation (DLMF 15.8.1)

    2F1(a, b; c; x) = (1-x)^-a 2F1(a, c-b; c; x/(x-1)),  x/(x-1) in (0, 1/2),

so the series it sums has ratio below 1/2 and its cost stays flat up to the
window edge.  Its terms alternate, and cancel, while c - b + k < 0, so for
c - b < -1 it transforms on the larger of a and b instead (2F1 is symmetric
in a and b); in the forms above that is beta < -2 - sa.

At sa = -1 (D of order 1) c = 0 is a removable pole:
2F1(a, b; c; x)/Gamma(c) -> a b x 2F1(a+1, b+1; 2; x), which makes
D = (a-d)^beta beta/(a-d) 2F1(2, 1-beta; 2; -w) = f'(t), regular at t = a.
The z <-> 1-z connection split is evaluated on 0 < z < 1 only, where both of
its terms are real and z**(alpha+beta) needs no branch choice.
"""

from __future__ import annotations

import math

from ._backend import kernels
from .domain import (
    EvalWindow,
    PowerFunction,
    beta_value,
    branch_power,
    require_in_window,
)
from .errors import (
    ArgOutOfDisk,
    DegenerateExponentSum,
    EvalAtLowerLimit,
    HypNotConverged,
    ParamPole,
    WindowViolation,
)
from .special import gamma_ratio

DEFAULT_TOL = 1e-14
MAX_TERMS = 20000

_INT_TOL = 1e-12


def hyp2f1(a: float, b: float, c: float, x: float,
           tol: float = DEFAULT_TOL) -> float:
    """2F1(a, b; c; x) by its Gauss series, compensated summation.

    Terminating cases (a or b a non-positive integer) are exact for any
    argument; otherwise |x| < 1 is required, and -1 < x < 0 is summed after
    the Pfaff transformation to x/(x-1) in (0, 1/2).
    """
    if -1.0 < x < 0.0 and kernels.nonpos_int_index(a) < 0 \
            and kernels.nonpos_int_index(b) < 0:
        # transform on the larger parameter when c - b < -1 would cancel
        if c - b < -1.0 and b > a:
            a, b = b, a
        return (1.0 - x) ** -a * hyp2f1(a, c - b, c, x / (x - 1.0), tol)
    value, _, status = kernels.hyp2f1_series(a, b, c, x, tol, MAX_TERMS)
    if status == kernels.STATUS_CONVERGED:
        return value
    if status == kernels.STATUS_PARAM_POLE:
        raise ParamPole(f"c={c!r} hits a non-positive integer before termination")
    if status == kernels.STATUS_ARG_OUT:
        raise ArgOutOfDisk(f"|arg|={abs(x)!r} >= 1 with no termination")
    raise HypNotConverged(
        f"2F1 series failed to converge for a={a!r}, b={b!r}, c={c!r}, arg={x!r}")


def euler_transform(a: float, b: float, c: float,
                    x: float) -> tuple[tuple[float, float, float, float], float]:
    """Parameters (c-a, c-b; c; x) and prefactor (1-x)^(c-a-b) such that
    prefactor * 2F1(transformed) reproduces 2F1(a, b; c; x)."""
    if x >= 1.0:
        raise ArgOutOfDisk("Euler transformation needs arg < 1")
    return (c - a, c - b, c, x), (1.0 - x) ** (c - a - b)


def _hyp_form(pf: PowerFunction, win: EvalWindow, sa: float, t: float,
              tol: float) -> float:
    # J (sa = alpha) or D (sa = -alpha) as one 2F1 with c = 1 + sa
    require_in_window(win, t)
    A = win.a - pf.d
    if A == 0.0:
        raise WindowViolation(
            "hypergeometric forms need a displaced lower limit (a != d); "
            "use the polynomial or closed centered routes at the shift")
    u = t - win.a
    beta = beta_value(pf.beta)
    c = 1.0 + sa
    if kernels.nonpos_int_index(c) == 0:
        # the removable pole c = 0 of 2F1/Gamma(c): D of order 1 is f'(t)
        return branch_power(A, pf.beta) * beta / A \
            * hyp2f1(2.0, 1.0 - beta, 2.0, -(u / A), tol)
    if u == 0.0:
        if sa > 0.0:
            return 0.0
        if sa == 0.0:
            return branch_power(A, pf.beta)
        raise EvalAtLowerLimit("derivative form is singular at t = a")
    front = branch_power(A, pf.beta) * u ** sa
    return front / kernels.gamma_value(c) * hyp2f1(1.0, -beta, c, -(u / A), tol)


def rlfi_hyp_form(pf: PowerFunction, win: EvalWindow, alpha: float,
                  t: float, tol: float = DEFAULT_TOL) -> float:
    """Fractional integral through the closed 2F1 form; real inside the window."""
    return _hyp_form(pf, win, alpha, t, tol)


def rlfd_hyp_form(pf: PowerFunction, win: EvalWindow, alpha: float,
                  t: float, tol: float = DEFAULT_TOL) -> float:
    """Fractional derivative: the integral's 2F1 form at order -alpha;
    at alpha = 1 the removable pole c = 0 gives f'(t)."""
    return _hyp_form(pf, win, -alpha, t, tol)


def connection_a6(alpha: float, beta: float, z: float,
                  tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Two-term z <-> 1-z split of 2F1(1, -beta; alpha+1; 1-z), 0 < z < 1.

    Returns the pair whose sum must reproduce the direct evaluation of the
    left side.  Requires alpha + beta not an integer; the gamma prefactors
    degenerate otherwise.
    """
    s = alpha + beta
    if abs(s - math.floor(s + 0.5)) <= _INT_TOL:
        raise DegenerateExponentSum(
            f"alpha+beta={s!r} is an integer; the connection split degenerates")
    if not 0.0 < z < 1.0:
        raise ArgOutOfDisk(f"connection split needs 0 < z < 1, got z={z!r}")
    c1 = gamma_ratio(s, s + 1.0) * gamma_ratio(alpha + 1.0, alpha)
    c2 = kernels.gamma_value(alpha + 1.0) * gamma_ratio(-s, -beta)
    return (c1 * hyp2f1(1.0, -beta, 1.0 - s, z, tol),
            c2 * z ** s * hyp2f1(alpha, s + 1.0, s + 1.0, z, tol))
