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
A c within 1e-12 of 0 but not 0 would be taken as that pole.

The route body ``_hyp_form`` returns the columns (values, terms, remainders,
status names) over a job's points.  A point whose 2F1 stops at MAX_TERMS or
diverges, and every point of a c next to the pole c = 0, is truncated: value
NaN, terms 0, remainder inf, where ``hyp2f1`` and the scalar entries raise
HypNotConverged.  A converged point has terms and remainder 0.

The term sequence that each route sums, by side of the shift and range of
beta, is tabled in the ``series`` module docstring.
"""

from __future__ import annotations

import math
import operator

from ._backend import kernels
from .domain import (
    EvalWindow,
    PowerFunction,
    beta_value,
    branch_power,
    float_power,
    require_order,
    require_points,
)
from .errors import ArgOutOfDisk, HypNotConverged, ParamPole, WindowViolation
from .series import Columns

DEFAULT_TOL = 1e-14
MAX_TERMS = 20000


def hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """2F1(a, b; c; x) by its Gauss series, compensated summation.

    Terminating cases (a or b a non-positive integer) are exact for any
    argument; otherwise |x| < 1 is required, and -1 < x < 0 is summed after
    the Pfaff transformation to x/(x-1) in (0, 1/2).  Errors name the
    caller's parameters, not the transformed ones.
    """
    (value,), failed = _hyp2f1(a, b, c, [x])
    if failed:
        raise HypNotConverged(f"2F1 series failed to converge for a={a!r}, "
                              f"b={b!r}, c={c!r}, arg={x!r}")
    return value


def _hyp2f1(a: float, b: float, c: float,
            xs: list[float]) -> tuple[list[float], list[int]]:
    # hyp2f1 at every argument of xs, and the indices of those whose series
    # does not converge, whose value is NaN.  The Pfaff decision is made once
    pfaff = kernels.nonpos_int_index(a) < 0 and kernels.nonpos_int_index(b) < 0
    # transform on the larger parameter when c - b < -1 would cancel
    p, q = (b, a) if c - b < -1.0 and b > a else (a, b)
    cq = c - q
    values, failed = [], []
    for x in xs:
        if pfaff and -1.0 < x < 0.0:
            front = (1.0 - x) ** -p
            value, _, status = kernels.hyp2f1_series(p, cq, c, x / (x - 1.0),
                                                     DEFAULT_TOL, MAX_TERMS)
        else:
            front = 1.0
            value, _, status = kernels.hyp2f1_series(a, b, c, x, DEFAULT_TOL,
                                                     MAX_TERMS)
        if status == kernels.STATUS_PARAM_POLE:
            raise ParamPole(f"c={c!r} hits a non-positive integer before termination")
        if status == kernels.STATUS_ARG_OUT:
            raise ArgOutOfDisk(f"|arg|={abs(x)!r} >= 1 with no termination")
        if status != kernels.STATUS_CONVERGED:
            failed.append(len(values))
            value = math.nan
        values.append(front * value)
    return values, failed


def _hyp_form(pf: PowerFunction, win: EvalWindow, sa: float,
              ts: list[float]) -> Columns:
    """J (sa = alpha) or D (sa = -alpha) as one 2F1 with c = 1 + sa: the
    columns over the sorted points ts (see the module).  The checks,
    (a-d)^beta, Gamma(c) and the Pfaff decision are made once, and each
    point costs one 2F1 series."""
    require_points(win, win.a, pf.d, sa, ts)
    A = win.a - pf.d
    if A == 0.0:  # the centered window
        raise WindowViolation(
            "hypergeometric forms need a displaced lower limit (a != d); "
            "use the series, closed or oracle routes at the shift")
    beta = beta_value(pf.beta)
    c = 1.0 + sa
    n = len(ts)
    if c != 0.0 and kernels.nonpos_int_index(c) == 0:
        values, failed = [math.nan] * n, range(n)
    else:
        front, xs = branch_power(A, pf.beta), []
        for t in ts:
            xs.append(-((t - win.a) / A))
        if c == 0.0:
            # the removable pole c = 0 of 2F1/Gamma(c): D of order 1 is f'(t)
            lead = front * beta / A
            values, failed = _hyp2f1(2.0, 1.0 - beta, 2.0, xs)
            values = [lead * h for h in values]
        else:
            gamma_c, scales = math.gamma(c), []
            for t in ts:
                # + 0.0: J at t = a is 0.0 on either side of the shift
                scales.append(front * float_power(t - win.a, sa) / gamma_c + 0.0)
            values, failed = _hyp2f1(1.0, -beta, c, xs)
            values = list(map(operator.mul, scales, values))
    bounds, statuses = [0.0] * n, ["converged"] * n
    for i in failed:
        bounds[i], statuses[i] = math.inf, "truncated"
    return values, [0] * n, bounds, statuses


def _value(pf: PowerFunction, win: EvalWindow, sa: float, t: float) -> float:
    # the body's one point; HypNotConverged where it is truncated
    (value,), _, _, (status,) = _hyp_form(pf, win, sa, [t])
    if status != "converged":
        raise HypNotConverged(f"2F1 form at t={t!r} with c={1.0 + sa!r} "
                              "failed to converge")
    return value


def rlfi_hyp_form(pf: PowerFunction, win: EvalWindow, alpha: float,
                  t: float) -> float:
    """Fractional integral through the closed 2F1 form; real inside the window."""
    return _value(pf, win, require_order(alpha), t)


def rlfd_hyp_form(pf: PowerFunction, win: EvalWindow, alpha: float,
                  t: float) -> float:
    """Fractional derivative: the integral's 2F1 form at order -alpha;
    at alpha = 1 the removable pole c = 0 gives f'(t)."""
    return _value(pf, win, -require_order(alpha), t)
