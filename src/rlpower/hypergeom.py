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
A c within 1e-12 of 0 but not 0 would be taken as that pole, so it raises
HypNotConverged instead.
"""

from __future__ import annotations

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
from .errors import (
    ArgOutOfDisk,
    HypNotConverged,
    ParamPole,
    WindowViolation,
)

DEFAULT_TOL = 1e-14
MAX_TERMS = 20000


def hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """2F1(a, b; c; x) by its Gauss series, compensated summation.

    Terminating cases (a or b a non-positive integer) are exact for any
    argument; otherwise |x| < 1 is required, and -1 < x < 0 is summed after
    the Pfaff transformation to x/(x-1) in (0, 1/2).  Errors name the
    caller's parameters, not the transformed ones.
    """
    return _hyp2f1(a, b, c, [x])[0]


def _hyp2f1(a: float, b: float, c: float, xs: list[float]) -> list[float]:
    # hyp2f1 at every argument of xs; the Pfaff decision is made once
    pfaff = kernels.nonpos_int_index(a) < 0 and kernels.nonpos_int_index(b) < 0
    # transform on the larger parameter when c - b < -1 would cancel
    p, q = (b, a) if c - b < -1.0 and b > a else (a, b)
    cq = c - q
    values = []
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
            raise HypNotConverged(f"2F1 series failed to converge for a={a!r}, "
                                  f"b={b!r}, c={c!r}, arg={x!r}")
        values.append(front * value)
    return values


def _hyp_form(pf: PowerFunction, win: EvalWindow, sa: float,
              ts: list[float]) -> list[float]:
    """J (sa = alpha) or D (sa = -alpha) as one 2F1 with c = 1 + sa, over the
    sorted points ts.  The checks, (a-d)^beta, Gamma(c) and the Pfaff
    decision are made once.  Each point costs one 2F1 series."""
    require_points(win, win.a, pf.d, sa, ts)
    A = win.a - pf.d
    if A == 0.0:  # the centered window
        raise WindowViolation(
            "hypergeometric forms need a displaced lower limit (a != d); "
            "use the series, closed or oracle routes at the shift")
    beta = beta_value(pf.beta)
    c = 1.0 + sa
    if kernels.nonpos_int_index(c) == 0:
        if c != 0.0:
            # next to the pole the series would be taken as the limit f'(t)
            raise HypNotConverged(f"c={c!r} within 1e-12 of the pole c = 0")
        # the removable pole c = 0 of 2F1/Gamma(c): D of order 1 is f'(t)
        lead = branch_power(A, pf.beta) * beta / A
        return [lead * h for h in
                _hyp2f1(2.0, 1.0 - beta, 2.0, [-((t - win.a) / A) for t in ts])]
    values = []
    for t in ts:  # the points on the lower limit lead the sorted list
        if t != win.a:
            break
        values.append(0.0 if sa > 0.0 else branch_power(A, pf.beta))
    if len(values) < len(ts):
        front = branch_power(A, pf.beta)
        gamma_c = kernels.gamma_value(c)
        scales, xs = [], []
        for t in ts[len(values):]:
            u = t - win.a
            scales.append(front * float_power(u, sa) / gamma_c)
            xs.append(-(u / A))
        values += map(operator.mul, scales, _hyp2f1(1.0, -beta, c, xs))
    return values


def rlfi_hyp_form(pf: PowerFunction, win: EvalWindow, alpha: float,
                  t: float) -> float:
    """Fractional integral through the closed 2F1 form; real inside the window."""
    return _hyp_form(pf, win, require_order(alpha), [t])[0]


def rlfd_hyp_form(pf: PowerFunction, win: EvalWindow, alpha: float,
                  t: float) -> float:
    """Fractional derivative: the integral's 2F1 form at order -alpha;
    at alpha = 1 the removable pole c = 0 gives f'(t)."""
    return _hyp_form(pf, win, -require_order(alpha), [t])[0]
