"""Reference values at 40 digits, computed with mpmath and never with rlpower.

Inside the window the operators have the Gauss 2F1 closed forms

    J = f(a) u^alpha  / Gamma(1+alpha) * 2F1(1, -beta; 1+alpha; -u/A),
    D = f(a) u^-alpha / Gamma(1-alpha) * 2F1(1, -beta; 1-alpha; -u/A),

with A = a - d, u = t - a and f(a) = A^beta on the real branch.  At the
shift (a = d, integer beta = m >= 0) they reduce to
Gamma(m+1)/Gamma(m+1+-alpha) u^(m+-alpha).  A few points per workload are
confirmed against mpmath.quad of the defining integrals, which uses neither
form.
"""

from __future__ import annotations

import mpmath

DPS = 40
# the 2F1 reference and the quadrature must agree far below every check
QUAD_AGREEMENT = 1e-20


def _exponent(beta: dict):
    if beta["cls"] == "int":
        return mpmath.mpf(beta["m"])
    if beta["cls"] == "rational":
        return mpmath.mpf(beta["p"]) / beta["q"]
    return mpmath.mpf(beta["x"])


def _real_power(y, beta: dict):
    """y^beta on the real branch: negative y only for integer exponents and
    reduced rationals with an odd denominator."""
    b = _exponent(beta)
    if y > 0:
        return y ** b
    if beta["cls"] == "int":
        odd = beta["m"] % 2
    elif beta["cls"] == "rational" and beta["q"] % 2 == 1:
        odd = beta["p"] % 2
    else:
        raise ValueError(f"negative base for exponent {beta['token']}")
    mag = (-y) ** b
    return -mag if odd else mag


def value(op: str, beta: dict, d: float, a: float, alpha: float, t: float):
    """J^alpha or D^alpha of (t - d)^beta with lower limit a, as an mpf."""
    with mpmath.workdps(DPS):
        d, a, t, al = (mpmath.mpf(v) for v in (d, a, t, alpha))
        A = a - d
        u = t - a
        s = al if op == "J" else -al
        if A == 0:
            m = beta["m"]
            return mpmath.gamma(m + 1) / mpmath.gamma(m + 1 + s) * u ** (m + s)
        if u == 0:
            return mpmath.mpf(0)
        b = _exponent(beta)
        return (_real_power(A, beta) * u ** s / mpmath.gamma(1 + s)
                * mpmath.hyp2f1(1, -b, 1 + s, -u / A))


def quad_value(op: str, beta: dict, d: float, a: float, alpha: float, t: float):
    """The same value from the defining integrals by mpmath.quad.

    J = 1/Gamma(alpha) int_a^t (t-x)^(alpha-1) f(x) dx and, for the smooth f
    on the window, D = [f(a) (t-a)^-alpha + int_a^t (t-x)^-alpha f'(x) dx]
    / Gamma(1-alpha).  With s = (t-x)^e, e = alpha or 1-alpha, both
    integrands become smooth: int_0^((t-a)^e) g(t - s^(1/e)) ds / e.
    """
    with mpmath.workdps(DPS):
        d, a, t, al = (mpmath.mpf(v) for v in (d, a, t, alpha))
        b = _exponent(beta)

        def f(x):
            return _real_power(x - d, beta)

        def fprime(x):
            # d/dx of (x-d)^beta on either side of the shift
            return b * f(x) / (x - d)

        e = al if op == "J" else 1 - al
        g = f if op == "J" else fprime
        integral = mpmath.quad(lambda s: g(t - s ** (1 / e)),
                               [0, (t - a) ** e]) / e
        if op == "J":
            return integral / mpmath.gamma(al)
        return (f(a) * (t - a) ** (-al) + integral) / mpmath.gamma(1 - al)


def agree(x, y) -> bool:
    with mpmath.workdps(DPS):
        return abs(x - y) <= QUAD_AGREEMENT * max(1, abs(x))
