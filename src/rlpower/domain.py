"""Domain classification and convergence windows for shifted power functions.

A power function f(t) = (t - d)**beta has a real domain that depends on the
arithmetic nature of beta:

* integer beta: all of R for beta >= 0, R minus the shift point otherwise;
* reduced rational beta = p/q: R for even positive p, [d, +inf) for odd
  positive p, (d, +inf) for negative p;
* beta declared real (non-rational): (d, +inf).

No float-to-rational sniffing is done anywhere: ``RealExp(0.5)`` gets the
conservative open domain, and a caller that wants the closed one must pass
``RationalExp(1, 2)``.

The series representations converge on a half-open window attached to the
lower limit a: [a, a + eps/2) when a sits below the shift and [a, a + eps)
when it sits above, with eps = |d - a|.  A lower limit at the shift, a = d,
is allowed for polynomial exponents only and gives the centered window
[d, +inf).  ``require_points`` checks evaluation points against the window.

Every route checks its order with ``require_order``: 0 <= alpha <= 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import gcd

from .errors import (
    CenteredNotAnalytic,
    EvalAtLowerLimit,
    LowerLimitOutsideDomain,
    OrderOutOfRange,
    ValueOverflow,
    WindowViolation,
)


@dataclass(frozen=True)
class IntegerExp:
    m: int


@dataclass(frozen=True)
class RationalExp:
    """Reduced fraction p/q with q >= 2; q = 1 belongs to IntegerExp."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("RationalExp requires q >= 1")
        g = gcd(self.p, self.q)
        if g > 1:
            object.__setattr__(self, "p", self.p // g)
            object.__setattr__(self, "q", self.q // g)
        if self.q == 1:
            raise ValueError("RationalExp with q = 1 normalizes to IntegerExp")


@dataclass(frozen=True)
class RealExp:
    x: float


BetaIndex = IntegerExp | RationalExp | RealExp


def beta_int(m: int) -> IntegerExp:
    return IntegerExp(int(m))


def beta_rational(p: int, q: int) -> BetaIndex:
    """Reduced rational exponent; collapses to IntegerExp when q divides p."""
    if q == 0:
        raise ValueError("rational exponent requires q != 0")
    if q < 0:
        p, q = -p, -q
    g = gcd(p, q)
    p, q = p // g, q // g
    if q == 1:
        return IntegerExp(p)
    return RationalExp(p, q)


def beta_real(x: float) -> RealExp:
    return RealExp(float(x))


def beta_value(beta: BetaIndex) -> float:
    """The exponent as a float."""
    if isinstance(beta, IntegerExp):
        return float(beta.m)
    if isinstance(beta, RationalExp):
        return beta.p / beta.q
    return beta.x


def beta_slack(beta: BetaIndex) -> float:
    """|beta_value(beta) - p/q| for a rational beta = p/q, the rounding that
    a power |x|^beta magnifies by |ln|x||; 0 for the other exponents."""
    if not isinstance(beta, RationalExp):
        return 0.0
    num, den = beta_value(beta).as_integer_ratio()
    return abs(num * beta.q - beta.p * den) / (den * beta.q)


class DomainSpec(enum.Enum):
    ALL_REALS = "R"
    ALL_REALS_EXCEPT_D = "R\\{d}"
    CLOSED_FROM_D = "[d,+inf)"
    OPEN_FROM_D = "(d,+inf)"


def classify_domain(d: float, beta: BetaIndex) -> DomainSpec:
    """Real domain of (t - d)**beta, keyed on the exact nature of beta."""
    if isinstance(beta, IntegerExp):
        return DomainSpec.ALL_REALS if beta.m >= 0 else DomainSpec.ALL_REALS_EXCEPT_D
    if isinstance(beta, RationalExp):
        if beta.p > 0:
            return DomainSpec.ALL_REALS if beta.p % 2 == 0 else DomainSpec.CLOSED_FROM_D
        return DomainSpec.OPEN_FROM_D
    return DomainSpec.OPEN_FROM_D


def format_domain(spec: DomainSpec, d: float) -> str:
    """Human-readable domain with the shift substituted, e.g. ``(1, +inf)``."""
    if spec is DomainSpec.ALL_REALS:
        return "R"
    if spec is DomainSpec.ALL_REALS_EXCEPT_D:
        return f"R \\ {{{d:g}}}"
    if spec is DomainSpec.CLOSED_FROM_D:
        return f"[{d:g}, +inf)"
    return f"({d:g}, +inf)"


@dataclass(frozen=True)
class PowerFunction:
    """The pair (d, beta) defining f(t) = (t - d)**beta plus its real domain."""

    d: float
    beta: BetaIndex
    domain: DomainSpec

    def contains(self, x: float) -> bool:
        if self.domain is DomainSpec.ALL_REALS:
            return True
        if self.domain is DomainSpec.ALL_REALS_EXCEPT_D:
            return x != self.d
        if self.domain is DomainSpec.CLOSED_FROM_D:
            return x >= self.d
        return x > self.d

    def value(self, t: float) -> float:
        """f(t) on the real branch; raises ValueError outside the domain."""
        if not self.contains(t):
            raise ValueError(f"t={t!r} outside domain {self.domain.value}")
        return branch_power(t - self.d, self.beta)


def power_function(d: float, beta: BetaIndex) -> PowerFunction:
    """The pair (d, beta); raises ValueError unless both are finite floats."""
    try:
        finite = math.isfinite(d) and math.isfinite(beta_value(beta))
    except OverflowError:  # an int or p/q beyond the float range
        finite = False
    if not finite:
        raise ValueError("the shift d and the exponent beta must be finite floats")
    return PowerFunction(float(d), beta, classify_domain(d, beta))


def branch_power(x: float, beta: BetaIndex) -> float:
    """x**beta on the real branch selected by the exact form of beta.

    Negative bases are legal only for integer exponents and for reduced
    rationals with odd denominator; the domain rules guarantee callers stay
    inside those cases.  A power beyond the float range raises
    ValueOverflow.
    """
    try:
        if isinstance(beta, IntegerExp):
            if x == 0.0 and beta.m < 0:
                raise ValueError("0 raised to a negative integer power")
            return float(x) ** beta.m
        if isinstance(beta, RationalExp):
            b = beta.p / beta.q
            if x > 0.0:
                return x ** b
            if x == 0.0:
                if beta.p > 0:
                    return 0.0
                raise ValueError("0 raised to a negative rational power")
            if beta.q % 2 == 0:
                raise ValueError("negative base with even root is not real")
            mag = (-x) ** b
            return mag if beta.p % 2 == 0 else -mag
        b = beta.x
        if x > 0.0:
            return x ** b
        if x == 0.0:
            if b > 0.0:
                return 0.0
            if b == 0.0:
                return 1.0
            raise ValueError("0 raised to a negative real power")
        raise ValueError("negative base with a declared-real exponent is not real")
    except OverflowError:
        raise ValueOverflow(f"({x!r})**{beta_value(beta)!r} is beyond the "
                            "float range") from None


def float_power(x: float, p: float) -> float:
    """x**p for x >= 0; a power beyond the float range raises ValueOverflow."""
    try:
        return x ** p
    except OverflowError:
        raise ValueOverflow(f"({x!r})**{p!r} is beyond the float range") from None


def require_order(alpha: float) -> float:
    """alpha, once checked to lie in [0, 1]; NaN and every other value raise
    OrderOutOfRange."""
    if not 0.0 <= alpha <= 1.0:
        raise OrderOutOfRange(f"alpha={alpha!r} outside [0, 1]")
    return alpha


@dataclass(frozen=True)
class EvalWindow:
    """Validated half-open evaluation interval [a, t_sup) for one lower limit;
    the window is centered when a equals the shift d."""

    a: float
    t_sup: float


def make_window(a: float, pf: PowerFunction) -> EvalWindow:
    """Window for lower limit a.

    a = d is allowed only for polynomial exponents (the one case analytic at
    the shift), giving an unbounded centered window.  Otherwise the side of
    the shift fixes the window: [a, a + eps/2) below, [a, a + eps) above.
    """
    a = float(a)
    d = pf.d
    if a == d:
        if isinstance(pf.beta, IntegerExp) and pf.beta.m >= 0:
            return EvalWindow(a, math.inf)
        raise CenteredNotAnalytic(
            f"a = d = {d!r} requested but beta={pf.beta!r} is not analytic at d")
    if not pf.contains(a):
        raise LowerLimitOutsideDomain(
            f"a={a!r} outside domain {format_domain(pf.domain, d)}")
    eps = abs(d - a)
    if a < d:
        return EvalWindow(a, a + eps / 2.0)
    return EvalWindow(a, a + eps)


def require_in_window(win: EvalWindow, t: float) -> None:
    """Raise WindowViolation unless a <= t < t_sup."""
    if not win.a <= t < win.t_sup:
        raise WindowViolation(
            f"t={t!r} outside window [{win.a!r}, {win.t_sup!r})")


def require_points(win: EvalWindow | None, a: float, d: float, sa: float,
                   ts: list[float]) -> None:
    """Raise for the first point of ts, in its order, outside the window
    (WindowViolation; with no window, below a: ValueError) or, at the signed
    order -1 < sa < 0 and a lower limit a != d, at t = a, where (t-a)**sa is
    singular (EvalAtLowerLimit).  ts is monotone, so its two ends stand for
    all the points, which are walked only when an end fails."""
    lo, hi = (ts[0], ts[-1]) if ts[0] <= ts[-1] else (ts[-1], ts[0])
    inside = win.a <= lo and hi < win.t_sup if win is not None else lo >= a
    singular = -1.0 < sa < 0.0 and a != d
    if inside and not (singular and lo == a):
        return
    for t in ts:
        if win is not None:
            require_in_window(win, t)
        elif t < a:
            raise ValueError(f"t={t!r} below the lower limit {a!r}")
        if singular and t == a:
            raise EvalAtLowerLimit(
                f"t = a = {t!r} is singular for the derivative at alpha={-sa!r}")
