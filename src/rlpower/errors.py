"""Exception types shared across the package.

Validation failures (bad lower limits, out-of-window evaluation points,
degenerate parameters) are raised before any numeric work starts, so a caller
that catches these never sees a half-computed result.
"""

from __future__ import annotations


class RLPowerError(Exception):
    """Base class for every error raised by this package."""


class LowerLimitOutsideDomain(RLPowerError, ValueError):
    """Lower limit a does not belong to the power function's real domain."""


class CenteredNotAnalytic(RLPowerError, ValueError):
    """a = d requested for an exponent whose power function is not analytic at d."""


class OrderOutOfRange(RLPowerError, ValueError):
    """Order alpha outside [0, 1], NaN included."""


class WindowViolation(RLPowerError, ValueError):
    """Evaluation point t lies outside the validated convergence window."""


class EvalAtLowerLimit(RLPowerError, ValueError):
    """t = a requested where the derivative series is genuinely singular, or
    t <= a from the oracle's derivative, whose head term (t-a)^-alpha needs
    t > a."""


class SeriesNotConverged(RLPowerError, ArithmeticError):
    """Term cap reached with the tail bound still above tolerance.

    Carries the partial result so diagnostics keep the terms consumed and the
    last tail bound.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class BetaOutOfRange(RLPowerError, ValueError):
    """Exponent outside the validity range of the centered closed forms."""


class ValueOverflow(RLPowerError, OverflowError):
    """A power of finite inputs, or a centered value, beyond the float range."""


class ArgOutOfDisk(RLPowerError, ValueError):
    """Hypergeometric series argument outside the unit disk (non-terminating)."""


class ParamPole(RLPowerError, ArithmeticError):
    """Hypergeometric denominator parameter hits a non-positive integer first."""


class HypNotConverged(RLPowerError, ArithmeticError):
    """Hypergeometric series stopped at its term cap or diverged."""


class PoleInsideInterval(RLPowerError, ValueError):
    """Quadrature interval touches the integrand pole for a negative exponent."""


class ToleranceNotMet(RLPowerError, ArithmeticError):
    """The quadrature oracle met an integral it cannot bound: the derivative
    at t = d with beta <= alpha, where f' is not integrable, or a panel
    halved down to the float resolution."""
