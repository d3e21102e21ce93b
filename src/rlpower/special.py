"""Gamma ratios on the extended domain.

The gamma function is analytically extended everywhere except the non-positive
integers, where it has poles.  Ratios of gamma values at those poles are still
well defined,

    Gamma(-n)/Gamma(-m) = (-1)^(m-n) m!/n!,   m, n in {0, 1, 2, ...},

and the series engine leans on exactly that rule to terminate polynomial
cases, so the ratio logic lives here rather than being left to IEEE infs.

An argument counts as a non-positive integer when it is within 1e-12 of one;
exact integer inputs therefore hit the pole branches deterministically while
nearby floats behave predictably.
"""

from __future__ import annotations

import math

from ._backend import kernels
from .errors import NumeratorPole


def gamma_ratio(num: float, den: float) -> float:
    """Gamma(num)/Gamma(den), defined through the pole rules.

    Both arguments at poles -n, -m give (-1)^(m-n) m!/n!; a pole only in the
    denominator gives 0; a pole only in the numerator raises NumeratorPole.
    """
    n = kernels.nonpos_int_index(num)
    m = kernels.nonpos_int_index(den)
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
    sign = kernels.gamma_sign(num) * kernels.gamma_sign(den)
    return sign * math.exp(math.lgamma(num) - math.lgamma(den))
