"""Riemann-Liouville fractional integrals and derivatives of power functions.

Evaluates the operators of order 0 <= alpha <= 1 applied to
f(t) = (t - d)**beta for any real beta, through four mutually checking
routes: the displaced power series with a proven truncation bound
(``rlfi_series_displaced``/``rlfd_series``), the Gauss hypergeometric closed
forms (``rlfi_hyp_form``/``rlfd_hyp_form``, on ``hyp2f1``), the centered
gamma-ratio formulas (``closed_centered``) and a direct-quadrature oracle
(``quad_rlfi``/``quad_rlfd``).  ``__all__`` lists what the README's
"Library use" documents, and every error those entries raise.

The series and 2F1 inner loops run on a compiled extension when it is
available and on a pure-Python twin otherwise; ``backend_name()`` reports
which one was picked at import.
"""

from ._backend import backend_name
from .domain import beta_int, beta_rational, beta_real, make_window, power_function
from .errors import (
    ArgOutOfDisk,
    BetaOutOfRange,
    CenteredNotAnalytic,
    EvalAtLowerLimit,
    HypNotConverged,
    LowerLimitOutsideDomain,
    OrderOutOfRange,
    ParamPole,
    PoleInsideInterval,
    RLPowerError,
    SeriesNotConverged,
    ToleranceNotMet,
    ValueOverflow,
    WindowViolation,
)
from .hypergeom import hyp2f1, rlfd_hyp_form, rlfi_hyp_form
from .oracle import QuadEstimate, quad_rlfd, quad_rlfi
from .series import (
    SeriesResult,
    SeriesStatus,
    closed_centered,
    rlfd_series,
    rlfi_series_displaced,
)

__version__ = "0.1.0"

__all__ = [
    "ArgOutOfDisk",
    "BetaOutOfRange",
    "CenteredNotAnalytic",
    "EvalAtLowerLimit",
    "HypNotConverged",
    "LowerLimitOutsideDomain",
    "OrderOutOfRange",
    "ParamPole",
    "PoleInsideInterval",
    "QuadEstimate",
    "RLPowerError",
    "SeriesNotConverged",
    "SeriesResult",
    "SeriesStatus",
    "ToleranceNotMet",
    "ValueOverflow",
    "WindowViolation",
    "backend_name",
    "beta_int",
    "beta_rational",
    "beta_real",
    "closed_centered",
    "hyp2f1",
    "make_window",
    "power_function",
    "quad_rlfd",
    "quad_rlfi",
    "rlfd_hyp_form",
    "rlfd_series",
    "rlfi_hyp_form",
    "rlfi_series_displaced",
]
