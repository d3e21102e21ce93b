"""Riemann-Liouville fractional integrals and derivatives of power functions.

Evaluates the operators of order 0 < alpha < 1 applied to f(t) = (t - d)**beta
for any real beta, through four mutually checking routes: the displaced power
series with a proven truncation bound, Gauss hypergeometric closed forms, the
centered gamma-ratio formulas, and a direct-quadrature oracle.

The series and 2F1 inner loops run on a compiled extension when it is
available and on a pure-Python twin otherwise; ``backend_name()`` reports
which one was picked at import.
"""

from ._backend import backend_name
from .domain import (
    BetaIndex,
    DomainSpec,
    EvalWindow,
    IntegerExp,
    PowerFunction,
    RationalExp,
    RealExp,
    WindowSide,
    beta_int,
    beta_rational,
    beta_real,
    beta_value,
    check_t,
    classify_domain,
    make_window,
    power_function,
)
from .errors import (
    ArgOutOfDisk,
    BetaOutOfRange,
    CenteredNotAnalytic,
    DegenerateExponentSum,
    EvalAtLowerLimit,
    HypNotConverged,
    LowerLimitOutsideDomain,
    NumeratorPole,
    OutOfRadius,
    ParamPole,
    PoleInsideInterval,
    RLPowerError,
    SeriesNotConverged,
    StepTooLarge,
    ToleranceNotMet,
    WindowViolation,
)
from .hypergeom import (
    connection_a6,
    euler_transform,
    hyp2f1,
    rlfd_hyp_form,
    rlfi_hyp_form,
)
from .oracle import (
    QuadEstimate,
    QuadratureConfig,
    log_reference,
    quad_rlfd,
    quad_rlfi,
)
from .series import (
    OperatorKind,
    Route,
    SeriesResult,
    SeriesStatus,
    closed_centered,
    remainder_bound,
    rlfd_neg_integer,
    rlfd_polynomial,
    rlfd_series,
    rlfi_neg_integer,
    rlfi_polynomial,
    rlfi_series_displaced,
    taylor_route,
)
from .special import ExtendedReal, gamma, gamma_ratio, gen_binomial, \
    pochhammer_asc, pochhammer_desc

__version__ = "0.1.0"

__all__ = [
    "ArgOutOfDisk",
    "BetaIndex",
    "BetaOutOfRange",
    "CenteredNotAnalytic",
    "DegenerateExponentSum",
    "DomainSpec",
    "EvalAtLowerLimit",
    "EvalWindow",
    "ExtendedReal",
    "HypNotConverged",
    "IntegerExp",
    "LowerLimitOutsideDomain",
    "NumeratorPole",
    "OperatorKind",
    "OutOfRadius",
    "ParamPole",
    "PoleInsideInterval",
    "PowerFunction",
    "QuadEstimate",
    "QuadratureConfig",
    "RLPowerError",
    "RationalExp",
    "RealExp",
    "Route",
    "SeriesNotConverged",
    "SeriesResult",
    "SeriesStatus",
    "StepTooLarge",
    "ToleranceNotMet",
    "WindowSide",
    "WindowViolation",
    "backend_name",
    "beta_int",
    "beta_rational",
    "beta_real",
    "beta_value",
    "check_t",
    "classify_domain",
    "closed_centered",
    "connection_a6",
    "euler_transform",
    "gamma",
    "gamma_ratio",
    "gen_binomial",
    "hyp2f1",
    "log_reference",
    "make_window",
    "pochhammer_asc",
    "pochhammer_desc",
    "power_function",
    "quad_rlfd",
    "quad_rlfi",
    "remainder_bound",
    "rlfd_hyp_form",
    "rlfd_neg_integer",
    "rlfd_polynomial",
    "rlfd_series",
    "rlfi_hyp_form",
    "rlfi_neg_integer",
    "rlfi_polynomial",
    "rlfi_series_displaced",
    "taylor_route",
]
