"""Command-line surface: evaluate, compare and tabulate the operators.

Exit codes are a stable contract: 0 all converged, 1 validation or usage
error, 2 any series that failed to converge, 3 (compare only) route
deviation above the comparison tolerance.
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import re
import sys
from dataclasses import dataclass, fields

from . import hypergeom, oracle, series
from .domain import (
    BetaIndex,
    IntegerExp,
    RationalExp,
    beta_int,
    beta_rational,
    beta_real,
    classify_domain,
    format_domain,
    make_window,
    power_function,
    require_in_window,
)
from .errors import (
    EvalAtLowerLimit,
    HypNotConverged,
    RLPowerError,
    SeriesNotConverged,
    ToleranceNotMet,
)

_MACHINE_FMT = "%.17g"
_HUMAN_FMT = "%.9g"


class OperatorKind(enum.Enum):
    INTEGRAL = "J"
    DERIVATIVE = "D"


class Route(enum.Enum):
    SERIES = "series"
    HYPERGEOMETRIC = "hyp"
    ORACLE = "oracle"
    CLOSED_CENTERED = "closed"


@dataclass
class JobSpec:
    kind: OperatorKind
    alpha: float
    beta: BetaIndex
    d: float
    lower_mode: str              # "a" | "dplus" | "centered"
    lower_value: float           # a or epsilon; ignored for centered
    t_values: list[float]
    routes: list[Route]
    tol: float = series.DEFAULT_TOL
    tol_compare: float = 1e-7
    quad_tol: float = oracle.DEFAULT_TOL
    max_terms: int = series.DEFAULT_MAX_TERMS
    out_format: str = "human"    # human | csv | jsonl
    strict_window: bool = False
    out_path: str | None = None


@dataclass
class EvalRecord:
    op: str
    alpha: float
    beta: str
    d: float
    a: float
    t: float
    route: str
    value: float
    terms: int
    remainder: float
    status: str


CSV_COLUMNS = tuple(f.name for f in fields(EvalRecord))


def format_beta(beta: BetaIndex) -> str:
    if isinstance(beta, IntegerExp):
        return str(beta.m)
    if isinstance(beta, RationalExp):
        return f"{beta.p}/{beta.q}"
    s = _MACHINE_FMT % beta.x
    if "." not in s and "e" not in s and "inf" not in s and "nan" not in s:
        s += ".0"
    return s


def parse_beta_token(token: str) -> BetaIndex:
    """Inverse of :func:`format_beta`: bare integer, p/q, or real with a dot."""
    token = token.strip()
    if "/" in token:
        p_str, q_str = token.split("/", 1)
        return beta_rational(int(p_str), int(q_str))
    try:
        return beta_int(int(token))
    except ValueError:
        return beta_real(float(token))


def _parse_t_spec(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("t grid must be start:stop:num")
        start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
        if num < 1:
            raise ValueError("t grid needs num >= 1")
        if num == 1:
            return [start]
        step = (stop - start) / (num - 1)
        return [start + i * step for i in range(num)]
    return [float(spec)]


def _parse_routes(spec: str) -> list[Route]:
    names = {r.value: r for r in Route}
    routes = []
    for item in spec.split(","):
        item = item.strip()
        if item not in names:
            raise ValueError(f"unknown route {item!r}; pick from {sorted(names)}")
        if names[item] not in routes:
            routes.append(names[item])
    if not routes:
        raise ValueError("at least one route is required")
    return routes


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlpower",
        description="Riemann-Liouville fractional integrals and derivatives "
                    "of shifted power functions: series, hypergeometric, "
                    "closed-form and quadrature routes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_eval_flags=True):
        p.add_argument("--config", help="flat key=value file; explicit flags win")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--beta-int", type=int, help="integer exponent m")
        group.add_argument("--beta-rational", metavar="P/Q",
                           help="exact rational exponent p/q")
        group.add_argument("--beta-real", type=float,
                           help="exponent declared non-rational")
        p.add_argument("--d", type=float, help="shift of the power function (default 0)")
        if with_eval_flags:
            p.add_argument("--op", choices=["J", "D"],
                           help="J = fractional integral, D = fractional derivative")
            p.add_argument("--alpha", type=float, help="order in [0, 1]")
            lower = p.add_mutually_exclusive_group()
            lower.add_argument("--a", type=float, help="explicit lower limit")
            lower.add_argument("--dplus", type=float, metavar="EPS",
                               help="lower limit at d + EPS")
            lower.add_argument("--centered", action="store_true", default=None,
                               help="lower limit at d (polynomial/closed routes)")
            p.add_argument("--t", help="evaluation point or start:stop:num grid")
            p.add_argument("--route", help="comma list from series,hyp,oracle,closed")
            p.add_argument("--tol", type=float, help="series tolerance")
            p.add_argument("--quad-tol", type=float, help="oracle quadrature tolerance")
            p.add_argument("--max-terms", type=int, help="series term cap")
            p.add_argument("--strict-window", action="store_true", default=None,
                           help="force the eps/2 window on both sides")
            p.add_argument("--format", choices=["human", "csv", "jsonl"],
                           help="output format (default human)")
            p.add_argument("--out", help="write records to this path instead of stdout")

    p_eval = sub.add_parser("eval", help="evaluate the operator on a t grid")
    add_common(p_eval)

    p_cmp = sub.add_parser("compare", help="cross-route deviation table")
    add_common(p_cmp)
    p_cmp.add_argument("--tol-compare", type=float,
                       help="max allowed pairwise relative deviation (default 1e-7)")

    p_dom = sub.add_parser("domain", help="print the domain and window rules")
    add_common(p_dom, with_eval_flags=False)
    return parser


def _pick(cli_value, config: dict[str, str], key: str, convert, default):
    if cli_value is not None:
        return cli_value
    if key in config:
        return convert(config[key])
    return default


def _beta_from(args: argparse.Namespace, config: dict[str, str]) -> BetaIndex:
    """The exponent from the flags, else from the config file."""
    m, pq, x = args.beta_int, args.beta_rational, args.beta_real
    if m is None and pq is None and x is None:
        m, pq, x = (config.get(key) for key in
                    ("beta-int", "beta-rational", "beta-real"))
    if m is not None:
        return beta_int(int(m))
    if pq is not None:
        beta = parse_beta_token(pq)
        if not isinstance(beta, (RationalExp, IntegerExp)):
            raise ValueError("--beta-rational expects p/q")
        return beta
    if x is not None:
        return beta_real(float(x))
    raise ValueError("an exponent flag is required "
                     "(--beta-int | --beta-rational | --beta-real)")


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    config = _read_config(args.config) if args.config else {}
    beta = _beta_from(args, config)

    op_token = _pick(getattr(args, "op", None), config, "op", str, None)
    if op_token is None:
        raise ValueError("--op J|D is required")
    if op_token not in ("J", "D"):
        raise ValueError(f"op={op_token!r}: expected J or D")
    kind = OperatorKind.INTEGRAL if op_token == "J" else OperatorKind.DERIVATIVE

    alpha = _pick(getattr(args, "alpha", None), config, "alpha", float, None)
    if alpha is None:
        raise ValueError("--alpha is required")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha!r} outside [0, 1]")

    d = _pick(args.d, config, "d", float, 0.0)

    a = _pick(getattr(args, "a", None), config, "a", float, None)
    dplus = _pick(getattr(args, "dplus", None), config, "dplus", float, None)
    centered = _pick(getattr(args, "centered", None), config, "centered",
                     lambda s: s.lower() in ("1", "true", "yes"), False)
    modes = [m for m, given in (("a", a is not None), ("dplus", dplus is not None),
                                ("centered", bool(centered))) if given]
    if len(modes) > 1:
        raise ValueError("only one of --a / --dplus / --centered may be given")
    if a is not None:
        lower_mode, lower_value = "a", a
    elif dplus is not None:
        lower_mode, lower_value = "dplus", dplus
    elif centered:
        lower_mode, lower_value = "centered", 0.0
    else:
        raise ValueError("a lower-limit flag is required (--a | --dplus | --centered)")

    t_spec = _pick(getattr(args, "t", None), config, "t", str, None)
    if t_spec is None:
        raise ValueError("--t is required")
    t_values = _parse_t_spec(str(t_spec))

    route_spec = _pick(getattr(args, "route", None), config, "route", str, "series")
    routes = _parse_routes(route_spec)

    out_format = _pick(getattr(args, "format", None), config, "format", str,
                       "human")
    if out_format not in ("human", "csv", "jsonl"):
        raise ValueError(f"format={out_format!r}: expected human, csv or jsonl")

    return JobSpec(
        kind=kind,
        alpha=alpha,
        beta=beta,
        d=d,
        lower_mode=lower_mode,
        lower_value=lower_value,
        t_values=t_values,
        routes=routes,
        tol=_pick(getattr(args, "tol", None), config, "tol", float,
                  series.DEFAULT_TOL),
        tol_compare=_pick(getattr(args, "tol_compare", None), config,
                          "tol-compare", float, 1e-7),
        quad_tol=_pick(getattr(args, "quad_tol", None), config, "quad-tol",
                       float, oracle.DEFAULT_TOL),
        max_terms=_pick(getattr(args, "max_terms", None), config, "max-terms",
                        int, series.DEFAULT_MAX_TERMS),
        out_format=out_format,
        strict_window=bool(_pick(getattr(args, "strict_window", None), config,
                                 "strict-window",
                                 lambda s: s.lower() in ("1", "true", "yes"),
                                 False)),
        out_path=_pick(getattr(args, "out", None), config, "out", str, None),
    )


def _evaluate_one(job: JobSpec, pf, win, a: float, route: Route,
                  t: float) -> EvalRecord:
    """One (t, route) record; a convergence failure becomes a truncated record."""
    kind = job.kind
    value = math.nan
    terms = 0
    remainder = 0.0
    status = "converged"
    integral = kind is OperatorKind.INTEGRAL
    try:
        if route is Route.SERIES:
            fn = series.rlfi_series_displaced if integral else series.rlfd_series
            res = fn(pf, win, job.alpha, t, job.tol, job.max_terms)
            value, terms = res.value, res.terms_used
            remainder, status = res.remainder_bound, res.status.value
        elif route is Route.HYPERGEOMETRIC:
            fn = hypergeom.rlfi_hyp_form if integral else hypergeom.rlfd_hyp_form
            value = fn(pf, win, job.alpha, t)
        elif route is Route.ORACLE:
            fn = oracle.quad_rlfi if integral else oracle.quad_rlfd
            value, remainder = fn(pf, a, job.alpha, t, job.quad_tol)
        else:  # Route.CLOSED_CENTERED
            value = series.closed_centered(pf, job.alpha if integral
                                           else -job.alpha, t)
    except SeriesNotConverged as exc:
        res = exc.result
        value, terms = res.value, res.terms_used
        remainder, status = res.remainder_bound, res.status.value
    except (HypNotConverged, ToleranceNotMet):
        value, status = math.nan, "truncated"
    return EvalRecord(kind.value, job.alpha, format_beta(job.beta), pf.d, a, t,
                      route.value, value, terms, remainder, status)


def run_job(job: JobSpec) -> list[EvalRecord]:
    """Validate the job, then evaluate every (t, route) pair.

    Domain and window checks run before any computation, so validation errors
    propagate with nothing half-emitted (exit 1); convergence failures become
    records (exit 2).
    """
    pf = power_function(job.d, job.beta)
    if job.lower_mode == "a":
        a = job.lower_value
    elif job.lower_mode == "dplus":
        if job.lower_value <= 0.0:
            raise ValueError("--dplus needs a positive epsilon")
        a = job.d + job.lower_value
    else:
        a = job.d

    if Route.CLOSED_CENTERED in job.routes and job.lower_mode != "centered":
        raise ValueError("the closed route evaluates the centered operator; "
                         "use --centered")

    # The window is the validity contract for the analytic routes; the closed
    # and oracle routes have their own domain checks.
    needs_window = any(r in (Route.SERIES, Route.HYPERGEOMETRIC)
                       for r in job.routes)
    win = make_window(a, pf, strict=job.strict_window) if needs_window else None
    for t in job.t_values:
        if win is not None:
            require_in_window(win, t)
        elif t < a:
            raise ValueError(f"t={t!r} below the lower limit {a!r}")
        if job.kind is OperatorKind.DERIVATIVE and t == a and 0.0 < job.alpha < 1.0:
            raise EvalAtLowerLimit(
                f"t = a = {t!r} is singular for the derivative at alpha={job.alpha!r}")

    records = []
    for t in sorted(job.t_values):
        for route in sorted(job.routes, key=lambda r: r.value):
            records.append(_evaluate_one(job, pf, win, a, route, t))
    return records


def _emit_records(records: list[EvalRecord], job: JobSpec, stream) -> None:
    if job.out_format == "csv":
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for r in records:
            stream.write(",".join((
                r.op, _MACHINE_FMT % r.alpha, r.beta, _MACHINE_FMT % r.d,
                _MACHINE_FMT % r.a, _MACHINE_FMT % r.t, r.route,
                _MACHINE_FMT % r.value, str(r.terms), _MACHINE_FMT % r.remainder,
                r.status)) + "\n")
    elif job.out_format == "jsonl":
        for r in records:
            stream.write(json.dumps(vars(r)) + "\n")
    else:
        header = f"{'t':>14} {'route':>8} {'value':>16} {'terms':>6} " \
                 f"{'remainder':>12} {'status':>10}"
        stream.write(header + "\n")
        for r in records:
            stream.write(f"{_HUMAN_FMT % r.t:>14} {r.route:>8} "
                         f"{_HUMAN_FMT % r.value:>16} {r.terms:>6d} "
                         f"{'%.3g' % r.remainder:>12} {r.status:>10}\n")


def cmd_eval(job: JobSpec, stream) -> int:
    records = run_job(job)
    _emit_records(records, job, stream)
    if any(r.status != "converged" for r in records):
        return 2
    return 0


def cmd_compare(job: JobSpec, stream) -> int:
    if len(job.routes) < 2:
        raise ValueError("compare needs at least two routes")
    records = run_job(job)
    by_t: dict[float, list[EvalRecord]] = {}
    for r in records:
        by_t.setdefault(r.t, []).append(r)
    exceeded = False
    not_converged = any(r.status != "converged" for r in records)
    stream.write(f"{'t':>14} {'max_rel_dev':>14} {'routes':>24}\n")
    for t in sorted(by_t):
        group = by_t[t]
        worst = 0.0
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                x, y = group[i].value, group[j].value
                dev = abs(x - y) / max(1.0, abs(x), abs(y))
                worst = max(worst, dev)
        if worst > job.tol_compare:
            exceeded = True
        names = "/".join(r.route for r in group)
        stream.write(f"{_HUMAN_FMT % t:>14} {'%.3e' % worst:>14} {names:>24}\n")
    if not_converged:
        return 2
    return 3 if exceeded else 0


def cmd_domain(beta: BetaIndex, d: float, stream) -> int:
    spec = classify_domain(d, beta)
    stream.write(format_domain(spec, d) + "\n")
    stream.write("windows: a < d -> t in [a, a + |d-a|/2); "
                 "a > d -> t in [a, a + |d-a|)\n")
    if isinstance(beta, IntegerExp) and beta.m >= 0:
        stream.write("centered: a = d allowed (polynomial), t >= a unrestricted\n")
    else:
        stream.write("centered: a = d not analytic; series routes need a != d\n")
    return 0


_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _join_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes option values like "-1/2" or "-1e-3" for options;
    # fold them into --flag=value
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok.startswith("--") and i + 1 < len(argv) \
                and _NEGATIVE_VALUE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_values(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for non-convergence
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "domain":
            config = _read_config(args.config) if args.config else {}
            return cmd_domain(_beta_from(args, config),
                              _pick(args.d, config, "d", float, 0.0), sys.stdout)

        job = _job_from_args(args)
        if job.out_path:
            with open(job.out_path, "w", encoding="utf-8") as fh:
                if args.command == "eval":
                    return cmd_eval(job, fh)
                return cmd_compare(job, fh)
        if args.command == "eval":
            return cmd_eval(job, sys.stdout)
        return cmd_compare(job, sys.stdout)
    except (RLPowerError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
