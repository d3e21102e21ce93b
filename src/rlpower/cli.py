"""Command-line surface: evaluate, compare and tabulate the operators.

Exit codes are a stable contract: 0 all converged, 1 validation or usage
error (``--out`` is then left untouched), 2 any record not converged on any
route, 3 (compare only) route deviation above the comparison tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
    format_domain,
    make_window,
    power_function,
    require_order,
    require_points,
)
from .errors import RLPowerError

_MACHINE_FMT = "%.17g"


# the routes, in the order a job's records list them
_ROUTES = ("closed", "hyp", "oracle", "series")


@dataclass
class JobSpec:
    """One job, resolved once from the flags and the config file."""

    op: str                      # "J" | "D"
    alpha: float
    beta: BetaIndex
    d: float
    a: float                     # the lower limit, resolved from --a/--dplus/--centered
    t_values: list[float]
    routes: list[str]            # in the order of _ROUTES
    tol: float
    tol_compare: float
    quad_tol: float
    max_terms: int
    out_format: str              # human | csv | jsonl
    out_path: str | None


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


class JobResult:
    """One job evaluated: the head (op, alpha, beta, d, a) that its records
    share, the sorted points ts, and per route of routes the parallel columns
    (values, terms, remainders, statuses) over ts.  It is sized and iterable
    as the job's EvalRecords, t-major; a record is built only when it is
    iterated."""

    __slots__ = ("head", "ts", "routes", "columns")

    def __init__(self, head: tuple[str, float, str, float, float],
                 ts: list[float], routes: list[str],
                 columns: list[series.Columns]):
        self.head, self.ts, self.routes, self.columns = head, ts, routes, columns

    def __len__(self) -> int:
        return len(self.ts) * len(self.routes)

    def __iter__(self):
        head, routes, columns = self.head, self.routes, self.columns
        for i, t in enumerate(self.ts):
            for route, (values, terms, remainders, statuses) in zip(routes,
                                                                    columns):
                yield EvalRecord(*head, t, route, values[i], terms[i],
                                 remainders[i], statuses[i])


# Each format's (header, head piece, point piece, tail piece, respell).  The
# head piece takes the job's op, alpha, beta, d and a by name; the point
# piece adds t to the formatted head; the tail piece takes the route, and
# then a record's (value, terms, remainder, status).  A line is its point
# piece and its tail.  csv and jsonl lines are as csv and
# json.dumps(vars(record)) write them: JSON floats are their repr, and the
# strings of a record hold no character that JSON escapes.  JSON spells a
# non-finite float NaN, Infinity or -Infinity (respell).
_FORMATS = {
    "csv": (",".join(CSV_COLUMNS) + "\n",
            "%(op)s,%(alpha).17g,%(beta)s,%(d).17g,%(a).17g,",
            "%.17g,",
            "%s,%%.17g,%%d,%%.17g,%%s\n",
            False),
    "jsonl": ("",
              '{"op": "%(op)s", "alpha": %(alpha)r, "beta": "%(beta)s", '
              '"d": %(d)r, "a": %(a)r, ',
              '"t": %r, ',
              '"route": "%s", "value": %%r, "terms": %%d, "remainder": %%r, '
              '"status": "%%s"}\n',
              True),
    "human": ("%14s %8s %16s %6s %12s %10s\n"
              % ("t", "route", "value", "terms", "remainder", "status"),
              "",
              "%14.9g ",
              "%8s %%16.9g %%6d %%12.3g %%10s\n",
              False),
}
# points written at a time: a job's text is never held whole
_CHUNK = 256


def format_beta(beta: BetaIndex) -> str:
    if isinstance(beta, IntegerExp):
        return str(beta.m)
    if isinstance(beta, RationalExp):
        return f"{beta.p}/{beta.q}"
    s = _MACHINE_FMT % beta.x
    return s if "." in s or "e" in s else s + ".0"


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


# argparse names the type in "invalid float value: 'abc'"
_finite_float.__name__ = "float"


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


def _parse_routes(spec: str) -> list[str]:
    """The routes named, once each, in the order a job's records list them."""
    given = [item.strip() for item in spec.split(",")]
    for item in given:
        if item not in _ROUTES:
            raise ValueError(f"unknown route {item!r}; pick from {list(_ROUTES)}")
    return [route for route in _ROUTES if route in given]


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


_EXPONENTS = {"beta_int", "beta_rational", "beta_real"}
# what a job holds when neither a flag nor the config file sets it
_DEFAULTS = {"d": 0.0, "centered": False, "route": "series",
             "tol": series.DEFAULT_TOL, "quad_tol": oracle.DEFAULT_TOL,
             "max_terms": series.DEFAULT_MAX_TERMS, "format": "human",
             "out": None, "tol_compare": 1e-7}


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--config", help="flat key=value file; explicit flags win")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--beta-int", type=int, help="integer exponent m")
    group.add_argument("--beta-rational", metavar="P/Q",
                       help="exact rational exponent p/q")
    group.add_argument("--beta-real", type=float,
                       help="exponent declared non-rational")
    p.add_argument("--d", type=_finite_float,
                   help="shift of the power function (default 0)")
    if command == "domain":
        return
    p.add_argument("--op", choices=["J", "D"],
                   help="J = fractional integral, D = fractional derivative")
    p.add_argument("--alpha", type=_finite_float, help="order in [0, 1]")
    lower = p.add_mutually_exclusive_group()
    lower.add_argument("--a", type=_finite_float, help="explicit lower limit")
    lower.add_argument("--dplus", type=_finite_float, metavar="EPS",
                       help="lower limit at d + EPS")
    lower.add_argument("--centered", action="store_true",
                       help="lower limit at d (series/closed/oracle routes)")
    p.add_argument("--t", help="evaluation point or start:stop:num grid")
    p.add_argument("--route", help="comma list from series,hyp,oracle,closed")
    p.add_argument("--tol", type=_finite_float, help="series tolerance")
    p.add_argument("--quad-tol", type=_finite_float,
                   help="oracle quadrature tolerance")
    p.add_argument("--max-terms", type=int, help="series term cap")
    p.add_argument("--format", choices=["human", "csv", "jsonl"],
                   help="output format (default human)")
    p.add_argument("--out", help="write records to this path instead of stdout")
    if command == "compare":
        p.add_argument("--tol-compare", type=_finite_float,
                       help="max allowed pairwise relative deviation (default 1e-7)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once; a subcommand's namespace holds only the
    flags given."""
    parser = argparse.ArgumentParser(
        prog="rlpower",
        description="Riemann-Liouville fractional integrals and derivatives "
                    "of shifted power functions: series, hypergeometric, "
                    "closed-form and quadrature routes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (("eval", "evaluate the operator on a t grid"),
                               ("compare", "cross-route deviation table"),
                               ("domain", "print the domain and window rules")):
        _add_flags(sub.add_parser(command, help=help_text,
                                  argument_default=argparse.SUPPRESS), command)
    return parser


def _config_values(args: argparse.Namespace) -> dict:
    """The --config file parsed by the subcommand's flags.

    Line ``key=value`` is the token ``--key=value``, and a truthy ``centered``
    the bare flag.  Lines that a given flag overrides are dropped first, and
    any exponent flag drops every exponent line.  Keys must name a flag
    exactly; other keys, and ``help``, are ignored.
    """
    given = set(vars(args))
    tokens = []
    for key, value in _read_config(args.config).items():
        dest = key.replace("-", "_")
        if dest in given or dest == "help" or \
                (dest in _EXPONENTS and given & _EXPONENTS):
            continue
        if key != "centered":
            tokens.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes"):
            tokens.append("--centered")
    return vars(_config_parser(args.command).parse_known_args(tokens)[0])


@functools.cache
def _config_parser(command: str) -> argparse.ArgumentParser:
    # the subcommand's flags, matched by their exact names only
    parser = argparse.ArgumentParser(prog=f"rlpower {command}", allow_abbrev=False,
                                     argument_default=argparse.SUPPRESS)
    _add_flags(parser, command)
    return parser


def _beta_from(values: dict) -> BetaIndex:
    if "beta_int" in values:
        return beta_int(values["beta_int"])
    if "beta_rational" in values:
        token = values["beta_rational"].strip()
        if "/" in token:
            p, q = token.split("/", 1)
            return beta_rational(int(p), int(q))
        try:
            return beta_int(int(token))
        except ValueError:
            float(token)  # a non-number fails with float's own message
            raise ValueError("--beta-rational expects p/q") from None
    if "beta_real" in values:
        return beta_real(values["beta_real"])
    raise ValueError("an exponent flag is required "
                     "(--beta-int | --beta-rational | --beta-real)")


def _job_from(values: dict) -> JobSpec:
    """The job the merged values describe, with its lower limit resolved."""
    beta = _beta_from(values)
    if "op" not in values:
        raise ValueError("--op J|D is required")
    if "alpha" not in values:
        raise ValueError("--alpha is required")
    alpha = require_order(values["alpha"])

    lower = [key for key in ("a", "dplus") if key in values]
    if values["centered"]:
        lower.append("centered")
    if len(lower) > 1:
        raise ValueError("only one of --a / --dplus / --centered may be given")
    if not lower:
        raise ValueError("a lower-limit flag is required (--a | --dplus | --centered)")

    if "t" not in values:
        raise ValueError("--t is required")
    t_values = _parse_t_spec(values["t"])
    if not all(map(math.isfinite, t_values)):
        raise ValueError(f"t={values['t']!r}: every point must be finite")
    routes = _parse_routes(values["route"])
    if values["command"] == "compare" and len(routes) < 2:
        raise ValueError("compare needs at least two routes")

    d = values["d"]
    if "dplus" in values:
        if values["dplus"] <= 0.0:
            raise ValueError("--dplus needs a positive epsilon")
        a = d + values["dplus"]
    else:
        a = values.get("a", d)
    return JobSpec(
        op=values["op"], alpha=alpha, beta=beta, d=d, a=a,
        t_values=t_values, routes=routes,
        tol=values["tol"], tol_compare=values["tol_compare"],
        quad_tol=values["quad_tol"], max_terms=values["max_terms"],
        out_format=values["format"], out_path=values["out"])


def _route_values(job: JobSpec, pf, win, sa: float, route: str,
                  ts: list[float]) -> series.Columns:
    """The columns (values, terms, remainders, statuses) over the sorted
    points ts on one route, at the signed order sa: one call of the route's
    body, which writes a point that fails to converge as a truncated record
    and raises every other error."""
    if route == "series":
        return series._series(pf, win, sa, ts, job.tol, job.max_terms)
    if route == "closed":
        return series._centered(pf, sa, ts, job.tol)
    if route == "hyp":
        return hypergeom._hyp_form(pf, win, sa, ts)
    return oracle._quad(pf, job.a, job.alpha, ts, job.quad_tol, job.op == "D")


def run_job(job: JobSpec) -> JobResult:
    """Validate the job, then evaluate it route by route over its sorted
    points.

    Domain and window checks run before any computation, so validation errors
    propagate with nothing half-emitted (exit 1); convergence failures become
    records (exit 2).
    """
    pf = power_function(job.d, job.beta)
    if "closed" in job.routes and job.a != pf.d:
        raise ValueError("the closed route evaluates the centered operator; "
                         "it needs a = d (--centered)")
    # only the series and hyp routes have a window
    win = make_window(job.a, pf) if {"series", "hyp"} & set(job.routes) else None
    sa = job.alpha if job.op == "J" else -job.alpha
    # in job order, to name the first point at fault
    require_points(win, job.a, pf.d, sa, job.t_values)
    ts = sorted(job.t_values)

    try:
        columns = [_route_values(job, pf, win, sa, route, ts)
                   for route in job.routes]
    except Exception:
        # raise the error that comes first in t-major order, where a
        # point-by-point pass meets it
        for t in ts:
            for route in job.routes:
                _route_values(job, pf, win, sa, route, [t])
        raise
    return JobResult((job.op, job.alpha, format_beta(job.beta), pf.d, job.a),
                     ts, job.routes, columns)


def _output(job: JobSpec):
    """The --out file, or stdout; opened only once the output is ready."""
    if job.out_path:
        return open(job.out_path, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _emit_records(result: JobResult, job: JobSpec, stream) -> None:
    """The header, then one line per record of the job, t-major.

    The head piece is formatted once per job and the point piece once per
    point.  Each route's tails are formatted from its columns a chunk of
    points at a time, interleaved with the point pieces and written with one
    write per chunk.  Only JSON lines hold ": " before a number, so
    respelling a chunk's non-finite floats leaves the rest as it is.  The
    head and t are finite, so a job's chunks are respelled only where a sum
    of its value and remainder columns is not finite: where one of them
    holds a NaN or an infinity, or the sum overflows.
    """
    header, head_fmt, point_fmt, tail_fmt, respell = _FORMATS[job.out_format]
    stream.write(header)
    head = head_fmt % dict(zip(CSV_COLUMNS, result.head))
    point_fmt = head.replace("%", "%%") + point_fmt
    tail_fmts = [tail_fmt % route for route in result.routes]
    width = 2 * len(tail_fmts)
    ts, columns = result.ts, result.columns
    respell = respell and not math.isfinite(sum(
        sum(values) + sum(remainders) for values, _, remainders, _ in columns))
    for start in range(0, len(ts), _CHUNK):
        stop = start + _CHUNK
        points = list(map(point_fmt.__mod__, ts[start:stop]))
        pieces = [""] * (width * len(points))
        for j, (fmt, (values, terms, remainders, statuses)) in enumerate(
                zip(tail_fmts, columns)):
            pieces[2 * j::width] = points
            pieces[2 * j + 1::width] = list(map(fmt.__mod__, zip(
                values[start:stop], terms[start:stop], remainders[start:stop],
                statuses[start:stop])))
        text = "".join(pieces)
        if respell:
            text = text.replace(": nan", ": NaN").replace(
                ": inf", ": Infinity").replace(": -inf", ": -Infinity")
        stream.write(text)


def _exit_status(result: JobResult, exceeded: bool = False) -> int:
    if any(statuses.count("converged") != len(statuses)
           for _, _, _, statuses in result.columns):
        return 2
    return 3 if exceeded else 0


def cmd_eval(job: JobSpec) -> int:
    result = run_job(job)
    with _output(job) as stream:
        _emit_records(result, job, stream)
    return _exit_status(result)


def cmd_compare(job: JobSpec) -> int:
    """One line per point: the largest pairwise relative deviation between
    the routes' values, NaN when a route has no value."""
    result = run_job(job)
    names = "/".join(result.routes)
    rows = ["%14s %14s %24s\n" % ("t", "max_rel_dev", "routes")]
    exceeded = False
    for t, values in zip(result.ts, zip(*(column[0] for column in result.columns))):
        devs = [abs(x - y) / max(1.0, abs(x), abs(y))
                for j, x in enumerate(values) for y in values[j + 1:]]
        worst = math.nan if any(map(math.isnan, devs)) else max(devs)
        exceeded = exceeded or not worst <= job.tol_compare
        rows.append("%14.9g %14.3e %24s\n" % (t, worst, names))
    with _output(job) as stream:
        stream.writelines(rows)
    return _exit_status(result, exceeded)


def cmd_domain(beta: BetaIndex, d: float) -> int:
    pf = power_function(d, beta)
    sys.stdout.write(format_domain(pf.domain, pf.d) + "\n")
    sys.stdout.write("windows: a < d -> t in [a, a + |d-a|/2); "
                     "a > d -> t in [a, a + |d-a|)\n")
    if isinstance(beta, IntegerExp) and beta.m >= 0:
        sys.stdout.write("centered: a = d allowed (polynomial), t >= a unrestricted\n")
    else:
        sys.stdout.write("centered: a = d not analytic; series routes need a != d\n")
    return 0


_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _join_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes option values like "-1/2" or "-1e-3" for options;
    # fold them into --flag=value
    out = []
    for prev, tok in zip([""] + argv, argv):
        if prev.startswith("--") and _NEGATIVE_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_join_negative_values(list(argv)))
        # defaults, then the config file, then the flags given
        values = dict(_DEFAULTS)
        if "config" in args:
            values.update(_config_values(args))
        values.update(vars(args))
        if args.command == "domain":
            return cmd_domain(_beta_from(values), values["d"])
        return (cmd_eval if args.command == "eval" else cmd_compare)(_job_from(values))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for non-convergence
        return 0 if exc.code in (0, None) else 1
    except (RLPowerError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
