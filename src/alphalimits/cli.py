"""Command-line surface: tables, psi values, convergence runs, property suites.

Five subcommands (radius, table, psi, convergence, verify) share one
Report shape rendered as CSV, JSON or plot-ready TSV. Output is
deterministic for fixed flags and seed: no timestamps, 15 significant
digits, sorted metadata. Exit codes: 0 success, 1 property failure,
2 usage error.

The argument parser is built once per process and shared: `main(argv)` may
be called repeatedly in process (by scripts, tests and benchmark drivers),
and each call parses into a fresh namespace and looks its handler up in
`HANDLERS` by subcommand name, so nothing carries over between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

from . import __version__, limits
from .graphs import (
    Graph,
    attach_pendant_path,
    cycle,
    double_snake,
    lollipop,
    p2_two_paths,
    parse_graph,
    path,
    star,
    wheel5,
)
from .spectral import _spider_radius, _validate_alpha, degree_bounds, radius_of
from .verify import run_suite

MAX_ORDER = 2000
MAX_TABLE_N = 500
MAX_TRIALS = 10000
GAP_NEGATIVE_FLOOR = -1e-10
GAP_INCREASE_SLACK = 1e-12


@dataclass
class Report:
    columns: tuple
    rows: list
    metadata: dict
    series: list = field(default_factory=list)  # (name, [(x, y), ...]) pairs


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


def _json_value(v):
    return float(_fmt(v)) if isinstance(v, float) else v


def _csv_cell(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(r: Report) -> str:
    lines = [f"# {k}: {r.metadata[k]}" for k in sorted(r.metadata)]
    lines.append(",".join(r.columns))
    for row in r.rows:
        lines.append(",".join(_csv_cell(_fmt(v)) for v in row))
    return "\n".join(lines) + "\n"


def render_json(r: Report) -> str:
    doc = {
        "metadata": r.metadata,
        "columns": list(r.columns),
        "rows": [[_json_value(v) for v in row] for row in r.rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_plot(r: Report) -> str:
    lines = [f"# {k}: {r.metadata[k]}" for k in sorted(r.metadata)]
    for name, points in r.series:
        lines.append(f"# series: {name}")
        for x, y in points:
            lines.append(f"{_fmt(x)}\t{_fmt(y)}")
    return "\n".join(lines) + "\n"


RENDERERS = {"csv": render_csv, "json": render_json, "plot": render_plot}


def _emit(report: Report, fmt: str, out: str | None) -> None:
    text = RENDERERS[fmt](report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _metadata(command: str, **params) -> dict:
    meta = {"tool": "alphalimits", "version": __version__, "command": command}
    for k, v in params.items():
        meta[k] = str(v)
    return meta


# ---------------------------------------------------------------------------
# graph mini-grammar
# ---------------------------------------------------------------------------

# name -> (parameter count, constructor). Each constructor looks its builder
# up per call, like HANDLERS, so a builder rebound on this module (by a
# tracer or a test) takes effect.
SPEC_FAMILIES = {
    "path": (1, lambda n: path(n)),
    "cycle": (1, lambda n: cycle(n)),
    "wheel5": (0, lambda: wheel5()),
    "p2": (2, lambda m, n: p2_two_paths(m, n)),
    "lollipop": (1, lambda n: lollipop(n)),
    "dsnake": (1, lambda n: double_snake(n)),
}


def parse_graph_spec(spec: str) -> Graph:
    """`family:params` expression or a literal `n; u-v,...` edge list.

    Orders are capped at MAX_ORDER: a family parameter above it is refused
    before anything is built, and so is a built graph of higher order.
    """
    g = parse_graph(spec) if ";" in spec else _family_spec(spec)
    if g.n_vertices > MAX_ORDER:
        raise ValueError(f"order {g.n_vertices} > cap {MAX_ORDER} in {spec!r}")
    return g


def _family_spec(spec: str) -> Graph:
    name, _, params = spec.partition(":")
    if name not in SPEC_FAMILIES:
        raise ValueError(f"unknown graph family {name!r} in {spec!r}")
    arity, build = SPEC_FAMILIES[name]
    try:
        args = [int(p) for p in params.split(",")] if params else []
    except ValueError:
        raise ValueError(f"non-integer parameter in {spec!r}") from None
    if len(args) != arity:
        raise ValueError(
            f"{name} takes {arity} parameter(s), got {len(args)} in {spec!r}")
    if any(a > MAX_ORDER for a in args):
        raise ValueError(f"parameter {max(args)} > cap {MAX_ORDER} in {spec!r}")
    return build(*args)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_radius(args) -> tuple:
    g = parse_graph_spec(args.graph)
    alpha = args.alpha
    rho = radius_of(g, alpha)
    lower, dmax = degree_bounds(g, alpha)
    report = Report(
        columns=("graph", "alpha", "rho", "lower_bound", "upper_bound"),
        rows=[(args.graph, alpha, rho, lower, dmax)],
        metadata=_metadata("radius", graph=args.graph, alpha=alpha),
        series=[("rho", [(alpha, rho)])],
    )
    return report, 0


def cmd_table(args) -> tuple:
    if args.n_max > MAX_TABLE_N:
        raise ValueError(f"n-max {args.n_max} > cap {MAX_TABLE_N}")
    table = limits.limit_table(args.kind, args.n_max, args.alpha)
    rows = [("term", r.n, r.alpha, r.gamma, r.eta) for r in table.rows]
    rows += [("limit", None, a, None, v) for a, v in table.limits]
    # term series, then limit series, each in the order the alphas came
    series = [(f"{args.kind} alpha={_fmt(float(a))}",
               [(r.n, r.eta) for r in table.rows if r.alpha == a]) for a, _ in table.limits]
    series += [(f"limit alpha={_fmt(float(a))}", [(args.n_max, v)])
               for a, v in table.limits]
    report = Report(
        columns=("label", "n", "alpha", "root", "value"),
        rows=rows,
        metadata=_metadata("table", kind=args.kind, n_max=args.n_max,
                           alphas=",".join(_fmt(a) for a, _ in table.limits)),
        series=series,
    )
    return report, 0


PSI_DEFAULT_GRID = tuple(round(0.05 * k, 2) for k in range(20))  # 0.00 .. 0.95


def cmd_psi(args) -> tuple:
    alphas = args.alpha if args.alpha else list(PSI_DEFAULT_GRID)
    rows = []
    for a in alphas:
        root = limits.psi(a)
        note = ""
        if a < 1.0:
            try:
                closed = limits.psi_closed_form(a)
            except limits.BranchSelectionError as exc:
                closed, note = None, f"branch failure: {exc}"
            o1 = limits.omega1(a)
            o2 = limits.omega2(a)
        else:
            closed, note = None, "closed form defined for alpha < 1"
            o1 = o2 = None
        diff = None if closed is None else abs(root - closed)
        rows.append((a, root, closed, diff, o1, o2, note))
    report = Report(
        columns=("alpha", "psi_root", "psi_closed", "abs_difference",
                 "omega1", "omega2", "note"),
        rows=rows,
        metadata=_metadata("psi", alphas=",".join(_fmt(float(a)) for a in alphas)),
        series=[(name, [(r[0], r[i]) for r in rows if r[i] is not None])
                for i, name in ((1, "psi_root"), (2, "psi_closed"),
                                (4, "omega1"), (5, "omega2"))],
    )
    return report, 0


def _p2_spider(m: int, n: int) -> tuple:
    """The spider shape of p2_two_paths(m, n): hub 0 and its arms, from 1
    (one vertex), 2 (m) and 2 + m (n, none when n = 0)."""
    return 0, [arm for arm in ((1, 1), (1 + m, m), (1 + m + n, n)) if arm[1]], 0


# name -> (graph builder, target, takes --n-fixed, spider shape). Each lambda
# looks its builder up per call, like SPEC_FAMILIES. Every family is a
# spider, and its shape, from the builder's documented numbering, is
# (hub, arms, root): arms lists the (end, vertices) of each arm in
# ascending order of its first vertex, and root is vertex 0, where
# radius_of roots its check (see spectral._spider_radius).
FAMILIES = {
    "p2nn": (lambda size, n_fixed: p2_two_paths(size, size),
             lambda alpha, n_fixed: limits.psi(alpha), False,
             lambda size, n_fixed: _p2_spider(size, size)),
    "p2mn": (lambda size, n_fixed: p2_two_paths(size, n_fixed),
             lambda alpha, n_fixed: limits.eta_n(n_fixed, alpha), True,
             lambda size, n_fixed: _p2_spider(size, n_fixed)),
    "k13": (lambda size, n_fixed: attach_pendant_path(star(3), 0, size),
            lambda alpha, n_fixed: limits.omega1(alpha), False,
            lambda size, n_fixed: (0, [(1, 1), (2, 1), (3, 1), (3 + size, size)], 0)),
    "p5u": (lambda size, n_fixed: attach_pendant_path(path(5), 2, size),
            lambda alpha, n_fixed: limits.omega2(alpha), False,
            lambda size, n_fixed: (2, [(0, 2), (4, 2), (4 + size, size)], 0)),
}


def cmd_convergence(args) -> tuple:
    family = args.family
    alpha = args.alpha_single
    _validate_alpha(alpha, upper_open=True)
    sizes = args.sizes
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly ascending")
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive")
    # Every family's order is at least its size, so these caps are checked
    # before the target is solved or any graph is built.
    if max(sizes) > MAX_ORDER:
        raise ValueError(f"size {max(sizes)} > cap {MAX_ORDER}")
    build, target_of, takes_n_fixed, shape = FAMILIES[family]
    n_fixed = args.n_fixed
    if takes_n_fixed and n_fixed is None:
        raise ValueError(f"{family} needs --n-fixed")
    if not takes_n_fixed and n_fixed is not None:
        raise ValueError(f"--n-fixed applies to p2mn only, not {family}")
    if n_fixed is not None and n_fixed < 0:
        raise ValueError(f"--n-fixed must be non-negative, got {n_fixed}")
    if n_fixed is not None and n_fixed > MAX_ORDER:
        raise ValueError(f"n-fixed {n_fixed} > cap {MAX_ORDER}")
    target = target_of(alpha, n_fixed)
    rows = []
    prev_gap = None
    failures = 0
    for size in sizes:
        g = build(size, n_fixed)
        if g.n_vertices > MAX_ORDER:
            raise ValueError(
                f"size {size} gives order {g.n_vertices} > cap {MAX_ORDER}")
        # g is built for the cap alone: rho comes from the family's shape
        rho = _spider_radius(*shape(size, n_fixed), alpha)
        gap = target - rho
        note = ""
        if gap < GAP_NEGATIVE_FLOOR:
            note = "gap-negative"
        elif prev_gap is not None and gap > prev_gap + GAP_INCREASE_SLACK:
            note = "gap-increase"
        if note:
            failures += 1
        rows.append((size, rho, target, gap, note))
        prev_gap = gap
    meta = _metadata("convergence", family=family, alpha=alpha,
                     sizes=",".join(str(s) for s in sizes))
    if n_fixed is not None:
        meta["n_fixed"] = str(n_fixed)
    report = Report(
        columns=("size", "rho", "target", "gap", "note"),
        rows=rows,
        metadata=meta,
        series=[("rho", [row[:2] for row in rows]),
                ("target", [(s, target) for s in sizes])],
    )
    return report, (1 if failures else 0)


def cmd_verify(args) -> tuple:
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    if args.trials > MAX_TRIALS:
        raise ValueError(f"trials {args.trials} > cap {MAX_TRIALS}")
    results = run_suite(args.suite, args.seed, args.trials)
    rows = [(args.suite, r.name, "pass" if r.passed else "FAIL", r.checked,
             r.detail) for r in results]
    failures = sum(not r.passed for r in results)
    report = Report(
        columns=("suite", "property", "status", "checked", "detail"),
        rows=rows,
        metadata=_metadata("verify", suite=args.suite, seed=args.seed,
                           trials=args.trials),
        series=[("passed", [(i, int(r.passed)) for i, r in enumerate(results)])],
    )
    return report, (1 if failures else 0)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# Looked up per call, not bound into the cached parser by set_defaults, so a
# handler rebound on this module (as a tracer does) takes effect at once.
HANDLERS = {"radius": cmd_radius, "table": cmd_table, "psi": cmd_psi,
            "convergence": cmd_convergence, "verify": cmd_verify}


def _sizes(text: str) -> list:
    """The --sizes list; anything but comma-separated integers is a usage
    error that names the value."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sizes must be comma-separated integers, got {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; it holds no state across parse_args calls."""
    parser = argparse.ArgumentParser(
        prog="alphalimits",
        description="Limit points of alpha-adjacency spectral radii: "
                    "tables, convergence experiments and property suites.")
    parser.add_argument("--version", action="version",
                        version=f"alphalimits {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json", "plot"),
                       default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("radius", help="spectral radius of one graph")
    p.add_argument("graph", help="family expression (path:5, cycle:7, wheel5, "
                                 "p2:4,6, lollipop:9, dsnake:8) or 'n; u-v,...'")
    p.add_argument("--alpha", type=float, default=0.0)
    common(p)

    p = sub.add_parser("table", help="limit-point sequence tables")
    p.add_argument("kind", choices=limits.TABLE_KINDS)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--alpha", type=float, action="append", default=None,
                   help="repeatable; default 0; versionI and versionII only")
    common(p)

    p = sub.add_parser("psi", help="limiting value, closed form and omegas")
    p.add_argument("--alpha", type=float, action="append", default=None,
                   help="repeatable; default 0.00..0.95 step 0.05")
    common(p)

    p = sub.add_parser("convergence", help="finite-family approach to a limit")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--alpha", dest="alpha_single", type=float, default=0.0)
    p.add_argument("--sizes", type=_sizes,
                   required=True, help="comma-separated ascending path lengths")
    p.add_argument("--n-fixed", type=int, default=None,
                   help="fixed short-path order for p2mn")
    common(p)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("suite", choices=("lemmas", "identities", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = HANDLERS[args.command](args)
    except (ValueError, limits.BracketError, limits.BranchSelectionError) as exc:
        # a root the solver cannot isolate at an extreme input is refused
        # like a bad input, with a message and no traceback
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    try:
        _emit(report, args.format, args.out)
    except OSError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
