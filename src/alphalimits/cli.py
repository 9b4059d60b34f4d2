"""Command-line surface: tables, psi values, convergence runs, property suites.

Five subcommands (radius, table, psi, convergence, verify) share one
Report shape rendered as CSV, JSON or plot-ready TSV. Output is
deterministic for fixed flags and seed: no timestamps, 15 significant
digits, sorted metadata. Exit codes: 0 success, 1 property failure,
2 usage error.
"""

from __future__ import annotations

import argparse
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
from .limits import RootConfig
from .spectral import radius_of, star_radius
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
    if isinstance(v, float):
        return float(f"{v:.15g}")
    return v


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

FAMILY_ARITY = {"path": 1, "cycle": 1, "wheel5": 0, "p2": 2, "lollipop": 1,
                "dsnake": 1}


def parse_graph_spec(spec: str) -> Graph:
    """`family:params` expression or a literal `n; u-v,...` edge list."""
    if ";" in spec:
        return parse_graph(spec)
    name, _, params = spec.partition(":")
    if name not in FAMILY_ARITY:
        raise ValueError(f"unknown graph family {name!r} in {spec!r}")
    try:
        args = [int(p) for p in params.split(",")] if params else []
    except ValueError:
        raise ValueError(f"non-integer parameter in {spec!r}") from None
    if len(args) != FAMILY_ARITY[name]:
        raise ValueError(
            f"{name} takes {FAMILY_ARITY[name]} parameter(s), got {len(args)} in {spec!r}")
    if name == "path":
        return path(args[0])
    if name == "cycle":
        return cycle(args[0])
    if name == "wheel5":
        return wheel5()
    if name == "p2":
        return p2_two_paths(args[0], args[1])[0]
    if name == "lollipop":
        return lollipop(args[0])
    return double_snake(args[0])


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_radius(args) -> tuple:
    g = parse_graph_spec(args.graph)
    alpha = args.alpha
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    rho = radius_of(g, alpha)
    dmax = float(g.degrees().max()) if g.n_edges else 0.0
    lower = star_radius(dmax, alpha)
    report = Report(
        columns=("graph", "alpha", "rho", "lower_bound", "upper_bound"),
        rows=[(args.graph, alpha, rho, lower, dmax)],
        metadata=_metadata("radius", graph=args.graph, alpha=alpha),
        series=[("rho", [(alpha, rho)])],
    )
    return report, 0


def cmd_table(args) -> tuple:
    alphas = args.alpha if args.alpha else [0.0]
    for a in alphas:
        if not (0.0 <= a < 1.0):
            raise ValueError(f"table alpha must lie in [0,1), got {a}")
    if args.n_max > MAX_TABLE_N:
        raise ValueError(f"n-max {args.n_max} > cap {MAX_TABLE_N}")
    cfg = RootConfig(tol=args.tol)
    table = limits.limit_table(args.kind, args.n_max, alphas, cfg)
    rows = [("term", r.n, r.alpha, r.gamma, r.eta) for r in table.rows]
    rows += [("limit", None, a, None, v) for a, v in table.limits]
    series = []
    for a in sorted({r.alpha for r in table.rows}):
        pts = [(r.n, r.eta) for r in table.rows if r.alpha == a]
        series.append((f"{args.kind} alpha={_fmt(float(a))}", pts))
    for a, v in table.limits:
        series.append((f"limit alpha={_fmt(float(a))}", [(args.n_max, v)]))
    report = Report(
        columns=("label", "n", "alpha", "root", "value"),
        rows=rows,
        metadata=_metadata("table", kind=args.kind, n_max=args.n_max,
                           alphas=",".join(_fmt(float(a)) for a in alphas),
                           tol=args.tol),
        series=series,
    )
    return report, 0


PSI_DEFAULT_GRID = tuple(round(0.05 * k, 2) for k in range(20))  # 0.00 .. 0.95


def cmd_psi(args) -> tuple:
    alphas = args.alpha if args.alpha else list(PSI_DEFAULT_GRID)
    for a in alphas:
        if not (0.0 <= a <= 1.0):
            raise ValueError(f"psi alpha must lie in [0,1], got {a}")
    cfg = RootConfig(tol=args.tol)
    rows = []
    series_root, series_closed, series_o1, series_o2 = [], [], [], []
    for a in alphas:
        root = limits.psi(a, cfg)
        note = ""
        if a < 1.0:
            try:
                closed = limits.psi_closed_form(a)
            except limits.BranchSelectionError as exc:
                closed, note = None, f"branch failure: {exc}"
            o1 = limits.omega1(a)
            o2 = limits.omega2(a, cfg)
        else:
            closed, note = None, "closed form defined for alpha < 1"
            o1 = o2 = None
        diff = None if closed is None else abs(root - closed)
        rows.append((a, root, closed, diff, o1, o2, note))
        series_root.append((a, root))
        if closed is not None:
            series_closed.append((a, closed))
        if o1 is not None:
            series_o1.append((a, o1))
            series_o2.append((a, o2))
    report = Report(
        columns=("alpha", "psi_root", "psi_closed", "abs_difference",
                 "omega1", "omega2", "note"),
        rows=rows,
        metadata=_metadata("psi", alphas=",".join(_fmt(float(a)) for a in alphas),
                           tol=args.tol),
        series=[("psi_root", series_root), ("psi_closed", series_closed),
                ("omega1", series_o1), ("omega2", series_o2)],
    )
    return report, 0


FAMILIES = ("p2nn", "p2mn", "k13", "p5u")


def _family_graph(family: str, size: int, n_fixed: int | None) -> Graph:
    if family == "p2nn":
        return p2_two_paths(size, size)[0]
    if family == "p2mn":
        return p2_two_paths(size, n_fixed)[0]
    if family == "k13":
        return attach_pendant_path(star(3), 0, size)
    return attach_pendant_path(path(5), 2, size)


def _family_target(family: str, alpha: float, n_fixed: int | None,
                   cfg: RootConfig) -> float:
    if family == "p2nn":
        return limits.psi(alpha, cfg)
    if family == "p2mn":
        return limits.eta_n(n_fixed, alpha, cfg)
    if family == "k13":
        return limits.omega1(alpha)
    return limits.omega2(alpha, cfg)


def cmd_convergence(args) -> tuple:
    family = args.family
    alpha = args.alpha_single
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0,1), got {alpha}")
    sizes = args.sizes
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly ascending")
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive")
    n_fixed = args.n_fixed
    if family == "p2mn" and n_fixed is None:
        raise ValueError("p2mn needs --n-fixed")
    cfg = RootConfig(tol=args.tol)
    target = _family_target(family, alpha, n_fixed, cfg)
    rows = []
    pts = []
    prev_gap = None
    failures = 0
    for size in sizes:
        g = _family_graph(family, size, n_fixed)
        if g.n_vertices > MAX_ORDER:
            raise ValueError(
                f"size {size} gives order {g.n_vertices} > cap {MAX_ORDER}")
        rho = radius_of(g, alpha)
        gap = target - rho
        note = ""
        if gap < GAP_NEGATIVE_FLOOR:
            note = "gap-negative"
        elif prev_gap is not None and gap > prev_gap + GAP_INCREASE_SLACK:
            note = "gap-increase"
        if note:
            failures += 1
        rows.append((size, rho, target, gap, note))
        pts.append((size, rho))
        prev_gap = gap
    meta = _metadata("convergence", family=family, alpha=alpha,
                     sizes=",".join(str(s) for s in sizes), tol=args.tol)
    if n_fixed is not None:
        meta["n_fixed"] = str(n_fixed)
    report = Report(
        columns=("size", "rho", "target", "gap", "note"),
        rows=rows,
        metadata=meta,
        series=[("rho", pts), ("target", [(s, target) for s in sizes])],
    )
    return report, (1 if failures else 0)


def cmd_verify(args) -> tuple:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphalimits",
        description="Limit points of alpha-adjacency spectral radii: "
                    "tables, convergence experiments and property suites.")
    parser.add_argument("--version", action="version",
                        version=f"alphalimits {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        p.add_argument("--format", choices=("csv", "json", "plot"),
                       default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if tol:
            p.add_argument("--tol", type=float, default=1e-13,
                           help="root isolation tolerance")

    p = sub.add_parser("radius", help="spectral radius of one graph")
    p.add_argument("graph", help="family expression (path:5, cycle:7, wheel5, "
                                 "p2:4,6, lollipop:9, dsnake:8) or 'n; u-v,...'")
    p.add_argument("--alpha", type=float, default=0.0)
    common(p, tol=False)
    p.set_defaults(handler=cmd_radius)

    p = sub.add_parser("table", help="limit-point sequence tables")
    p.add_argument("kind", choices=limits.TABLE_KINDS)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--alpha", type=float, action="append", default=None,
                   help="repeatable; default 0")
    common(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("psi", help="limiting value, closed form and omegas")
    p.add_argument("--alpha", type=float, action="append", default=None,
                   help="repeatable; default 0.00..0.95 step 0.05")
    common(p)
    p.set_defaults(handler=cmd_psi)

    p = sub.add_parser("convergence", help="finite-family approach to a limit")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--alpha", dest="alpha_single", type=float, default=0.0)
    p.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")],
                   required=True, help="comma-separated ascending path lengths")
    p.add_argument("--n-fixed", type=int, default=None,
                   help="fixed short-path order for p2mn")
    common(p)
    p.set_defaults(handler=cmd_convergence)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("suite", choices=("lemmas", "identities", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    common(p, tol=False)
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    try:
        _emit(report, args.format, args.out)
    except OSError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
