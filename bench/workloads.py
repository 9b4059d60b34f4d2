"""Seeded job lists for the three workloads, and the checks on their outputs.

A job is either one `alphalimits.cli.main(argv)` call or one public library
call. Every input comes from the workload seed; the package only sees the
generated argv and graphs. Continuous draws (alpha, path sizes) are
stratified: each of N jobs takes one of N equal strata in random order, so
the cost of a pass varies little from seed to seed while the inputs still
change with it. Checks use the package's own independent routes and are
run after a pass, outside the timed region.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field

import alphalimits
from alphalimits import graphs, spectral

TOL = 1e-13  # the CLI's default --tol; every job runs with it
ETA_AGREE = 1e-12
LIMIT_SLACK = 1e-12
PSI_CLOSED_AGREE = 1e-8
TARGET_SLACK = 1e-10
PENDANT_SLACK = 1e-9
LADDER_ALPHAS = 32
ALPHA_HI = 0.95
ANCHOR_ALPHAS = tuple(f"{0.1 * k:.1f}" for k in range(10))
CONVERGENCE_PER_FAMILY = 25
SIZE_LO, SIZE_HI = 25, 400
PENDANT_JOBS = 8  # of each operator, on graphs of order 4..12
PENDANT_TREE_ORDER = 300
# The scan on an order-300 tree costs about 3 s below alpha 0.45 and falls
# to 0.7 s at 0.94, and this one job is a fifth to a third of a pass, so a
# seeded alpha here moved wall_s by more between seeds than the host's
# noise does. The tree and its vertex stay seeded; alpha is fixed at 1/2.
PENDANT_TREE_ALPHA = 0.5
PENDANT_CHECK_PATH = 200
VERIFY_JOBS = 100
VERIFY_TRIALS = 20


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple = ()           # CLI job: arguments for cli.main
    call: tuple = ()           # library job: (module, function, args)
    meta: dict = field(default_factory=dict, hash=False)


def build(name: str, seed: int):
    """(jobs, check) for a workload.

    check(jobs, outputs) -> {job index: reason}; outputs[i] is None for a
    job that already failed loudly.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "ladder":
        return _ladder(rng)
    if name == "convergence":
        return _convergence(rng)
    if name == "verify":
        return _verify(rng)
    raise ValueError(f"unknown workload {name!r}")


def _strata(rng: random.Random, n: int) -> list:
    """n draws in [0, 1), one per stratum of width 1/n, in random order."""
    draws = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(draws)
    return draws


def _cli(*argv, **meta) -> Job:
    return Job(" ".join(argv), argv=tuple(argv), meta=meta)


def parse_csv(text: str) -> list:
    """Rows of the CLI's CSV report as dicts; metadata lines are skipped."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# ladder: polynomial root isolation, no matrices
# ---------------------------------------------------------------------------


def _ladder(rng: random.Random):
    jobs = []
    for u in _strata(rng, LADDER_ALPHAS):
        a = f"{ALPHA_HI * u:.6f}"
        jobs.append(_cli("table", "versionI", "--n-max", "30", "--alpha", a,
                         kind="table", pair=a))
        jobs.append(_cli("table", "versionII", "--n-max", "30", "--alpha", a,
                         kind="table", pair=a))
        jobs.append(_cli("psi", "--alpha", a, kind="psi"))
    for kind in ("classic", "new"):
        jobs.append(_cli("table", kind, "--n-max", "30", kind="table", pair="alpha0"))
    jobs.append(_cli("table", "laplacian", "--n-max", "30", kind="table"))
    jobs.append(_cli("psi", kind="psi"))
    ten = [arg for a in ANCHOR_ALPHAS for arg in ("--alpha", a)]
    jobs.append(_cli("table", "versionI", "--n-max", "30", *ten, kind="table"))
    rng.shuffle(jobs)
    return jobs, _check_ladder


def _check_ladder(jobs, outputs) -> dict:
    bad = {}
    tables = {}  # pair key -> {table kind: (job index, term rows)}
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if out is None:
            continue
        rows = parse_csv(out)
        if job.meta["kind"] == "psi":
            for r in rows:
                if r["note"]:
                    continue
                diff = abs(float(r["psi_root"]) - float(r["psi_closed"]))
                if not diff <= PSI_CLOSED_AGREE:
                    bad[i] = f"psi root and closed form differ by {diff:.3e} at alpha={r['alpha']}"
            continue
        limit = {r["alpha"]: float(r["value"]) for r in rows if r["label"] == "limit"}
        terms = [r for r in rows if r["label"] == "term"]
        for r in terms:
            if not float(r["value"]) <= limit[r["alpha"]] + LIMIT_SLACK:
                bad[i] = f"n={r['n']} value {r['value']} exceeds limit {limit[r['alpha']]!r}"
        if "pair" in job.meta:
            tables.setdefault(job.meta["pair"], {})[job.argv[1]] = (i, terms)
    for key, pair in tables.items():
        if len(pair) < 2:  # the other route failed and is counted already
            continue
        if key == "alpha0":
            (_, first), (j, second) = pair["classic"], pair["new"]
            reason = _compare_eta(first, second)
        else:
            (_, first), (j, second) = pair["versionI"], pair["versionII"]
            reason = _compare_eta(first, second) or _check_duality(first, second)
        if reason:
            bad[j] = f"{key}: {reason}"
    return bad


def _compare_eta(first: list, second: list) -> str:
    """Two routes to the same sequence agree row by row."""
    if len(first) != len(second):
        return "tables have different lengths"
    for r1, r2 in zip(first, second):
        if not abs(float(r1["value"]) - float(r2["value"])) <= ETA_AGREE:
            return f"eta differs at n={r1['n']}: {r1['value']} vs {r2['value']}"
    return ""


def _check_duality(vi: list, vii: list) -> str:
    """gamma * gamma_tilde = 1, to the error the --tol bound on t allows.

    Bisection stops with t = sqrt(x) within tol/2 of the root, so x = t^2
    moves by at most t * tol, a relative error of tol / t; the product is
    off by at most tol * (1/t + 1/t_tilde).
    """
    for r1, r2 in zip(vi, vii):
        g, gt = float(r1["root"]), float(r2["root"])
        allowed = TOL * (1 / math.sqrt(g) + 1 / math.sqrt(gt)) + 1e-15
        if not abs(g * gt - 1.0) <= allowed:
            return f"gamma*gamma_tilde-1 = {g * gt - 1.0:.3e} at n={r1['n']}"
    return ""


# ---------------------------------------------------------------------------
# convergence: dense eigensolves and the pendant determinant scans
# ---------------------------------------------------------------------------


def _random_tree(rng: random.Random, n: int) -> set:
    """Edges of a uniform labelled tree, by Pruefer decoding."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = set()
    for v in seq:
        leaf = degree.index(1)
        edges.add((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (k for k in range(n) if degree[k] == 1)
    edges.add((u, w))
    return edges


def _random_graph(rng: random.Random, n: int, extra: int) -> "graphs.Graph":
    edges = _random_tree(rng, n)
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in edges]
    edges |= set(rng.sample(non_edges, min(extra, len(non_edges))))
    return alphalimits.Graph(n, frozenset(edges))


def _convergence(rng: random.Random):
    jobs = []
    for family in ("p2nn", "p2mn", "k13", "p5u"):
        alphas = _strata(rng, CONVERGENCE_PER_FAMILY)
        sizes = _strata(rng, CONVERGENCE_PER_FAMILY)
        for ua, us in zip(alphas, sizes):
            s = round(SIZE_LO * (SIZE_HI / SIZE_LO) ** us)
            argv = ["convergence", family, "--alpha", f"{ALPHA_HI * ua:.6f}",
                    "--sizes", f"{s},{2 * s}"]
            if family == "p2mn":
                argv += ["--n-fixed", str(rng.randint(1, 10))]
            jobs.append(_cli(*argv, kind="convergence"))
    jobs.append(_cli("convergence", "p2nn", "--alpha", "0.25",
                     "--sizes", "100,200,400,800", kind="convergence"))
    for op, paths in (("pendant_path_limit", 1), ("two_pendant_paths_limit", 2)):
        for ua in _strata(rng, PENDANT_JOBS):
            g = _random_graph(rng, rng.randint(4, 12), rng.randint(0, 3))
            jobs.append(_pendant_job(op, paths, g, rng.randrange(g.n_vertices),
                                     round(ALPHA_HI * ua, 6)))
    tree = alphalimits.Graph(PENDANT_TREE_ORDER,
                             frozenset(_random_tree(rng, PENDANT_TREE_ORDER)))
    jobs.append(_pendant_job("pendant_path_limit", 1, tree,
                             rng.randrange(PENDANT_TREE_ORDER), PENDANT_TREE_ALPHA))
    rng.shuffle(jobs)
    return jobs, _ConvergenceCheck()


def _pendant_job(op: str, paths: int, g, u: int, alpha: float) -> Job:
    return Job(f"limits.{op}(order {g.n_vertices}, u={u}, alpha={alpha})",
               call=("limits", op, (g, u, alpha)),
               meta={"kind": "pendant", "paths": paths})


class _ConvergenceCheck:
    """Row checks on the CLI runs; a lower bound check on each pendant limit.

    A limit L of rho(G + pendant paths of length k) as k grows is at least
    every term, so L >= rho(G + P_k) for one long path (or two, at the same
    vertex). The dense radius of that finite graph is computed once per job.
    """

    def __init__(self):
        self._floor = {}

    def __call__(self, jobs, outputs) -> dict:
        bad = {}
        for i, (job, out) in enumerate(zip(jobs, outputs)):
            if out is None:
                continue
            if job.meta["kind"] == "convergence":
                for r in parse_csv(out):
                    if not float(r["rho"]) <= float(r["target"]) + TARGET_SLACK:
                        bad[i] = f"rho {r['rho']} above target {r['target']} at size {r['size']}"
                continue
            if i not in self._floor:
                g, u, alpha = job.call[2]
                k = max(PENDANT_CHECK_PATH, g.n_vertices)
                for _ in range(job.meta["paths"]):
                    g = graphs.attach_pendant_path(g, u, k)
                self._floor[i] = spectral.radius_of(g, alpha)
            if not out >= self._floor[i] - PENDANT_SLACK:
                bad[i] = f"limit {out!r} below rho(G + P_k) = {self._floor[i]!r}"
        return bad


# ---------------------------------------------------------------------------
# verify: thousands of small eigensolves and graph builds
# ---------------------------------------------------------------------------


def _verify(rng: random.Random):
    jobs = [_cli("verify", "lemmas", "--trials", str(VERIFY_TRIALS),
                 "--seed", str(rng.randrange(2**31)), kind="verify")
            for _ in range(VERIFY_JOBS)]
    jobs.append(_cli("verify", "all", "--trials", "200", kind="verify"))
    rng.shuffle(jobs)
    return jobs, _check_verify


def _check_verify(jobs, outputs) -> dict:
    bad = {}
    for i, out in enumerate(outputs):
        if out is None:
            continue
        failing = [r["property"] for r in parse_csv(out) if r["status"] != "pass"]
        if failing:
            bad[i] = "properties not passing: " + ", ".join(failing)
    return bad


def properties_failed(text: str) -> str:
    """Names of FAIL rows in a verify report, for the failure detail."""
    return ", ".join(r["property"] for r in parse_csv(text) if r.get("status") == "FAIL")
