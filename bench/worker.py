"""One workload run in a fresh process; prints its measurements as one JSON line.

Started by run.py with BLAS pinned to one thread. The process imports the
package and makes one warm-up call into each layer (set-up, timed on its
own), then runs passes over the workload's job list as a closed loop, one
job at a time, until the time budget is spent. Outputs are checked after
each pass, outside the timed region. With --trace 1, untraced and traced
passes alternate, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from time import perf_counter


def setup():
    """Import the package and call into each layer once; (seconds, package)."""
    t0 = perf_counter()
    import alphalimits
    from alphalimits import cli, graphs, limits, spectral, verify

    g = graphs.path(4)
    spectral.radius_of(g, 0.5)  # the first LAPACK eigensolve
    spectral.char_poly_eval(g, 0.5, 3.0)  # the first LAPACK determinant
    limits.eta_n(3, 0.5)
    verify.run_lemma_suite(0, 1)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["radius", "path:4"])
    return perf_counter() - t0, alphalimits


def run_job(job, package):
    """(seconds, exit code, output, error) of one CLI or library job."""
    code, out, err = 0, None, ""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        if job.argv:
            with contextlib.redirect_stdout(buf):
                code = package.cli.main(list(job.argv))
        else:
            module, function, args = job.call
            out = getattr(getattr(package, module), function)(*args)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a job that raises is a failed job, not a crash
        err = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if job.argv:
        out = buf.getvalue()
    return seconds, code, out, err


def run_pass(jobs, package, tracer=None):
    """(wall seconds, per-job results) of one closed-loop pass."""
    results = []
    t0 = perf_counter()
    for job in jobs:
        span = tracer.begin("job") if tracer else None
        results.append(run_job(job, package))
        if tracer:
            tracer.end(span)
    return perf_counter() - t0, results


def judge(jobs, results, check, workloads):
    """{job index: (kind, reason)}; kind is 'error' (raised or bad exit code)
    or 'wrong' (exit 0 but the output failed its check)."""
    failures = {}
    outputs = []
    for i, (job, (_, code, out, err)) in enumerate(zip(jobs, results)):
        if err:
            failures[i] = ("error", err)
        elif code != 0:
            detail = workloads.properties_failed(out) if job.argv else ""
            failures[i] = ("error", f"exit {code}" + (f": FAIL {detail}" if detail else ""))
        outputs.append(None if i in failures else out)
    try:
        wrong = check(jobs, outputs)
    except Exception as exc:  # an unreadable output fails every job it reached
        wrong = {i: f"check raised {type(exc).__name__}: {exc}"
                 for i, out in enumerate(outputs) if out is not None}
    for i, reason in wrong.items():
        failures.setdefault(i, ("wrong", reason))
    return failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="CSV path for the last traced pass")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    setup_s, package = setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracer as tracing
    import workloads

    jobs, check = workloads.build(args.workload, args.seed)
    tracer = tracing.Tracer(package) if args.trace else None
    walls = {False: [], True: []}
    latencies = [[] for _ in jobs]
    layer_samples = []
    failures = {}  # job index -> first failure seen on any pass
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        # Untraced, traced, traced, untraced, ...: first-pass effects and
        # machine drift fall on both sides of trace.overhead_s.
        traced = bool(args.trace) and (len(walls[False]) + len(walls[True])) % 4 in (1, 2)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, results = run_pass(jobs, package, tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
        walls[traced].append(wall)
        if traced:
            layer_samples.append(tracer.metrics())
        else:
            for lat, result in zip(latencies, results):
                lat.append(result[0])
        for i, (kind, reason) in judge(jobs, results, check, workloads).items():
            failures.setdefault(i, {"job": jobs[i].label, "kind": kind,
                                    "reason": reason[:400]})
        elapsed = perf_counter() - t_start
        done = not args.trace or walls[True]
        if done and elapsed + (perf_counter() - t_pass) > args.seconds:
            break

    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    # Slowdowns from other tenants of the host only ever add time, and they
    # come in phases of seconds that can cover most of a run, so each job's
    # fastest latency over passes spread across the run is the steady
    # estimate. Jobs run back to back, so a pass takes the sum of its job
    # latencies (to about 1 ms in 4 s).
    per_job_ms = [1000 * min(lat) for lat in latencies]
    deciles = statistics.quantiles(per_job_ms, n=10, method="inclusive")
    out = {
        "setup_s": setup_s,
        "passes": len(walls[False]),
        "traced_passes": len(walls[True]),
        "jobs": len(jobs),
        "wall_s": sum(per_job_ms) / 1000,
        "pass_walls": walls[False],
        "job_ms": [[job.label, [round(1000 * s, 4) for s in lat]]
                   for job, lat in zip(jobs, latencies)],
        "job_p50_ms": deciles[4],
        "job_p90_ms": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        # Each job of the list counts once, failed if it failed on any pass,
        # so the counts depend on the seed and not on how many passes fit.
        "attempted": len(jobs),
        "failed": len(failures),
        "wrong": sum(f["kind"] == "wrong" for f in failures.values()),
        "failures": [failures[i] for i in sorted(failures)][:20],
        "numpy": _numpy_info(),
    }
    if args.trace:
        out["layers"] = {name: [statistics.median(s[name][0] for s in layer_samples),
                                unit]
                         for name, (_, unit) in layer_samples[0].items()}
        out["layers"]["trace.overhead_s"] = [min(walls[True]) - min(walls[False]), "s"]
    print(json.dumps(out))
    return 0


def _numpy_info() -> dict:
    import numpy as np

    info = {"version": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        info["blas"] = None
    return info


if __name__ == "__main__":
    sys.exit(main())
