"""Benchmark for alphalimits: three seeded workloads driven from outside the package.

    python3 bench/run.py --workload convergence --seed 0 --seconds 55 --trace 0

Each workload run happens in a fresh Python process (worker.py) with BLAS
and OpenMP pinned to one thread, so peak RSS and set-up time are per
workload. With --trace 0 it prints the end-to-end metrics; with --trace 1
the per-layer metrics of the outside-in tracer. Without --workload it runs
every workload. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Run records (environment,
metrics, failed jobs) and the spans of the last traced pass go to
.bench_out/ at the repository root. See bench/README.md for the workloads,
the layer-to-end-to-end map and the known defects the workloads expose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "alphalimits"
OUT = ROOT / ".bench_out"
WORKLOADS = ("ladder", "convergence", "verify")
SETUP_PROBES = 6  # fresh processes timed for setup_s, besides the workload's own
RUN_LIMIT_S = 170  # one workload run must end well within 180 s
# Set in the benchmark's own child processes only.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # glibc raises its mmap threshold after a large block is freed, so whether
    # later matrices reuse fragmented heap depends on job order; pinning it at
    # its default 128 KiB makes peak RSS follow the program's live memory.
    "MALLOC_MMAP_THRESHOLD_": "131072",
}
END_TO_END = (("wall_s", "s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
              ("ok_rate", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_worker(args: list, deadline: float) -> dict:
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    probes = 0 if trace else SETUP_PROBES
    if probes:
        run_worker(["--setup-only"], deadline)  # compiles bytecode; not timed
    # Probes before and after the workload process, so that set-up time is
    # sampled across the run rather than in one moment of a drifting machine.
    setup = [run_worker(["--setup-only"], deadline)["setup_s"]
             for _ in range(probes // 2)]
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--spans", str(OUT / f"{name}-spans.csv")]
    res = run_worker(args, deadline)
    setup.append(res["setup_s"])
    setup += [run_worker(["--setup-only"], deadline)["setup_s"]
              for _ in range(probes - probes // 2)]
    res["setup_samples"] = setup
    if trace:
        res["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        res["ok_rate"] = 1.0 - res["failed"] / res["attempted"]
        res["setup_s"] = statistics.median(setup)
        res["metrics"] = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
    return res


def environment() -> dict:
    digest = hashlib.sha256()
    for f in sorted(PACKAGE.glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    try:
        sched = len(os.sched_getaffinity(0))
    except AttributeError:
        sched = None
    return {
        "nproc": sched,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "pinned_env": PINNED_ENV,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def _git_sha():
    """HEAD of the repository holding the benchmark, or None outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def report(name: str, seed: int, res: dict) -> None:
    kind = "traced" if "layers" in res else "untraced"
    print(f"workload {name}  seed {seed}  {kind}  passes {res['passes']}+"
          f"{res['traced_passes']} traced  jobs/pass {res['jobs']}")
    for metric, m in res["metrics"].items():
        print(f"  {metric:28s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':28s} {res['failed'] / res['attempted']:>14.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} jobs; {res['wrong']} wrong output)")
    for f in res["failures"][:5]:
        print(f"  failed [{f['kind']}] {f['job']}: {f['reason'][:160]}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: no package source at {PACKAGE}", file=sys.stderr)
        return 2

    env = environment()
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace)
            env_run = dict(env, numpy=res.pop("numpy"))
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "environment": env_run, **res}
            (OUT / f"{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
            report(name, args.seed, res)
            results[name] = res
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("# environment: " + json.dumps(env_run, sort_keys=True))
    if len(results) == 1:
        metrics = res["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
