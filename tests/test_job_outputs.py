"""Byte-identity manifest of the benchmark's job outputs.

tests/golden/job_outputs.sha256 holds one line per job of
bench/workloads.build(name, 0) for the convergence, verify and ladder
workloads, in job order: the workload, the job index, and the sha256 of the job's output.
A CLI job runs in process through cli.main and hashes its exit code and
stdout; a library job hashes cli._fmt of the value it returns. A change
that keeps every number moves no line here. Regenerate only when a change
means to move outputs, with

    PYTHONPATH=src python tests/test_job_outputs.py > tests/golden/job_outputs.sha256
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

import alphalimits
from alphalimits import cli

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "job_outputs.sha256"
WORKLOADS = ("convergence", "verify", "ladder")


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def job_output(job) -> str:
    """The exit code and stdout of a CLI job, or the formatted library result."""
    if not job.argv:
        module, function, args = job.call
        return cli._fmt(getattr(getattr(alphalimits, module), function)(*args))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(job.argv))
    return f"{code}\n{buf.getvalue()}"


def manifest():
    """The manifest's lines, each 'workload index sha256'."""
    workloads = load_workloads()
    lines = []
    for name in WORKLOADS:
        jobs, _ = workloads.build(name, 0)
        for i, job in enumerate(jobs):
            digest = hashlib.sha256(job_output(job).encode()).hexdigest()
            lines.append(f"{name} {i} {digest}")
    return lines


def test_job_outputs_keep_their_bytes():
    want = MANIFEST.read_text().splitlines()
    got = manifest()
    assert len(got) == len(want)
    moved = [g for g, w in zip(got, want) if g != w]
    counts = Counter(line.split()[0] for line in moved)
    per_workload = ", ".join(f"{name} {counts[name]}" for name in WORKLOADS if counts[name])
    assert not moved, f"{len(moved)} job outputs moved ({per_workload}), first: {moved[0]}"


if __name__ == "__main__":
    print("\n".join(manifest()))
