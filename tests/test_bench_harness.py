"""The benchmark harness still runs every workload against the package.

bench/worker.py warms each layer up by name in setup(), and
bench/workloads.py builds jobs from public CLI commands and library calls,
so a rename or deletion in the package would make every benchmark run fail
while the rest of the suite passes. This runs setup() and one pass of each
workload at seed 0.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_setup_and_one_pass_of_each_workload(monkeypatch, capsys):
    worker = load_bench_module("worker", monkeypatch)
    workloads = load_bench_module("workloads", monkeypatch)
    _, package = worker.setup()
    for name in ("ladder", "convergence", "verify"):
        jobs, _ = workloads.build(name, 0)
        _, results = worker.run_pass(jobs, package)
        assert len(results) == len(jobs)
        for job, (_, code, _, err) in zip(jobs, results):
            assert err == "", job.label
            assert code == 0, job.label
    capsys.readouterr()
