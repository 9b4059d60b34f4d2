"""The benchmark tracer still wraps and restores every binding it names.

bench/tracer.py patches the package from outside, by module attribute,
handler dict entry and class __dict__ slot, so a rename in the package
would silently break `bench/run.py --trace 1`. This runs one traced pass
over each layer and checks the metrics and the clean removal.
"""

import importlib.util
from pathlib import Path

import alphalimits
from alphalimits import cli, graphs, limits, spectral, verify

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    return (spectral.radius_of, cli.HANDLERS["radius"],
            graphs.Graph.__dict__["__init__"], limits.HalfPoly.__dict__["eval_t"])


def test_tracer_installs_measures_and_restores(capsys):
    originals = bindings()
    tracer = load_tracer_module().Tracer(alphalimits)
    tracer.install()
    try:
        assert all(now is not was for now, was in zip(bindings(), originals))
        assert cli.main(["radius", "path:4"]) == 0
        verify.run_lemma_suite(0, 2)
        limits.eta_n(3, 0.5)
        metrics = tracer.metrics()
    finally:
        tracer.remove()
    capsys.readouterr()
    assert len(metrics) == 19
    assert metrics["spectral.radius_calls"][0] > 0
    assert metrics["limits.roots"][0] > 0
    assert metrics["verify.properties_checked"][0] > 0
    assert all(now is was for now, was in zip(bindings(), originals))
