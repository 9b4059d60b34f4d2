"""Each walkthrough in demos/ runs to the end; the subdivision walkthrough,
which prints each internal path's kind and vertices, byte for byte against
tests/golden/demo_subdivision_directions.out."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


def test_demos_are_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_convergence_demo_shows_no_ratio_of_rounding_noise(capsys):
    script = next(p for p in DEMOS if p.name == "convergence_to_psi.py")
    floor = runpy.run_path(str(script), run_name="__main__")["SATURATION_FLOOR"]
    rows = [line for line in capsys.readouterr().out.splitlines() if " gap=" in line]
    for line in rows:
        gap = float(line.split("gap=")[1].split()[0])
        assert ("gap ratio" in line) <= (abs(gap) > floor), line
    assert any("saturated" in line for line in rows)


def test_subdivision_demo_output_is_unchanged(capsys):
    script = next(p for p in DEMOS if p.name == "subdivision_directions.py")
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / "demo_subdivision_directions.out").read_bytes()
