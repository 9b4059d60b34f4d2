"""The README's command-line examples, compared byte for byte.

Each file in tests/golden/ holds the stdout of one example. A change that
must not move any output leaves them as they are; a change that moves an
output on purpose regenerates the file and says why.
"""

from pathlib import Path

import pytest

from alphalimits.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXAMPLES = {
    "radius_wheel5": ("radius", "wheel5", "--alpha", "0.3333333333333333"),
    "table_classic": ("table", "classic", "--n-max", "10"),
    "table_laplacian_json": ("table", "laplacian", "--n-max", "8", "--format", "json"),
    "psi": ("psi",),
    "convergence_p2nn": ("convergence", "p2nn", "--alpha", "0.25",
                         "--sizes", "10,20,40,80"),
    "convergence_p2mn": ("convergence", "p2mn", "--alpha", "0",
                         "--sizes", "50,100,200", "--n-fixed", "2"),
    "verify_all": ("verify", "all", "--seed", "7", "--trials", "200"),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_output_is_unchanged(name, capsys):
    assert main(list(EXAMPLES[name])) == 0
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / f"{name}.out").read_bytes()
