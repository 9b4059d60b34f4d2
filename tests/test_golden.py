"""The README's command-line examples, compared byte for byte.

Each file in tests/golden/ holds the stdout of one example. A change that
must not move any output leaves them as they are; a change that moves an
output on purpose regenerates the file and says why. The three table
examples beyond the README's cover the versionI, versionII and new
branches of limit_table, the first with the ten alphas of the north-star
command; the lemma example covers the lemma suite on its own, and the psi plot
example pins the plot renderer on the psi series. Every convergence
graph is a tree, so every convergence example pins the tree-elimination
route, from order 22 in the p2nn example up; the p2nn example at sizes
100-800, the benchmark's anchor job, pins it up to order 1602. The
README's Python quick start runs too, each printed value against the
digits in its comment.
"""

import re
from pathlib import Path

import pytest

from alphalimits.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
TEN_ALPHAS = tuple(arg for k in range(10) for arg in ("--alpha", f"0.{k}"))
EXAMPLES = {
    "table_versionI_ten_alphas": ("table", "versionI", "--n-max", "30", *TEN_ALPHAS),
    "table_versionII": ("table", "versionII", "--n-max", "30", "--alpha", "0.3"),
    "table_new": ("table", "new", "--n-max", "10"),
    "radius_wheel5": ("radius", "wheel5", "--alpha", "0.3333333333333333"),
    "table_classic": ("table", "classic", "--n-max", "10"),
    "table_laplacian_json": ("table", "laplacian", "--n-max", "8", "--format", "json"),
    "psi": ("psi",),
    "psi_plot": ("psi", "--format", "plot"),
    "convergence_p2nn": ("convergence", "p2nn", "--alpha", "0.25",
                         "--sizes", "10,20,40,80"),
    "convergence_p2nn_to_1602": ("convergence", "p2nn", "--alpha", "0.25",
                                 "--sizes", "100,200,400,800"),
    "convergence_p2mn": ("convergence", "p2mn", "--alpha", "0",
                         "--sizes", "50,100,200", "--n-fixed", "2"),
    "convergence_k13": ("convergence", "k13", "--alpha", "0.5",
                        "--sizes", "200,400,800"),
    "convergence_p5u": ("convergence", "p5u", "--alpha", "0.25",
                        "--sizes", "200,400,800"),
    "verify_all": ("verify", "all", "--seed", "7", "--trials", "200"),
    "verify_lemmas_seed3": ("verify", "lemmas", "--seed", "3", "--trials", "20"),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_output_is_unchanged(name, capsys):
    assert main(list(EXAMPLES[name])) == 0
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / f"{name}.out").read_bytes()


def test_examples_twice_in_one_process_match_their_goldens(capsys):
    """Forward then reverse through every example: nothing leaks between
    calls through the shared parser or any other process-wide state."""
    names = sorted(EXAMPLES)
    for name in names + names[::-1]:
        assert main(list(EXAMPLES[name])) == 0, name
        out = capsys.readouterr().out.encode()
        assert out == (GOLDEN / f"{name}.out").read_bytes(), name


def test_readme_quick_start_prints_the_digits_in_its_comments(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = re.findall(r"^print\(.*#\s*([0-9.]+?)\.\.\.", code, re.M)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(expected) == len(printed) == 3
    for digits, line in zip(expected, printed):
        assert line.startswith(digits), (digits, line)
