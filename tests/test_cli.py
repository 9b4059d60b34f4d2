"""End-to-end exercises of the command-line surface, run in process."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from alphalimits.cli import main
from alphalimits.limits import DEFAULT_CONFIG, psi


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def parse_csv(text):
    meta, data_lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = val
        else:
            data_lines.append(line)
    parsed = list(csv.reader(data_lines))
    return meta, parsed[0], parsed[1:]


def test_radius_wheel_matches_surd(capsys):
    code, out = run_cli(capsys, "radius", "wheel5",
                        "--alpha", str(1.0 / 3.0))
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["graph", "alpha", "rho", "lower_bound", "upper_bound"]
    assert len(rows) == 1
    rho = float(rows[0][2])
    assert abs(rho - (11.0 + math.sqrt(73.0)) / 6.0) < 1e-12
    assert float(rows[0][3]) <= rho <= float(rows[0][4])
    assert meta["command"] == "radius"


def test_radius_accepts_edge_list_literal(capsys):
    code, out = run_cli(capsys, "radius", "4; 0-1,1-2,2-3,3-0")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert abs(float(rows[0][2]) - 2.0) < 1e-12


def test_table_classic_small(capsys):
    code, out = run_cli(capsys, "table", "classic", "--n-max", "2")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["label", "n", "alpha", "root", "value"]
    terms = [r for r in rows if r[0] == "term"]
    limit_rows = [r for r in rows if r[0] == "limit"]
    assert [r[1] for r in terms] == ["1", "2"]
    # first value is the golden-ratio surd, the limit is sqrt(2 + sqrt 5)
    assert abs(float(terms[0][4]) - math.sqrt(2.0 + math.sqrt(5.0))) < 0.2
    assert len(limit_rows) == 1
    assert abs(float(limit_rows[0][4]) - math.sqrt(2.0 + math.sqrt(5.0))) < 1e-12
    assert limit_rows[0][1] == "" and limit_rows[0][3] == ""


def test_table_first_version_at_zero_matches_new(capsys):
    code_a, out_a = run_cli(capsys, "table", "versionI", "--n-max", "10",
                            "--alpha", "0")
    code_b, out_b = run_cli(capsys, "table", "new", "--n-max", "10")
    assert code_a == code_b == 0
    _, _, rows_a = parse_csv(out_a)
    _, _, rows_b = parse_csv(out_b)
    vals_a = [r[4] for r in rows_a if r[0] == "term" and r[1] != "0"]
    vals_b = [r[4] for r in rows_b if r[0] == "term"]
    assert vals_a == vals_b


def test_table_laplacian_zero_terms(capsys):
    code, out = run_cli(capsys, "table", "laplacian", "--n-max", "0")
    assert code == 0
    _, _, rows = parse_csv(out)
    terms = [r for r in rows if r[0] == "term"]
    assert len(terms) == 1
    assert float(terms[0][4]) == 4.0


@pytest.mark.parametrize("argv, alphas", [
    (("laplacian",), "0.5"),
    (("classic",), "0"),
    (("versionI", "--alpha", "0.1", "--alpha", "0.2"), "0.1,0.2"),
    (("versionII",), "0"),
])
def test_table_alphas_metadata_names_the_alphas_of_the_rows(argv, alphas, capsys):
    code, out = run_cli(capsys, "table", *argv, "--n-max", "2")
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["alphas"] == alphas
    assert {r[2] for r in rows} == set(alphas.split(","))


@pytest.mark.parametrize("kind, alpha", [("classic", "0"), ("new", "0"),
                                         ("laplacian", "0.5")])
def test_table_refuses_alpha_for_a_fixed_alpha_kind(kind, alpha, capsys):
    for given in ("0.5", alpha):
        with pytest.raises(SystemExit) as exc:
            main(["table", kind, "--n-max", "2", "--alpha", given])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"alphalimits: error: {kind} table runs at alpha {alpha} only\n")


def test_psi_row_at_zero(capsys):
    code, out = run_cli(capsys, "psi", "--alpha", "0")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["alpha", "psi_root", "psi_closed", "abs_difference",
                      "omega1", "omega2", "note"]
    assert len(rows) == 1
    root = float(rows[0][1])
    assert abs(root - math.sqrt(2.0 + math.sqrt(5.0))) < 1e-10
    assert float(rows[0][3]) < 1e-8
    assert abs(float(rows[0][4]) - 1.5 * math.sqrt(2.0)) < 1e-12
    assert abs(float(rows[0][5]) - math.sqrt(2.0 + math.sqrt(5.0))) < 1e-9


def test_psi_default_grid_has_twenty_rows(capsys):
    code, out = run_cli(capsys, "psi")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 20
    assert [r[0] for r in rows][:3] == ["0", "0.05", "0.1"]
    assert all(float(r[3]) < 1e-8 for r in rows)


def test_convergence_gaps_positive_and_decreasing(capsys):
    code, out = run_cli(capsys, "convergence", "p2nn", "--alpha", "0",
                        "--sizes", "10,20,40")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["size", "rho", "target", "gap", "note"]
    gaps = [float(r[3]) for r in rows]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(r[4] == "" for r in rows)


def test_convergence_tolerates_eigensolver_noise_after_saturation(capsys):
    # by size 80 at alpha=0.25 the true gap sits far below double noise;
    # a tiny negative reading is reported but not flagged as a failure
    code, out = run_cli(capsys, "convergence", "p2nn", "--alpha", "0.25",
                        "--sizes", "10,20,40,80")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert abs(float(rows[-1][3])) < 1e-10
    assert all(r[4] == "" for r in rows)


def test_convergence_p2mn_needs_fixed_side(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "p2mn", "--sizes", "5,10"])
    assert exc.value.code == 2


def test_convergence_p2mn_runs_with_fixed_side(capsys):
    code, out = run_cli(capsys, "convergence", "p2mn", "--alpha", "0.5",
                        "--sizes", "25,50,100", "--n-fixed", "3")
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["n_fixed"] == "3"
    assert all(float(r[3]) > 0 for r in rows)


@pytest.mark.parametrize("family", ("p2nn", "k13", "p5u"))
def test_convergence_refuses_n_fixed_outside_p2mn(family, monkeypatch, capsys):
    from alphalimits import cli, limits

    def fail(*args):
        raise AssertionError("target solved or graph built before the usage check")
    for owner, name in ((cli, "p2_two_paths"), (cli, "attach_pendant_path"),
                        (limits, "psi"), (limits, "omega1"), (limits, "omega2")):
        monkeypatch.setattr(owner, name, fail)
    with pytest.raises(SystemExit) as exc:
        main(["convergence", family, "--sizes", "10", "--n-fixed", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"alphalimits: error: --n-fixed applies to p2mn only, not {family}\n")


def test_convergence_rejects_unsorted_sizes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "p2nn", "--sizes", "20,10"])
    assert exc.value.code == 2


def test_convergence_rejects_orders_over_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "p2nn", "--sizes", "1500"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", (
    ("p2nn", "--sizes", "10,3000000"),
    ("p2mn", "--sizes", "10", "--n-fixed", "2001"),
))
def test_convergence_refuses_caps_before_target_and_graphs(argv, monkeypatch, capsys):
    from alphalimits import cli, limits

    def fail(*args):
        raise AssertionError("target solved or graph built before the cap check")
    for owner, name in ((cli, "p2_two_paths"), (cli, "attach_pendant_path"),
                        (limits, "eta_n"), (limits, "psi")):
        monkeypatch.setattr(owner, name, fail)
    with pytest.raises(SystemExit) as exc:
        main(["convergence", *argv])
    assert exc.value.code == 2
    assert "> cap 2000" in capsys.readouterr().err


def test_table_version_ii_near_alpha_one_writes_nothing_to_stderr():
    # At n = 500 the bracket search of gamma_tilde_n evaluates phi_version2
    # where t^1002 is past the double range: inf, but no warning.
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "alphalimits.cli",
         "table", "versionII", "--n-max", "500", "--alpha", "0.9"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.count("\nterm,") == 501


def window_equation_sign(lam, alpha):
    """The sign of W(lam) = delta(lam) - alpha - (1-alpha)^2 / (lam - alpha),
    whose one root on (2, 3.2] is psi, in exact arithmetic at lam > 2 > alpha:
    both delta and alpha + (1-alpha)^2 / (lam - alpha) are positive, so W has
    the sign of their squares' difference."""
    lam, alpha = Fraction(lam), Fraction(alpha)
    delta_sq = (lam - 4 * alpha + 2) * (lam - 2)
    cost = alpha + (1 - alpha) ** 2 / (lam - alpha)
    return (delta_sq > cost * cost) - (delta_sq < cost * cost)


def test_psi_one_ulp_below_alpha_one_is_an_error_not_a_traceback():
    # at alpha = 1 - 2^-53 the lambda form of the psi equation rounds to
    # +2.2e-16 at lambda = 2, where it is exactly alpha - 1 < 0; the
    # bisection takes that proved sign, and the root it returns is within
    # tol of the root of the window equation, an independent route
    alpha = 1.0 - 2.0**-53
    assert str(alpha) == "0.9999999999999999"
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "alphalimits.cli", "psi", "--alpha", str(alpha)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    _, header, rows = parse_csv(proc.stdout)
    assert header[:2] == ["alpha", "psi_root"] and len(rows) == 1
    r = psi(alpha)
    assert rows[0][1] == f"{r:.15g}"
    tol = Fraction(DEFAULT_CONFIG.tol)
    assert window_equation_sign(Fraction(r) - tol, alpha) < 0
    assert window_equation_sign(Fraction(r) + tol, alpha) > 0


def test_table_version_ii_within_1e_8_of_alpha_one(capsys):
    # the root of phi_version2 in t is about 1/(1 - alpha) = 1e8, past the
    # 2^24 at which a fixed bracket cap raised BracketError
    code, out = run_cli(capsys, "table", "versionII", "--n-max", "30",
                        "--alpha", "0.99999999")
    assert code == 0
    _, _, rows = parse_csv(out)
    terms = [float(r[4]) for r in rows if r[0] == "term"]
    (limit,) = [float(r[4]) for r in rows if r[0] == "limit"]
    assert len(terms) == 31
    assert all(v <= limit + 1e-12 for v in terms)


def test_table_rejects_n_max_over_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "versionI", "--n-max", "501"])
    assert exc.value.code == 2
    assert "n-max 501 > cap 500" in capsys.readouterr().err


def test_verify_rejects_trials_over_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemmas", "--trials", "10001"])
    assert exc.value.code == 2
    assert "trials 10001 > cap 10000" in capsys.readouterr().err


def test_table_rejects_zero_terms_for_classic(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "classic", "--n-max", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("kind", ["classic", "versionI", "versionII", "new", "laplacian"])
def test_table_rejects_negative_n_max(kind, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", kind, "--n-max", "-3"])
    assert exc.value.code == 2
    assert "table needs n_max >=" in capsys.readouterr().err


def test_convergence_honours_a_coarse_tol(capsys):
    code, out = run_cli(capsys, "convergence", "p2mn", "--n-fixed", "2",
                        "--sizes", "10,20", "--tol", "1e-9")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 2


def test_unknown_family_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["radius", "hypercube:4"])
    assert exc.value.code == 2


def test_non_finite_tol_is_a_usage_error(capsys):
    for tol in ("nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            main(["psi", "--alpha", "0.3", "--tol", tol])
        assert exc.value.code == 2
        assert "tol must be positive and finite" in capsys.readouterr().err


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    dest = tmp_path / "missing" / "report.csv"
    with pytest.raises(SystemExit) as exc:
        main(["radius", "path:5", "--out", str(dest)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("alphalimits: error: ")
    assert "Traceback" not in err


def test_verify_identities_pass(capsys):
    code, out = run_cli(capsys, "verify", "identities", "--seed", "1")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows
    assert all(r[2] == "pass" for r in rows)


def test_verify_lemmas_small_run(capsys):
    code, out = run_cli(capsys, "verify", "lemmas", "--seed", "3",
                        "--trials", "25")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert all(r[2] == "pass" for r in rows)
    assert sum(int(r[3]) for r in rows) > 0


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "psi", "--alpha", "0.3", "--alpha", "0.6")
    _, second = run_cli(capsys, "psi", "--alpha", "0.3", "--alpha", "0.6")
    assert first == second


def test_json_format_round_trips(capsys):
    code, out = run_cli(capsys, "table", "classic", "--n-max", "3",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["label", "n", "alpha", "root", "value"]
    assert doc["metadata"]["command"] == "table"
    values = [r[4] for r in doc["rows"] if r[0] == "term"]
    assert len(values) == 3
    assert all(isinstance(v, float) for v in values)


def test_plot_format_emits_series_blocks(capsys):
    code, out = run_cli(capsys, "convergence", "k13", "--alpha", "0.5",
                        "--sizes", "10,20", "--format", "plot")
    assert code == 0
    lines = out.splitlines()
    series = [ln for ln in lines if ln.startswith("# series: ")]
    assert series == ["# series: rho", "# series: target"]
    data = [ln for ln in lines if "\t" in ln]
    assert len(data) == 4
    for ln in data:
        x, y = ln.split("\t")
        float(x), float(y)


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "report.csv"
    code = main(["radius", "path:6", "--out", str(dest)])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = dest.read_text()
    _, header, rows = parse_csv(text)
    assert header[0] == "graph"
    assert len(rows) == 1


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    import argparse

    from alphalimits import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for _ in range(20):
        assert main(["radius", "path:4"]) == 0
    capsys.readouterr()
    # one top-level parser and its five subcommand parsers, built once
    assert len(built) <= 1 + len(cli.HANDLERS)
    assert cli.build_parser() is cli.build_parser()


def test_errors_and_version_leave_the_shared_parser_clean(capsys):
    _, alone = run_cli(capsys, "table", "classic", "--n-max", "3")
    with pytest.raises(SystemExit) as exc:
        main(["table", "classic", "--n-max", "3", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("alphalimits ")
    code, after = run_cli(capsys, "table", "classic", "--n-max", "3")
    assert code == 0
    assert after == alone


def test_appended_alphas_do_not_leak_between_calls(capsys):
    _, first = run_cli(capsys, "psi", "--alpha", "0.3", "--alpha", "0.4")
    assert len(parse_csv(first)[2]) == 2
    code, out = run_cli(capsys, "psi", "--alpha", "0.5")
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["alphas"] == "0.5"
    assert len(rows) == 1 and float(rows[0][0]) == 0.5


@pytest.mark.parametrize("spec, message", [
    ("2001;", "order 2001 > cap 2000 in '2001;'"),
    ("cycle:2001", "parameter 2001 > cap 2000 in 'cycle:2001'"),
    ("p2:1000,1000", "order 2002 > cap 2000 in 'p2:1000,1000'"),
])
def test_radius_caps_the_order(spec, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["radius", spec])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"alphalimits: error: {message}\n"


def test_radius_refuses_a_family_parameter_before_building(monkeypatch, capsys):
    from alphalimits import cli

    def fail(*args):
        raise AssertionError("graph built before the cap check")
    monkeypatch.setattr(cli, "path", fail)
    with pytest.raises(SystemExit) as exc:
        main(["radius", "path:1000000000"])
    assert exc.value.code == 2


def test_radius_refuses_an_edge_list_order_before_building_adjacency(monkeypatch, capsys):
    from alphalimits.graphs import Graph

    def fail(self):
        raise AssertionError("adjacency built before the cap check")
    monkeypatch.setattr(Graph, "adj", property(fail))
    with pytest.raises(SystemExit) as exc:
        main(["radius", "1000000000;"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "alphalimits: error: order 1000000000 > cap 2000 in '1000000000;'\n")


def test_radius_of_edgeless_graph_has_zero_bounds(capsys):
    code, out = run_cli(capsys, "radius", "3;", "--alpha", "0.5")
    assert code == 0
    assert out.splitlines()[-1] == "3;,0.5,0,0,0"


def no_dense(monkeypatch):
    from alphalimits import spectral

    def fail(*args):
        raise AssertionError("dense eigensolve on a tree")
    monkeypatch.setattr(spectral, "stack_radii", fail)


def test_radius_at_the_order_cap_runs_on_the_elimination_route(monkeypatch, capsys):
    no_dense(monkeypatch)
    code, out = run_cli(capsys, "radius", "path:2000")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert abs(float(rows[0][2]) - 2 * math.cos(math.pi / 2001)) < 1e-12


@pytest.mark.parametrize("family", ["k13", "p2mn", "p2nn", "p5u"])
def test_convergence_families_at_every_size_skip_the_dense_solve(family, monkeypatch, capsys):
    # every convergence graph is a tree, down to order 4 at size 1
    no_dense(monkeypatch)
    extra = ("--n-fixed", "2") if family == "p2mn" else ()
    code, out = run_cli(capsys, "convergence", family, "--alpha", "0.25",
                        "--sizes", "1,2,5,20,60", *extra)
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["1", "2", "5", "20", "60"]


@pytest.mark.parametrize("spec, alpha", [("path:3", "1.5"), ("path:200", "nan")])
def test_radius_rejects_alpha_outside_the_unit_interval(spec, alpha, capsys):
    # both are trees, so the check is the tree route's
    with pytest.raises(SystemExit) as exc:
        main(["radius", spec, "--alpha", alpha])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"alphalimits: error: alpha must lie in [0,1], got {alpha}\n"
