"""Command-line interface: outputs, provenance headers and exit codes."""

import json

import pytest

from walklab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_series_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "series", "--family", "tree", "--b", "2",
                       "--nmax", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# ")
    head = json.loads(lines[0][2:])
    assert head["tool"] == "walklab" and "rho" in head
    assert lines[1] == "n,u_n,f_n,a_n,f_over_u"
    row2 = lines[4].split(",")  # the n=2 row
    assert abs(float(row2[1]) - 1 / 3) < 1e-15


def test_series_to_file(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, _, _ = run(capsys, "series", "--family", "fixed_end_tree",
                     "--b", "2", "--nmax", "4", "--output", str(path))
    assert code == 0
    assert path.read_text().count("\n") == 7


def test_fit_json(capsys):
    code, out, _ = run(capsys, "fit", "--family", "tree", "--b", "2",
                       "--window", "20:80", "--mode", "float")
    assert code == 0
    rep = json.loads(out)
    assert -2.0 < rep["slope"] < -1.0


def test_ballot_table(capsys):
    code, out, _ = run(capsys, "ballot", "--family", "fixed_end_tree",
                       "--b", "2", "--n-grid", "20,40", "--rmax", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("n,r,")
    assert len(lines) == 2 + 2 * 3


def test_levels(capsys):
    code, out, _ = run(capsys, "levels", "--family", "fixed_end_tree",
                       "--b", "2", "--n", "10", "--samples", "200",
                       "--seed", "1")
    assert code == 0
    assert "exact_visits" in out.splitlines()[1]


def test_excursions(capsys):
    code, out, _ = run(capsys, "excursions", "--family", "tree", "--b", "2",
                       "--n", "40")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["total_mass"] - 1) < 1e-12


def test_quasi(capsys, tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text("1 1 2 1 1\n1 1 1 2 2\n")
    code, out, _ = run(capsys, "quasi", "--schema", str(path))
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["rho"] - 0.9428090415820634) < 1e-12


def test_check_quick(capsys):
    code, out, _ = run(capsys, "check", "--quick")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_usage_error(capsys):
    assert run(capsys, "nosuchcommand")[0] == 1


def test_compute_error(capsys):
    # the regular tree carries no lattice level structure
    code, _, err = run(capsys, "ballot", "--family", "tree", "--b", "2",
                       "--n-grid", "10", "--rmax", "1")
    assert code == 2
    assert "error" in err


def test_model_error(capsys):
    code, _, err = run(capsys, "series", "--family", "tree", "--nmax", "4")
    assert code == 2


@pytest.mark.parametrize("argv,code,message", [
    (["ballot", "--family", "grandparent", "--b", "2", "--n-grid", "0,4"],
     2, "need n >= 1"),
    (["ballot", "--family", "grandparent", "--b", "2", "--rmax", "-1"],
     2, "nonempty"),
    (["ballot", "--family", "grandparent", "--b", "2", "--n-grid", "4,x"],
     1, "--n-grid"),
    (["excursions", "--family", "tree", "--b", "2", "--n", "0"],
     2, "need 1 <= n"),
    (["fit", "--family", "tree", "--b", "2", "--window", "5"],
     1, "--window"),
    (["fit", "--family", "tree", "--b", "2", "--window", "a:9"],
     1, "--window")],
    ids=["ballot-n0", "ballot-rmax", "ballot-grid", "excursions-n0",
         "fit-window", "fit-window-text"])
def test_bad_arguments_exit_with_one_line(capsys, argv, code, message):
    """Out-of-range values are computation errors (2) and unparsable ones
    usage errors (1), each reported on stderr without a traceback."""
    got, _, err = run(capsys, *argv)
    assert got == code
    assert message in err and "Traceback" not in err
