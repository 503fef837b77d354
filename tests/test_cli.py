"""Tests for the command-line interface (run in-process via main())."""
import json
import math

import pytest

from laplace_multipole.cli import main

HEADER = "l,m,lp,mp,j,R,a,regime,value_re,value_im"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# reduced / element / fourier
# ---------------------------------------------------------------------------

def test_reduced_csv_output(capsys):
    code, out, _ = run(capsys, "reduced", "--l", "0", "--lp", "0", "--j", "0",
                       "--R", "3", "--radius", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == HEADER
    row = lines[1].split(",")
    assert row[7] == "nonoverlap"
    assert float(row[8]) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert float(row[9]) == 0.0


def test_reduced_json_schema(capsys):
    code, out, _ = run(capsys, "reduced", "--l", "1", "--lp", "1", "--j", "0",
                       "--R", "0.5", "--radius", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"records", "meta"}
    assert doc["meta"]["command"] == "reduced"
    assert "version" in doc["meta"]
    assert isinstance(doc["meta"]["flags"], dict)
    (rec,) = doc["records"]
    assert rec["regime"] == "overlap"
    assert isinstance(rec["value_re"], float)


def test_element_inverse_separation(capsys):
    code, out, _ = run(capsys, "element", "--l", "0", "--m", "0",
                       "--lp", "0", "--mp", "0", "--R", "0,0,4",
                       "--radius", "1")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[8]) == pytest.approx(0.25, rel=1e-14)
    assert float(row[9]) == pytest.approx(0.0, abs=1e-16)


def test_element_zaxis_offdiagonal_is_zero(capsys):
    code, out, _ = run(capsys, "element", "--l", "1", "--m", "1",
                       "--lp", "1", "--mp", "0", "--R", "0,0,3",
                       "--radius", "1")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[8]) == 0.0
    assert float(row[9]) == 0.0


def test_fourier_output_and_debug(capsys):
    code, out, err = run(capsys, "fourier", "--l", "1", "--m", "1",
                         "--lp", "2", "--mp", "0", "--k", "0.3,0.1,0.5",
                         "--radius", "1", "--debug-omega")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[7] == "fourier"
    assert float(row[5]) == pytest.approx(math.sqrt(0.09 + 0.01 + 0.25))
    assert err.count("omega_hat") == 2


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "reduced", "--l", "1", "--lp", "1", "--j", "3",
                       "--R", "1", "--radius", "1")
    assert code == 2
    assert "error" in err


def test_exit_code_nonfinite_input(capsys):
    code, out, err = run(capsys, "reduced", "--l", "0", "--lp", "0", "--j", "0",
                         "--R", "nan", "--radius", "1")
    assert code == 2
    assert out == ""
    assert "finite" in err
    code, out, err = run(capsys, "element", "--l", "0", "--m", "0",
                         "--lp", "0", "--mp", "0", "--R", "nan,0,1",
                         "--radius", "1")
    assert code == 2
    assert out == ""
    assert "finite" in err
    for k, radius in (("nan,0,1", "1"), ("0,0,inf", "1"), ("0,0,1", "nan"),
                      ("0,0,1", "inf")):
        code, out, err = run(capsys, "fourier", "--l", "0", "--m", "0",
                             "--lp", "0", "--mp", "0", "--k", k,
                             "--radius", radius)
        assert code == 2
        assert out == ""
        assert "finite" in err


def test_exit_code_zero_wavevector(capsys):
    code, _, err = run(capsys, "fourier", "--l", "0", "--m", "0",
                       "--lp", "0", "--mp", "0", "--k", "0,0,0",
                       "--radius", "1")
    assert code == 2
    assert "error" in err


def test_exit_code_extreme_inputs(tmp_path, capsys):
    # overflow or underflow in the arithmetic is a computation error
    for argv in (["reduced", "--l", "4", "--lp", "4", "--j", "8",
                  "--R", "1e300", "--radius", "1e299"],
                 ["table", "--lmax", "1", "--R-start", "0", "--R-stop", "1",
                  "--R-count", "2", "--radius", "1e300",
                  "--out", str(tmp_path / "t.csv")],
                 ["fourier", "--l", "0", "--m", "0", "--lp", "0", "--mp", "0",
                  "--k", "1e-200,0,0", "--radius", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("computation error:")
        assert err.count("\n") == 1
    # vector norms neither underflow nor overflow
    for cmd, flag, vec, norm in (("element", "--R", "1e-200,0,1e-200",
                                  math.sqrt(2) * 1e-200),
                                 ("fourier", "--k", "1e200,0,0", 1e200)):
        code, out, _ = run(capsys, cmd, "--l", "1", "--m", "0", "--lp", "1",
                           "--mp", "0", flag, vec, "--radius", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[5]) == pytest.approx(norm, rel=1e-15)


def test_exit_code_unwritable_output(capsys):
    code, _, err = run(capsys, "table", "--lmax", "0", "--R-start", "1",
                       "--R-stop", "2", "--R-count", "2", "--radius", "1",
                       "--out", "/nonexistent-dir/table.csv")
    assert code == 1
    assert "cannot write" in err


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def table_args(out_path):
    return ["table", "--lmax", "1", "--R-start", "0.5", "--R-stop", "4.0",
            "--R-count", "3", "--radius", "1", "--out", str(out_path)]


def test_table_shape_and_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(table_args(p1)) == 0
    assert main(table_args(p2)) == 0
    capsys.readouterr()
    text = p1.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == HEADER
    # even-parity triples for lmax=1: (0,0,0) (0,1,1) (1,0,1) (1,1,0) (1,1,2),
    # each on a 3-point grid
    assert len(lines) == 1 + 5 * 3
    assert text == p2.read_text()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_reports_and_repeats(capsys):
    code1, out1, _ = run(capsys, "verify", "--lmax", "0", "--seed", "7")
    assert code1 == 0
    for name in ("golden-polynomial", "hankel-oracle", "surface-oracle",
                 "rotation-covariance", "fourier-forward"):
        assert any(line.startswith(name + ":") and line.endswith("PASS")
                   for line in out1.splitlines())
    assert "all checks passed" in out1
    code2, out2, _ = run(capsys, "verify", "--lmax", "0", "--seed", "7")
    assert code2 == 0
    assert out1 == out2


def test_verify_fails_at_impossible_tolerance(capsys):
    code, out, _ = run(capsys, "verify", "--lmax", "0", "--tol", "1e-30")
    assert code == 1
    assert "verification failed" in out


def test_verify_rejects_large_lmax(capsys):
    code, _, err = run(capsys, "verify", "--lmax", "9")
    assert code == 2
    assert "lmax" in err
