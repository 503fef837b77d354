"""Tests for the command-line interface (run in-process via main())."""
import json
import math
import re

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


def test_json_meta_flags(tmp_path, capsys):
    # tuple flags are written as "x,y,z"; func and command are not flags
    out_path = tmp_path / "t.json"
    cases = [
        (["element", "--l", "2", "--m", "-1", "--lp", "1", "--mp", "1",
          "--R", "0.3,-0.4,1.1", "--radius", "1.2"],
         {"R": "0.3,-0.4,1.1", "format": "json", "l": 2, "lp": 1, "m": -1,
          "mp": 1, "radius": 1.2}),
        (["fourier", "--l", "1", "--m", "1", "--lp", "2", "--mp", "0",
          "--k", "0.3,0.1,0.5", "--radius", "1", "--debug-omega"],
         {"debug_omega": True, "format": "json", "k": "0.3,0.1,0.5", "l": 1,
          "lp": 2, "m": 1, "mp": 0, "radius": 1.0}),
        (["table", "--lmax", "1", "--R-start", "0.5", "--R-stop", "4",
          "--R-count", "3", "--radius", "1", "--out", str(out_path)],
         {"R_count": 3, "R_start": 0.5, "R_stop": 4.0, "format": "json",
          "lmax": 1, "out": str(out_path), "radius": 1.0}),
    ]
    for argv, flags in cases:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        meta = json.loads(out_path.read_text() if argv[0] == "table"
                          else out)["meta"]
        assert meta["command"] == argv[0]
        assert meta["flags"] == flags
        assert list(meta["flags"]) == sorted(flags)


@pytest.mark.parametrize("command, options", [
    ("reduced", "--l --lp --j --R --radius --format"),
    ("element", "--l --m --lp --mp --R --radius --format"),
    ("table", "--lmax --R-start --R-stop --R-count --radius --out --format"),
    ("fourier", "--l --m --lp --mp --k --radius --debug-omega --format"),
    ("verify", "--lmax --tol --seed"),
])
def test_subcommand_help_lists_its_options(command, options, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*",
                            capsys.readouterr().out))
    assert listed == {"-h", "--help", *options.split()}


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
                  "--k", "1e-200,0,0", "--radius", "1"],
                 ["fourier", "--l", "3", "--m", "0", "--lp", "3", "--mp", "0",
                  "--k", "1e-200,0,0", "--radius", "1e200"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("computation error:")
        assert "exceeds the float range" in err
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


def test_exit_code_malformed_vector_or_grid(tmp_path, capsys):
    # argparse rejects a vector of two reals; the table a one-point grid
    with pytest.raises(SystemExit) as exc:
        main(["element", "--l", "0", "--m", "0", "--lp", "0", "--mp", "0",
              "--R", "1,2", "--radius", "1"])
    assert exc.value.code == 2
    assert "expected three comma-separated reals" in capsys.readouterr().err
    out = tmp_path / "table.csv"
    code, _, err = run(capsys, "table", "--lmax", "0", "--R-start", "1",
                       "--R-stop", "2", "--R-count", "1", "--radius", "1",
                       "--out", str(out))
    assert code == 2
    assert "R-count must be at least 2" in err
    assert not out.exists()


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


def test_verify_rejects_bad_tolerance(capsys):
    # before any check runs: nothing on stdout
    for tol in ("nan", "inf", "0", "-1"):
        code, out, err = run(capsys, "verify", "--lmax", "0", "--tol", tol)
        assert code == 2, tol
        assert out == ""
        assert "tol must be positive and finite" in err


def test_verify_rejects_large_lmax(capsys):
    code, _, err = run(capsys, "verify", "--lmax", "9")
    assert code == 2
    assert "lmax" in err


def test_negative_lmax_is_a_domain_error(tmp_path, capsys):
    # an empty index range would write a header-only table and pass verify
    # having checked nothing
    out_path = tmp_path / "t.csv"
    for argv in (["table", "--lmax", "-1", "--R-start", "0.5", "--R-stop", "1",
                  "--R-count", "2", "--radius", "1", "--out", str(out_path)],
                 ["verify", "--lmax", "-1", "--seed", "0"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "lmax must be non-negative" in err
    assert not out_path.exists()
