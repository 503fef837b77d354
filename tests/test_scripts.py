"""Smoke tests for the scripts in scripts/: each is imported by path and its
main() run at a small lmax, so a library change that breaks a script fails
here."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["overlap_polynomials", "power_law_check"])
def test_script_main_runs(name, capsys):
    assert _load(name).main(["--lmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "(l=2, l'=2, j=4)" in out


def test_power_law_check_rejects_short_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        _load("power_law_check").main(["--R-count", "1"])
    assert exc.value.code == 2
    assert "--R-count must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv, message", [
    ("power_law_check", ["--lmax", "-1"], "--lmax must be non-negative"),
    ("overlap_polynomials", ["--lmax", "-1"], "--lmax must be non-negative"),
    *[(name, ["--radius", r], "--radius must be finite and positive")
      for name in ("power_law_check", "overlap_polynomials")
      for r in ("-1", "0", "nan", "inf")],
    *[("power_law_check", ["--tol", t], "--tol must be finite and positive")
      for t in ("-1", "0", "nan", "inf")],
    *[("power_law_check", [flag, R],
       f"{flag} must be finite and exceed 2*radius")
      for flag, R in (("--R-start", "nan"), ("--R-start", "inf"),
                      ("--R-start", "2"), ("--R-stop", "nan"),
                      ("--R-stop", "inf"), ("--R-stop", "2"),
                      ("--R-stop", "1"))],
])
def test_scripts_reject_input_that_checks_nothing(name, argv, message,
                                                  capsys):
    with pytest.raises(SystemExit) as exc:
        _load(name).main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
