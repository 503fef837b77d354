"""The production import path is standard library only: numpy, scipy and
mpmath load with the quadrature oracles, which the package resolves lazily
(PEP 562) and which only `verify` uses among the CLI commands."""
import json
import os
import subprocess
import sys

import pytest

import laplace_multipole

HEAVY = ("numpy", "scipy", "mpmath")

_PROBE = """
import json, sys
heavy = {heavy!r}
import laplace_multipole
import laplace_multipole.cli as cli
for argv in (
        ["table", "--lmax", "2", "--R-start", "0.1", "--R-stop", "2.5",
         "--R-count", "4", "--radius", "1", "--out", {out!r}],
        ["reduced", "--l", "1", "--lp", "1", "--j", "0", "--R", "0.5",
         "--radius", "1"],
        ["element", "--l", "1", "--m", "0", "--lp", "1", "--mp", "0",
         "--R", "0,0,3", "--radius", "1"],
        ["fourier", "--l", "1", "--m", "0", "--lp", "1", "--mp", "0",
         "--k", "0.3,0,0.4", "--radius", "1"]):
    assert cli.main(argv) == 0, argv
before = sorted(m for m in heavy if m in sys.modules)
# lmax 1 reaches a slowly oscillating Hankel tail term, the one use of mpmath
assert cli.main(["verify", "--lmax", "1", "--seed", "0"]) == 0
print(json.dumps([before, sorted(m for m in heavy if m in sys.modules)]))
"""


def _run_child(probe):
    # the child imports the same package as this test run
    src = os.path.dirname(os.path.dirname(laplace_multipole.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300)


def test_production_commands_load_no_oracle_dependencies(tmp_path):
    proc = _run_child(_PROBE.format(heavy=HEAVY, out=str(tmp_path / "t.csv")))
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout.strip().splitlines()[-1])
    assert before == []
    assert after == sorted(HEAVY)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from laplace_multipole import *", namespace)
    assert len(laplace_multipole.__all__) == 36
    assert set(laplace_multipole.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    # in a fresh process, before any lazy oracle name has been resolved
    proc = _run_child(
        "import sys, laplace_multipole as p\n"
        "assert 'laplace_multipole.oracles' not in sys.modules\n"
        "missing = set(p.__all__) - set(dir(p))\n"
        "assert not missing, sorted(missing)\n")
    assert proc.returncode == 0, proc.stderr


def test_oracle_names_resolve_to_the_oracles_module():
    from laplace_multipole import hankel_triple_bessel, oracles
    assert hankel_triple_bessel is oracles.hankel_triple_bessel
    assert laplace_multipole.hankel_triple_bessel is oracles.hankel_triple_bessel
    assert laplace_multipole.QuadratureSpec is oracles.QuadratureSpec


def test_dir_lists_the_oracle_names():
    # dir() lists the oracle names, which the module resolves lazily
    assert {"QuadratureSpec", "defining_integral_quadrature",
            "hankel_triple_bessel", "hankel_forward",
            "hankel_inverse"} <= set(dir(laplace_multipole))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        laplace_multipole.no_such_name
