"""Command-line interface: single reduced elements, canonical elements,
R-grid tables, Fourier-space values, and the oracle verification suite.

Output is deterministic: floats are printed with 17 significant digits,
row order is fixed, and `verify --seed` draws its random rotations from
a seeded generator so repeated runs are byte-identical.

Exit codes: 0 success, 1 computation/I-O failure, 2 usage or domain error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys

from . import __version__
from .core import (ReducedIndex, SphereGeometry, g_reduced, g_tilde,
                   matrix_element, matrix_element_zaxis, mu_coefficient,
                   fourier_matrix_element, omega_hat, regime_of)
from .errors import LaplaceMultipoleError, ZeroWaveVector
from .oracles import (QuadratureSpec, defining_integral_quadrature,
                      hankel_forward, hankel_triple_bessel)
from .specfun import EulerAngles, MultipoleIndex, wigner_D

_CSV_FIELDS = ["l", "m", "lp", "mp", "j", "R", "a", "regime",
               "value_re", "value_im"]


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _emit(records: list, command: str, flags: dict, fmt: str, stream) -> None:
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        for rec in records:
            writer.writerow([_fmt(rec.get(f, "")) for f in _CSV_FIELDS])
    else:
        out = {
            "records": [
                {k: v for k, v in rec.items() if v is not None}
                for rec in records
            ],
            "meta": {
                "version": __version__,
                "command": command,
                "flags": {k: flags[k] for k in sorted(flags)
                          if k not in ("func", "command")
                          and isinstance(flags[k], (int, float, str, bool,
                                                    type(None)))},
            },
        }
        json.dump(out, stream, indent=2, sort_keys=False)
        stream.write("\n")


def _vec3(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated reals")
    return tuple(float(p) for p in parts)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_reduced(args) -> int:
    idx = ReducedIndex(args.l, args.lp, args.j)
    elem = g_reduced(idx, args.R, args.radius)
    rec = {"l": args.l, "m": None, "lp": args.lp, "mp": None, "j": args.j,
           "R": args.R, "a": args.radius, "regime": elem.regime,
           "value_re": elem.value, "value_im": 0.0}
    _emit([rec], "reduced", vars(args), args.format, sys.stdout)
    return 0


def _cmd_element(args) -> int:
    lm = MultipoleIndex(args.l, args.m)
    lpmp = MultipoleIndex(args.lp, args.mp)
    geom = SphereGeometry.from_vector(args.R, args.radius)
    val = matrix_element(lm, lpmp, geom)
    rec = {"l": args.l, "m": args.m, "lp": args.lp, "mp": args.mp, "j": None,
           "R": geom.R, "a": args.radius, "regime": regime_of(geom.R, geom.a),
           "value_re": val.real, "value_im": val.imag}
    _emit([rec], "element", {**vars(args), "R": ",".join(map(str, args.R))},
          args.format, sys.stdout)
    return 0


def _admissible_triples(lmax: int):
    for l in range(lmax + 1):
        for lp in range(lmax + 1):
            for j in range(abs(l - lp), l + lp + 1):
                if (l + lp + j) % 2 == 0:
                    yield (l, lp, j)


def _cmd_table(args) -> int:
    if args.R_count < 2:
        raise ValueError("R-count must be at least 2")
    grid = [args.R_start + i * (args.R_stop - args.R_start) / (args.R_count - 1)
            for i in range(args.R_count)]
    records = []
    for (l, lp, j) in _admissible_triples(args.lmax):
        idx = ReducedIndex(l, lp, j)
        for R in grid:
            elem = g_reduced(idx, R, args.radius)
            records.append({"l": l, "m": None, "lp": lp, "mp": None, "j": j,
                            "R": R, "a": args.radius, "regime": elem.regime,
                            "value_re": elem.value, "value_im": 0.0})
    buf = io.StringIO()
    _emit(records, "table", {**vars(args), "out": str(args.out)},
          args.format, buf)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_fourier(args) -> int:
    lm = MultipoleIndex(args.l, args.m)
    lpmp = MultipoleIndex(args.lp, args.mp)
    k = math.hypot(*args.k)
    val = fourier_matrix_element(lm, lpmp, args.k, args.radius)
    if args.debug_omega:
        w1 = omega_hat(lm, args.k, args.radius)
        w2 = omega_hat(lpmp, args.k, args.radius)
        print(f"# omega_hat  lm: {_fmt(w1.real)} {_fmt(w1.imag)}",
              file=sys.stderr)
        print(f"# omega_hat lpmp: {_fmt(w2.real)} {_fmt(w2.imag)}",
              file=sys.stderr)
    rec = {"l": args.l, "m": args.m, "lp": args.lp, "mp": args.mp, "j": None,
           "R": k, "a": args.radius, "regime": "fourier",
           "value_re": val.real, "value_im": val.imag}
    _emit([rec], "fourier", {**vars(args), "k": ",".join(map(str, args.k))},
          args.format, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_golden():
    worst = 0.0
    s3 = 16 * math.sqrt(3)
    for a in (1.0, 2.5):
        for i in range(10):
            R = 2 * a * i / 9.0
            got = g_reduced(ReducedIndex(1, 1, 0), R, a).value
            want = -(R - 2 * a) ** 2 * (4 * a + R) / s3
            worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    return worst


def _check_hankel(lmax: int):
    spec = QuadratureSpec()
    worst = 0.0
    for (l, lp, j) in _admissible_triples(lmax):
        idx = ReducedIndex(l, lp, j)
        for R in (0.5, 1.0, 2.5):
            closed = g_reduced(idx, R, 1.0).value
            oracle = mu_coefficient(idx) * hankel_triple_bessel(idx, R, 1.0,
                                                                spec)
            worst = max(worst, abs(closed - oracle) / max(abs(closed), 1e-8))
    return worst


def _check_surface(lmax: int):
    spec = QuadratureSpec(node_count=10)
    worst = 0.0
    lcap = min(lmax, 2)
    for l in range(lcap + 1):
        for lp in range(lcap + 1):
            for m in range(-min(l, lp), min(l, lp) + 1):
                for R in (1.0, 3.0):
                    closed = matrix_element_zaxis(MultipoleIndex(l, m),
                                                  MultipoleIndex(lp, m),
                                                  R, 1.0)
                    oracle = defining_integral_quadrature(
                        MultipoleIndex(l, m), MultipoleIndex(lp, m),
                        SphereGeometry(R, 0.0, 0.0, 1.0), spec)
                    worst = max(worst,
                                abs(closed - oracle) / max(abs(closed), 1e-4))
    return worst


def _check_rotation(lmax: int, seed: int):
    rng = random.Random(seed)
    lcap = min(lmax, 3)
    worst = 0.0
    for _ in range(5):
        theta = rng.uniform(0.1, math.pi - 0.1)
        phi = rng.uniform(0.0, 2 * math.pi)
        for l in range(lcap + 1):
            for lp in range(lcap + 1):
                for R in (1.2, 3.0):
                    geom = SphereGeometry(R, theta, phi, 1.0)
                    for m in range(-l, l + 1):
                        for mp in range(-lp, lp + 1):
                            got = matrix_element(MultipoleIndex(l, m),
                                                 MultipoleIndex(lp, mp), geom)
                            # independent transport of z-axis values
                            ang = EulerAngles(phi, theta, 0.0)
                            ref = 0.0 + 0.0j
                            for m1 in range(-min(l, lp), min(l, lp) + 1):
                                base = matrix_element_zaxis(
                                    MultipoleIndex(l, m1),
                                    MultipoleIndex(lp, m1), R, 1.0)
                                if base == 0:
                                    continue
                                ref += (wigner_D(l, m, m1, ang)
                                        * wigner_D(lp, mp, m1, ang).conjugate()
                                        * base)
                            worst = max(worst, abs(got - ref))
    return worst


def _check_fourier():
    spec = QuadratureSpec()
    idx = ReducedIndex(1, 1, 2)
    fw = hankel_forward(idx, 0.7, 1.0,
                        lambda R: g_reduced(idx, R, 1.0).value, spec)
    ref = g_tilde(idx, 0.7, 1.0)
    return abs(fw - ref) / abs(ref)


def _cmd_verify(args) -> int:
    if args.lmax > 4:
        raise ValueError("verify supports lmax <= 4 (oracle runtime budget)")
    checks = [
        ("golden-polynomial", _check_golden),
        ("hankel-oracle", lambda: _check_hankel(args.lmax)),
        ("surface-oracle", lambda: _check_surface(args.lmax)),
        ("rotation-covariance", lambda: _check_rotation(args.lmax, args.seed)),
        ("fourier-forward", _check_fourier),
    ]
    failed = None
    for name, fn in checks:
        err = fn()
        ok = err <= args.tol
        print(f"{name}: max-err={err:.3e} tol={args.tol:.1e} "
              f"{'PASS' if ok else 'FAIL'}")
        if not ok and failed is None:
            failed = name
    if failed is not None:
        print(f"verification failed at check: {failed}")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="laplace-multipole",
        description="Multipole matrix elements of the Laplace Green function "
                    "for two equal spheres")
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("reduced", help="one reduced element g^j_{l,l'}(R)")
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--lp", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--radius", type=float, required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_reduced)

    sp = sub.add_parser("element", help="canonical element at a separation vector")
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--lp", type=int, required=True)
    sp.add_argument("--mp", type=int, required=True)
    sp.add_argument("--R", type=_vec3, required=True,
                    help="separation vector Rx,Ry,Rz")
    sp.add_argument("--radius", type=float, required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_element)

    sp = sub.add_parser("table", help="reduced elements on an R grid")
    sp.add_argument("--lmax", type=int, required=True)
    sp.add_argument("--R-start", dest="R_start", type=float, required=True)
    sp.add_argument("--R-stop", dest="R_stop", type=float, required=True)
    sp.add_argument("--R-count", dest="R_count", type=int, required=True)
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--out", required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("fourier", help="Fourier-space element at a wave vector")
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--lp", type=int, required=True)
    sp.add_argument("--mp", type=int, required=True)
    sp.add_argument("--k", type=_vec3, required=True,
                    help="wave vector kx,ky,kz")
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--debug-omega", action="store_true",
                    help="print the two surface-density transforms to stderr")
    add_format(sp)
    sp.set_defaults(func=_cmd_fourier)

    sp = sub.add_parser("verify", help="run the oracle verification suite")
    sp.add_argument("--lmax", type=int, default=2)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroWaveVector) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LaplaceMultipoleError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
