"""Command-line interface: single reduced elements, canonical elements,
R-grid tables, Fourier-space values, and the oracle verification suite.

Output is deterministic: floats are printed with 17 significant digits,
row order is fixed, and `verify --seed` draws its random rotations from
a seeded generator so repeated runs are byte-identical.

Exit codes: 0 success, 1 computation/I-O failure, 2 usage or domain error.

Only `verify` needs the quadrature oracles (numpy, scipy); its
checks import them, so the other commands load the standard library alone.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys

from . import __version__
from .core import (ReducedIndex, SphereGeometry, g_reduced, g_tilde,
                   matrix_element, matrix_element_zaxis, mu_coefficient,
                   fourier_matrix_element, omega_hat, regime_of)
from .errors import LaplaceMultipoleError, ZeroWaveVector
from .specfun import EulerAngles, MultipoleIndex, wigner_D

_CSV_FIELDS = ["l", "m", "lp", "mp", "j", "R", "a", "regime",
               "value_re", "value_im"]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _record(l, m, lp, mp, j, R, a, regime, value) -> dict:
    """One output row; m and m' are None for reduced elements, j for the
    canonical and Fourier ones."""
    value = complex(value)
    return dict(zip(_CSV_FIELDS, (l, m, lp, mp, j, R, a, regime,
                                  value.real, value.imag)))


def _emit(records: list, args, stream) -> None:
    if args.format == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        writer.writerows([_fmt(r[f]) for f in _CSV_FIELDS] for r in records)
        return
    flags = {k: ",".join(map(str, v)) if isinstance(v, tuple) else v
             for k, v in sorted(vars(args).items())
             if k not in ("func", "command")}
    json.dump({"records": [{k: v for k, v in rec.items() if v is not None}
                           for rec in records],
               "meta": {"version": __version__, "command": args.command,
                        "flags": flags}},
              stream, indent=2)
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
    _emit([_record(args.l, None, args.lp, None, args.j, args.R, args.radius,
                   elem.regime, elem.value)], args, sys.stdout)
    return 0


def _cmd_element(args) -> int:
    lm, lpmp = MultipoleIndex(args.l, args.m), MultipoleIndex(args.lp, args.mp)
    geom = SphereGeometry.from_vector(args.R, args.radius)
    val = matrix_element(lm, lpmp, geom)
    _emit([_record(args.l, args.m, args.lp, args.mp, None, geom.R, args.radius,
                   regime_of(geom.R, geom.a), val)], args, sys.stdout)
    return 0


def _cmd_table(args) -> int:
    indices = ReducedIndex.admissible(args.lmax)
    if args.R_count < 2:
        raise ValueError("R-count must be at least 2")
    grid = [args.R_start + i * (args.R_stop - args.R_start) / (args.R_count - 1)
            for i in range(args.R_count)]
    records = []
    for idx in indices:
        for R in grid:
            elem = g_reduced(idx, R, args.radius)
            records.append(_record(idx.l, None, idx.lp, None, idx.j, R,
                                   args.radius, elem.regime, elem.value))
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _emit(records, args, fh)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_fourier(args) -> int:
    lm, lpmp = MultipoleIndex(args.l, args.m), MultipoleIndex(args.lp, args.mp)
    val = fourier_matrix_element(lm, lpmp, args.k, args.radius)
    if args.debug_omega:
        for label, idx in ((" lm", lm), ("lpmp", lpmp)):
            w = omega_hat(idx, args.k, args.radius)
            print(f"# omega_hat {label}: {_fmt(w.real)} {_fmt(w.imag)}",
                  file=sys.stderr)
    _emit([_record(args.l, args.m, args.lp, args.mp, None, math.hypot(*args.k),
                   args.radius, "fourier", val)], args, sys.stdout)
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
    from .oracles import QuadratureSpec, hankel_triple_bessel
    spec = QuadratureSpec()
    worst = 0.0
    for idx in ReducedIndex.admissible(lmax):
        for R in (0.5, 1.0, 2.5):
            closed = g_reduced(idx, R, 1.0).value
            oracle = mu_coefficient(idx) * hankel_triple_bessel(idx, R, 1.0,
                                                                spec)
            worst = max(worst, abs(closed - oracle) / max(abs(closed), 1e-8))
    return worst


def _check_surface(lmax: int):
    from .oracles import QuadratureSpec, defining_integral_quadrature
    spec = QuadratureSpec(node_count=10)
    worst = 0.0
    for l in range(lmax + 1):
        for lp in range(lmax + 1):
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
        ang = EulerAngles(phi, theta, 0.0)
        for l in range(lcap + 1):
            for lp in range(lcap + 1):
                for R in (1.2, 3.0):
                    geom = SphereGeometry(R, theta, phi, 1.0)
                    # independent transport of the nonzero z-axis values
                    base = {m1: matrix_element_zaxis(
                        MultipoleIndex(l, m1), MultipoleIndex(lp, m1), R, 1.0)
                        for m1 in range(-min(l, lp), min(l, lp) + 1)}
                    for m in range(-l, l + 1):
                        for mp in range(-lp, lp + 1):
                            got = matrix_element(MultipoleIndex(l, m),
                                                 MultipoleIndex(lp, mp), geom)
                            ref = sum((wigner_D(l, m, m1, ang)
                                       * wigner_D(lp, mp, m1, ang).conjugate()
                                       * b for m1, b in base.items() if b != 0),
                                      0.0 + 0.0j)
                            worst = max(worst, abs(got - ref))
    return worst


def _check_fourier():
    from .oracles import QuadratureSpec, hankel_forward
    spec = QuadratureSpec()
    idx = ReducedIndex(1, 1, 2)
    fw = hankel_forward(idx, 0.7, 1.0,
                        lambda R: g_reduced(idx, R, 1.0).value, spec)
    ref = g_tilde(idx, 0.7, 1.0)
    return abs(fw - ref) / abs(ref)


def _cmd_verify(args) -> int:
    if not 0.0 < args.tol < math.inf:  # also rejects NaN
        raise ValueError(f"tol must be positive and finite, got {args.tol}")
    if args.lmax < 0:
        raise ValueError("lmax must be non-negative")
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

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--radius", type=float, required=True)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    pair = argparse.ArgumentParser(add_help=False)
    for flag in ("--l", "--m", "--lp", "--mp"):
        pair.add_argument(flag, type=int, required=True)

    sp = sub.add_parser("reduced", parents=[output],
                        help="one reduced element g^j_{l,l'}(R)")
    for flag in ("--l", "--lp", "--j"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--R", type=float, required=True)
    sp.set_defaults(func=_cmd_reduced)

    sp = sub.add_parser("element", parents=[pair, output],
                        help="canonical element at a separation vector")
    sp.add_argument("--R", type=_vec3, required=True,
                    help="separation vector Rx,Ry,Rz")
    sp.set_defaults(func=_cmd_element)

    sp = sub.add_parser("table", parents=[output],
                        help="reduced elements on an R grid")
    sp.add_argument("--lmax", type=int, required=True)
    sp.add_argument("--R-start", dest="R_start", type=float, required=True)
    sp.add_argument("--R-stop", dest="R_stop", type=float, required=True)
    sp.add_argument("--R-count", dest="R_count", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("fourier", parents=[pair, output],
                        help="Fourier-space element at a wave vector")
    sp.add_argument("--k", type=_vec3, required=True,
                    help="wave vector kx,ky,kz")
    sp.add_argument("--debug-omega", action="store_true",
                    help="print the two surface-density transforms to stderr")
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
