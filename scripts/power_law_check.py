#!/usr/bin/env python3
"""Check the column-wise power law of reduced-element tables outside contact.

Generates reduced elements g^j_{l,l'}(R) on an R grid with R > 2a and
verifies that each (l, l', j) column falls off as (a/R)^(l+l'+1), i.e.
g(R) R^(l+l'+1) is constant along the column.  Channels with j != l+l'
must be exactly zero there.
"""
import argparse
import math
import sys

from laplace_multipole.core import ReducedIndex, g_reduced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lmax", type=int, default=3)
    ap.add_argument("--radius", type=float, default=1.0)
    ap.add_argument("--R-start", type=float, default=2.5)
    ap.add_argument("--R-stop", type=float, default=12.0)
    ap.add_argument("--R-count", type=int, default=6)
    ap.add_argument("--tol", type=float, default=1e-12)
    args = ap.parse_args(argv)

    a = args.radius
    if args.lmax < 0:
        ap.error("--lmax must be non-negative")
    if not 0 < a < math.inf:  # also rejects NaN
        ap.error("--radius must be finite and positive")
    if not 0 < args.tol < math.inf:
        ap.error("--tol must be finite and positive")
    for flag, R in (("--R-start", args.R_start), ("--R-stop", args.R_stop)):
        if not 2 * a < R < math.inf:  # also rejects NaN
            ap.error(f"{flag} must be finite and exceed 2*radius for the "
                     "power-law regime")
    if args.R_count < 2:
        ap.error("--R-count must be at least 2")
    grid = [args.R_start + i * (args.R_stop - args.R_start)
            / (args.R_count - 1) for i in range(args.R_count)]

    failures = 0
    for idx in ReducedIndex.admissible(args.lmax):
        p = idx.degree
        vals = [g_reduced(idx, R, a).value for R in grid]
        if idx.j != idx.l + idx.lp:
            ok = all(v == 0.0 for v in vals)
            status = "exact-zero" if ok else "NONZERO"
        else:
            consts = [v * (R / a) ** p for v, R in zip(vals, grid)]
            spread = (max(consts) - min(consts)) / max(abs(c) for c in consts)
            ok = spread <= args.tol
            status = f"spread={spread:.3e}"
        failures += not ok
        print(f"(l={idx.l}, l'={idx.lp}, j={idx.j})  R^-{p}  {status}  "
              f"{'ok' if ok else 'FAIL'}")
    if failures:
        print(f"{failures} column(s) violate the power law", file=sys.stderr)
        return 1
    print("all columns satisfy the power law")
    return 0


if __name__ == "__main__":
    sys.exit(main())
