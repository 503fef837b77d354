#!/usr/bin/env python3
"""Tabulate the exact overlap-regime polynomials g^j_{l,l'}(R), R <= 2a.

For each admissible (l, l', j) the reduced element is a polynomial of
degree l+l'+1 in R on the overlap range; this prints its coefficients
(in powers of R/a, scaled by a^(l+l'+1)) together with the value at
contact R = 2a, which must match the non-overlap power law.
"""
import argparse
import math
import sys

from laplace_multipole.core import ReducedIndex, g_reduced, overlap_polynomial


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lmax", type=int, default=3)
    ap.add_argument("--radius", type=float, default=1.0)
    args = ap.parse_args(argv)
    a = args.radius
    if args.lmax < 0:
        ap.error("--lmax must be non-negative")
    if not 0 < a < math.inf:  # also rejects NaN
        ap.error("--radius must be finite and positive")

    for idx in ReducedIndex.admissible(args.lmax):
        poly = overlap_polynomial(idx, a)
        contact_poly = poly.evaluate(2 * a)
        contact_law = g_reduced(idx, 2 * a, a).value
        terms = " + ".join(f"{c:+.12g}(R/a)^{n}"
                           for n, c in enumerate(poly.coefficients) if c != 0)
        print(f"(l={idx.l}, l'={idx.lp}, j={idx.j})  degree={poly.degree}")
        print(f"  g(R)/a^{idx.degree} = {terms or '0'}")
        print(f"  at contact: polynomial {contact_poly:.12g}, "
              f"power law {contact_law:.12g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
