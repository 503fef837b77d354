"""Seeded inputs, timed items, warm-up passes and correctness gates.

All lengths are in units of the sphere radius ``A``.  The library is reached
through its module attributes (``core.matrix_element``) so that a traced run,
which rebinds those attributes, sees the outermost call of every item.

Gate tolerances are the acceptance suite's own (``tests/test_acceptance.py``)
and are never loosened.
"""
from __future__ import annotations

import csv
import io
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
from laplace_multipole import core
from laplace_multipole.core import ReducedIndex, SphereGeometry
from laplace_multipole.errors import LaplaceMultipoleError
from laplace_multipole.oracles import QuadratureSpec, hankel_triple_bessel
from laplace_multipole.specfun import EulerAngles, MultipoleIndex, wigner_D

A = 1.0
GOLDEN_TOL = 1e-10    # criterion 1, relative to max(|want|, 1e-2)
HANKEL_TOL = 1e-6     # criterion 3, relative to max(|closed|, 1e-8)
ROTATION_TOL = 1e-10  # criterion 6, absolute
# relative to the sum of |conj(omega_hat) omega_hat / k^2| over the wave
# vectors: terms of the reciprocal sum can cancel, and each carries rounding
# relative to its own size
FOURIER_TOL = 1e-12
# The Hankel oracle's analytic tail needs k_max R well above j; criterion 3
# checks it from R = 0.3a up, and so does the gate.
HANKEL_MIN_R = 0.3 * A
_SPEC = QuadratureSpec()
_SQRT3 = math.sqrt(3.0)


def _gate_rng(seed: int, item: int) -> random.Random:
    return random.Random(seed * 1_000_003 + item)


def _unit_vector(rng: random.Random):
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2 * math.pi)
    s = math.sqrt(1.0 - z * z)
    return s * math.cos(phi), s * math.sin(phi), z


def _indices(lmax: int):
    return [MultipoleIndex(l, m) for l in range(lmax + 1)
            for m in range(-l, l + 1)]


def admissible(lmax: int):
    return [(l, lp, j) for l in range(lmax + 1) for lp in range(lmax + 1)
            for j in range(abs(l - lp), l + lp + 1) if (l + lp + j) % 2 == 0]


def golden(l: int, lp: int, j: int, R: float):
    """Closed-form overlap polynomials pinned by acceptance criterion 1."""
    if (l, lp, j) == (1, 1, 0):
        return -((R - 2 * A) ** 2) * (4 * A + R) / (16 * _SQRT3)
    if (l, lp, j) == (2, 3, 3):
        return -7 * (R ** 3 - 4 * A * A * R) ** 2 / (256 * _SQRT3)
    return None


def golden_error(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-2)


def hankel_check(l: int, lp: int, j: int, R: float, closed: float):
    """None when ``closed`` matches the Hankel oracle (criterion 3), else
    the reason; an oracle that cannot reach its accuracy fails the check."""
    idx = ReducedIndex(l, lp, j)
    try:
        oracle = (core.mu_coefficient(idx) * A ** (l + lp + 2)
                  * hankel_triple_bessel(idx, R, A, _SPEC))
    except LaplaceMultipoleError as exc:
        return f"hankel oracle ({l},{lp},{j}) R={R!r}: {exc}"
    err = abs(closed - oracle) / max(abs(closed), 1e-8)
    if err <= HANKEL_TOL:
        return None
    return f"hankel ({l},{lp},{j}) R={R!r}: {err:.3e}"


class Workload:
    """One input stream: ``inputs(seed)`` yields items for ``run``; ``warmup``
    fills the per-index caches; ``keep(seed, i, out)`` is the part of an
    output the gate needs; ``gate(seed, i, item, kept)`` returns None when
    it passes, else the reason it failed."""

    fixed_items = False  # True: run the whole finite input list once
    may_fail = False     # True: items that raise leave the run correct
    subprocess_items = False  # True: each item runs in a child process
    min_items = 1        # items the timed phase runs at least

    def warmup(self) -> None:
        pass

    def keep(self, seed, i, out):
        return out


# ---------------------------------------------------------------------------
# blocks: warm 25x25 interaction blocks at lmax 4
# ---------------------------------------------------------------------------

class Blocks(Workload):
    LMAX = 4
    HANKEL_SHARE = 0.04    # share of items also checked by the (slow) oracle
    ROTATION_SAMPLES = 4   # elements rebuilt by rotation, per item

    def __init__(self):
        self.idx = _indices(self.LMAX)

    def _block(self, geom):
        return np.array([[core.matrix_element(p, q, geom) for q in self.idx]
                         for p in self.idx])

    def inputs(self, seed):
        """Separation vectors: |R| uniform on (0, 1.9a] with probability 0.4,
        else on [2a, 6a].  Two in every five, at seeded places, are drawn from
        the overlap range, so the share does not vary from run to run."""
        rng = random.Random(seed)
        while True:
            near = rng.sample(range(5), 2)
            for k in range(5):
                u = _unit_vector(rng)
                if k in near:
                    R = 1.9 * A * (1.0 - rng.random())   # (0, 1.9a]
                else:
                    R = rng.uniform(2.0 * A, 6.0 * A)
                yield tuple(R * c for c in u)

    def warmup(self):
        self._block(SphereGeometry(1.9 * A, 1.0, 0.5, A))

    def run(self, vec):
        return self._block(SphereGeometry.from_vector(vec, A))

    def _sampled(self, seed, i):
        rng = _gate_rng(seed, i)
        n = len(self.idx)
        pairs = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(self.ROTATION_SAMPLES)]
        return rng, pairs

    def keep(self, seed, i, out):
        """Only the sampled elements: holding every block would make peak
        memory grow with the number of items run."""
        return {pq: out[pq] for pq in self._sampled(seed, i)[1]}

    def gate(self, seed, i, vec, kept):
        geom = SphereGeometry.from_vector(vec, A)
        ang = EulerAngles(geom.phi, geom.theta, 0.0)
        rng, pairs = self._sampled(seed, i)
        for p, q in pairs:
            lm, lpmp = self.idx[p], self.idx[q]
            ref = 0.0 + 0.0j
            for m1 in range(-min(lm.l, lpmp.l), min(lm.l, lpmp.l) + 1):
                base = core.matrix_element_zaxis(
                    MultipoleIndex(lm.l, m1), MultipoleIndex(lpmp.l, m1),
                    geom.R, A)
                ref += (wigner_D(lm.l, lm.m, m1, ang)
                        * wigner_D(lpmp.l, lpmp.m, m1, ang).conjugate() * base)
            err = abs(kept[p, q] - ref)
            if not err <= ROTATION_TOL:
                return f"rotation {lm}x{lpmp}: {err:.3e}"
        if rng.random() < self.HANKEL_SHARE and geom.R >= HANKEL_MIN_R:
            l, lp, j = rng.choice(admissible(self.LMAX))
            closed = core.g_reduced(ReducedIndex(l, lp, j), geom.R, A).value
            return hankel_check(l, lp, j, geom.R, closed)
        return None


# ---------------------------------------------------------------------------
# table: one cold `laplace-multipole table` command per item
# ---------------------------------------------------------------------------

class Table(Workload):
    """R-stop is drawn from [1.84a, 1.86a]: over [1.8a, 1.9a] the command's
    cost moves from 10 s to 13 s with R-stop alone (longer overlap series),
    which at one item per run would swamp the run-to-run bound."""

    subprocess_items = True
    min_items = 2        # a command takes 10-20 s: time at least two
    LMAX = 3
    POINTS = 64
    HANKEL_ROWS = 6

    def __init__(self, tmpdir, timeout_at, traced_item_cmd=None):
        self.tmpdir = tmpdir
        self.timeout_at = timeout_at
        self.traced_item_cmd = traced_item_cmd  # argv prefix, or None
        self.traced_totals = []
        self._count = 0

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            yield rng.uniform(0.01, 0.1) * A, rng.uniform(1.84, 1.86) * A

    def argv(self, item, out):
        start, stop = item
        return ["table", "--lmax", str(self.LMAX), "--R-start", repr(start),
                "--R-stop", repr(stop), "--R-count", str(self.POINTS),
                "--radius", repr(A), "--out", out]

    def run(self, item):
        self._count += 1
        out = os.path.join(self.tmpdir, f"table-{self._count}.csv")
        argv = self.argv(item, out)
        if self.traced_item_cmd is None:
            cmd = [sys.executable, "-m", "laplace_multipole.cli", *argv]
        else:
            cmd = [*self.traced_item_cmd, str(self._count - 1), *argv]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(self.timeout_at - time.monotonic(), 1))
        proc.check_returncode()
        if self.traced_item_cmd is not None:
            self.traced_totals.append(proc.stdout.strip().splitlines()[-1])
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out)
        return text

    def gate(self, seed, i, item, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        want_rows = len(admissible(self.LMAX)) * self.POINTS
        if len(rows) != want_rows:
            return f"{len(rows)} rows, expected {want_rows}"
        for row in rows:
            l, lp, j = int(row["l"]), int(row["lp"]), int(row["j"])
            R, value = float(row["R"]), float(row["value_re"])
            if row["regime"] != "overlap":
                return f"regime {row['regime']} at R={R!r}"
            want = golden(l, lp, j, R)
            if want is not None and not golden_error(value, want) <= GOLDEN_TOL:
                return (f"golden ({l},{lp},{j}) R={R!r}: "
                        f"{golden_error(value, want):.3e}")
        rng = _gate_rng(seed, i)
        eligible = [r for r in rows if float(r["R"]) >= HANKEL_MIN_R]
        for row in rng.sample(eligible, self.HANKEL_ROWS):
            reason = hankel_check(int(row["l"]), int(row["lp"]), int(row["j"]),
                                  float(row["R"]), float(row["value_re"]))
            if reason is not None:
                return reason
        return None


# ---------------------------------------------------------------------------
# near-contact: single reduced elements as R -> 2a from below
# ---------------------------------------------------------------------------

class NearContact(Workload):
    """Most items raise ``NonConvergence`` today; they count as failed, and
    the run stays correct as long as every completed item passes the gate."""

    fixed_items = True
    may_fail = True
    TRIPLES = ((0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 2))
    RATIOS = tuple(2.0 - 10.0 ** -k for k in range(2, 16)) + (2 * (1 - 1e-16),)

    def inputs(self, seed):
        for rho in self.RATIOS:
            for t in self.TRIPLES:
                yield t, rho * A

    def warmup(self):
        for t in self.TRIPLES:
            core.g_reduced(ReducedIndex(*t), 1.9 * A, A)

    def run(self, item):
        t, R = item
        return core.g_reduced(ReducedIndex(*t), R, A).value

    def gate(self, seed, i, item, value):
        (l, lp, j), R = item
        want = golden(l, lp, j, R)
        if want is not None:
            err = golden_error(value, want)
            return None if err <= GOLDEN_TOL else f"golden R={R!r}: {err:.3e}"
        return hankel_check(l, lp, j, R, value)


# ---------------------------------------------------------------------------
# fourier: Ewald-style reciprocal sum of 25x25 Fourier-space blocks
# ---------------------------------------------------------------------------

class Fourier(Workload):
    LMAX = 4
    WAVES = 8

    def __init__(self):
        self.idx = _indices(self.LMAX)

    def _block(self, kvecs):
        return np.array([[sum(core.fourier_matrix_element(p, q, kv, A)
                              for kv in kvecs) for q in self.idx]
                         for p in self.idx])

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            yield tuple(tuple(rng.uniform(0.1, 10.0) / A * c
                              for c in _unit_vector(rng))
                        for _ in range(self.WAVES))

    def warmup(self):
        rng = random.Random(0)
        self._block([tuple(10.0 / A * c for c in _unit_vector(rng))
                     for _ in range(self.WAVES)])

    def run(self, kvecs):
        return self._block(kvecs)

    def gate(self, seed, i, kvecs, out):
        omega = [[core.omega_hat(p, kv, A) for kv in kvecs] for p in self.idx]
        k2 = [sum(c * c for c in kv) for kv in kvecs]
        for p, wp in enumerate(omega):
            for q, wq in enumerate(omega):
                terms = [a.conjugate() * b / kk for a, b, kk in zip(wp, wq, k2)]
                err = abs(out[p, q] - sum(terms))
                scale = sum(abs(t) for t in terms)
                if not err <= FOURIER_TOL * scale:
                    return (f"{self.idx[p]}x{self.idx[q]}: "
                            f"{err / scale if scale else err:.3e}")
        return None


def make(name: str, **table_kwargs) -> Workload:
    if name == "blocks":
        return Blocks()
    if name == "table":
        return Table(**table_kwargs)
    if name == "near-contact":
        return NearContact()
    if name == "fourier":
        return Fourier()
    raise ValueError(f"unknown workload {name!r}")
