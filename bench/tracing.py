"""Spans around calls into the library's public functions.

The library is not edited: :meth:`Tracer.install` replaces each traced
function by a wrapper in every ``laplace_multipole`` module that bound it,
so calls between modules (``core`` calling ``specfun.wigner_3j``) are seen
too.  Spans are kept in flat arrays in memory and written out once, at exit.

A span is (name, start, end, parent span, item id); item id -1 marks the
set-up (warm-up) pass.  A span's self time is its duration minus the part of
that interval its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, public function) pairs timed by the traced run; one layer per module.
TRACED = (
    ("specfun", "wigner_3j"),
    ("specfun", "wigner_3j_float"),
    ("specfun", "spherical_harmonic"),
    ("specfun", "spherical_bessel_j"),
    ("laurent", "gamma_laurent"),
    ("laurent", "reciprocal_gamma_laurent"),
    ("core", "triple_bessel_overlap"),
    ("core", "triple_bessel_nonoverlap"),
    ("core", "g_reduced"),
    ("core", "matrix_element"),
    ("core", "fourier_matrix_element"),
    ("cli", "main"),
)
# traced functions with a public functools cache, for hit ratios
CACHED = (("specfun", "wigner_3j"), ("core", "triple_bessel_overlap"))
PACKAGE = "laplace_multipole"
SETUP_ITEM = -1


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in TRACED]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.name = array("H")
        self.failed = array("b")
        self.nested = array("b")  # inside another span of the same name
        self.current_item = SETUP_ITEM
        self.enabled = True
        self._stack = []
        self._depth = [0] * len(TRACED)
        self._cached = {}

    def install(self) -> None:
        """Wrap every traced function in every loaded package module."""
        mods = [m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for nid, (mod, fn) in enumerate(TRACED):
            orig = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), fn)
            wrapped = self._wrap(orig, nid)
            for m in mods:
                if getattr(m, fn, None) is orig:
                    setattr(m, fn, wrapped)
            if (mod, fn) in CACHED:
                self._cached[f"{mod}.{fn}"] = orig

    def _wrap(self, fn, nid):
        start, end, parent = self.start, self.end, self.parent
        item, name, failed, nested = self.item, self.name, self.failed, self.nested
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            item.append(self.current_item)
            name.append(nid)
            nested.append(depth[nid] > 0)
            failed.append(0)
            end.append(0.0)
            stack.append(i)
            depth[nid] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed[i] = 1
                raise
            finally:
                end[i] = clock()
                depth[nid] -= 1
                stack.pop()

        return wrapper

    def cache_counts(self) -> dict:
        """Cumulative (hits, misses) of each traced cache."""
        out = {}
        for key, fn in self._cached.items():
            info = fn.cache_info()
            out[key] = (info.hits, info.misses)
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), start=self.start, end=self.end,
            parent=self.parent, item=self.item, name=self.name,
            failed=self.failed, nested=self.nested)


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part its children cover.

    Spans come from one thread's call stack, so a span's children lie inside
    it and never overlap each other: the covered part is the sum of their
    durations."""
    start, end = np.asarray(start, float), np.asarray(end, float)
    parent = np.asarray(parent)
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=len(dur))
    return dur - covered


def layer_totals(tracer: Tracer) -> dict:
    """Per phase ("setup", "timed") and traced name: calls, failed, busy_s
    (outermost spans of that name) and self_s.  Raw sums, so totals from
    several processes add up."""
    start, end = np.asarray(tracer.start), np.asarray(tracer.end)
    name, n = np.asarray(tracer.name, dtype=np.intp), len(tracer.names)
    outer = np.asarray(tracer.nested) == 0
    selft = self_times(start, end, tracer.parent)
    out = {}
    is_setup = np.asarray(tracer.item) == SETUP_ITEM
    for phase, mask in (("setup", is_setup), ("timed", ~is_setup)):
        def total(weights=None):
            return np.bincount(name[mask], weights=weights, minlength=n)
        calls = total()
        failed = total(np.asarray(tracer.failed, float)[mask])
        busy = total(np.where(outer, end - start, 0.0)[mask])
        own = total(selft[mask])
        out[phase] = {tracer.names[k]: {
            "calls": int(calls[k]), "failed": int(failed[k]),
            "busy_s": float(busy[k]), "self_s": float(own[k])}
            for k in range(n)}
    return out


def add_totals(acc: dict, more: dict) -> dict:
    """Sum two nested dicts of numbers key by key."""
    for k, v in more.items():
        if isinstance(v, dict):
            add_totals(acc.setdefault(k, {}), v)
        else:
            acc[k] = acc.get(k, 0) + v
    return acc
