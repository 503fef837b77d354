"""Item bookkeeping and summary statistics shared by the benchmark processes.

Every item the timed loop starts is recorded, whether it raised, failed the
correctness gate or passed; nothing is dropped, so ``failed`` always counts
against ``attempted``.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import Counter


def tail_percentile(values, beyond: int = 10):
    """Highest percentile (to 0.1) that still has at least ``beyond`` samples
    above its nearest-rank value.

    Returns ``(percentile, value, sample_count)``, or ``None`` when there are
    ``beyond`` samples or fewer, so no such percentile exists.
    """
    n = len(values)
    if n <= beyond:
        return None
    tenths = 1000 * (n - beyond) // n            # percentile in 0.1 steps
    rank = -(-tenths * n // 1000)                # nearest rank, 1-based
    return tenths / 10, sorted(values)[rank - 1], n


class ItemLog:
    """Outcome of every timed item: latency, error name, gate verdict."""

    def __init__(self):
        self.latencies = []      # seconds, one per attempted item
        self.errors = []         # exception class name, or None
        self.gate_errors = {}    # item index -> reason

    def record(self, latency_s: float, error: Exception | None) -> None:
        self.latencies.append(latency_s)
        self.errors.append(None if error is None else type(error).__name__)

    def gate_failed(self, item: int, reason: str) -> None:
        self.gate_errors.setdefault(item, reason)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def raised(self) -> dict:
        return dict(Counter(e for e in self.errors if e is not None))

    def ok(self) -> list:
        """Indices of items that completed and passed the gate."""
        return [i for i, e in enumerate(self.errors)
                if e is None and i not in self.gate_errors]

    @property
    def failed(self) -> int:
        return self.attempted - len(self.ok())

    def completed(self) -> list:
        """Indices of items that returned without raising (gate pending)."""
        return [i for i, e in enumerate(self.errors) if e is None]


def passed(log: ItemLog, may_fail: bool = False) -> bool:
    """A run's verdict: some item passed, no completed item failed the gate,
    and no item raised, unless the workload is one whose items may raise
    (``near-contact`` records today's ``NonConvergence`` as failures)."""
    return bool(log.ok()) and not log.gate_errors and (
        may_fail or log.failed == 0)


def end_to_end(log: ItemLog, wall_s: float) -> dict:
    """Throughput, latency median and tail, and failure share of a timed phase.

    Latencies are taken over items that completed and passed the gate; a
    failed item counts as missing every latency limit.
    """
    ok = [log.latencies[i] for i in log.ok()]
    tail = tail_percentile(ok)
    return {
        "throughput_per_s": len(ok) / wall_s,
        "latency_p50_ms": 1e3 * statistics.median(ok) if ok else None,
        "latency_tail_ms": 1e3 * tail[1] if tail else None,
        "latency_tail_percentile": tail[0] if tail else None,
        "latency_samples": len(ok),
        "failed_frac": log.failed / log.attempted if log.attempted else None,
    }


def timed_loop(workload, seed: int, seconds: float, on_item=None,
               between=None):
    """Closed loop, one item at a time, until ``seconds`` have passed and
    at least ``workload.min_items`` items have run, or, for a fixed input
    list, until it is exhausted.  ``between()``, if given, runs after each
    item; its time is left out of the timed wall time.

    Returns ``(log, inputs, kept outputs, wall_s)``.  An item that raises
    is recorded with its exception, never dropped.
    """
    log, inputs, outputs = ItemLog(), [], []
    start = time.perf_counter()
    paused = wall = 0.0
    for i, item in enumerate(workload.inputs(seed)):
        if on_item is not None:
            on_item(i)
        t = time.perf_counter()
        try:
            out, err = workload.run(item), None
        except Exception as exc:  # every failure counts against the item
            out, err = None, exc
        end = time.perf_counter()
        log.record(end - t, err)
        if err is not None:
            print(f"item {i}: {type(err).__name__}: {err}", file=sys.stderr)
        inputs.append(item)
        outputs.append(None if err is not None
                       else workload.keep(seed, i, out))
        wall = end - start - paused
        if between is not None:
            t = time.perf_counter()
            between()
            paused += time.perf_counter() - t
        if (not workload.fixed_items and wall >= seconds
                and log.attempted >= workload.min_items):
            break
    return log, inputs, outputs, wall


def run_gate(workload, seed: int, log: ItemLog, inputs, outputs) -> None:
    """Check every completed item; a failed check marks the item failed."""
    for i in log.completed():
        reason = workload.gate(seed, i, inputs[i], outputs[i])
        if reason is not None:
            log.gate_failed(i, reason)
            print(f"gate item {i}: {reason}", file=sys.stderr)
