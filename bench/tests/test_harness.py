"""Tests of the benchmark harness itself (not of the library).

    python -m pytest bench/tests -q
"""
import json
import pathlib
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from laplace_multipole.errors import NonConvergence  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_more_than_ten_samples(n):
    assert harness.tail_percentile(list(range(n))) is None


@pytest.mark.parametrize("n,pct", [(11, 9.0), (20, 50.0), (200, 95.0),
                                   (1000, 99.0), (2000, 99.5), (163, 93.8)])
def test_tail_percentile_value(n, pct):
    values = [float(v) for v in reversed(range(n))]  # order must not matter
    got_pct, value, count = harness.tail_percentile(values)
    assert (got_pct, count) == (pct, n)
    assert sum(v > value for v in values) >= 10
    # one step (0.1) higher, its nearest rank leaves fewer than ten beyond
    tenths_up = round(pct * 10) + 1
    assert n - -(-tenths_up * n // 1000) < 10


def test_tail_every_size_keeps_ten_beyond():
    for n in range(11, 600):
        pct, value, _ = harness.tail_percentile(list(range(n)))
        assert n - 1 - value >= 10, n
        assert n - 1 - value < 10 + n / 1000 + 1, n


# ---------------------------------------------------------------------------
# failures are counted, never dropped
# ---------------------------------------------------------------------------

class _Fake:
    """Six fixed items: item 2 raises NonConvergence, item 4 fails the gate."""

    fixed_items = True
    min_items = 1

    def inputs(self, seed):
        return iter(range(6))

    def run(self, item):
        if item == 2:
            raise NonConvergence("series not converged")
        return item * item

    def keep(self, seed, i, out):
        return out

    def gate(self, seed, i, item, out):
        return "wrong value" if item == 4 else None


def test_raised_and_gate_failures_count_as_failed():
    wl = _Fake()
    log, inputs, outputs, wall = harness.timed_loop(wl, 0, 0.0)
    assert log.attempted == 6 and outputs[2] is None
    assert log.raised() == {"NonConvergence": 1}
    harness.run_gate(wl, 0, log, inputs, outputs)
    assert log.failed == 2
    assert log.ok() == [0, 1, 3, 5]
    e2e = harness.end_to_end(log, wall_s=2.0)
    assert e2e["failed_frac"] == pytest.approx(2 / 6)
    assert e2e["throughput_per_s"] == pytest.approx(4 / 2.0)
    assert e2e["latency_samples"] == 4


def test_raised_item_makes_run_incorrect():
    wl = _Fake()
    wl.gate = lambda seed, i, item, out: None     # only item 2 fails: raises
    log, inputs, outputs, _ = harness.timed_loop(wl, 0, 0.0)
    harness.run_gate(wl, 0, log, inputs, outputs)
    assert log.failed == 1 and not log.gate_errors
    assert not harness.passed(log)
    assert harness.passed(log, may_fail=True)


def test_gate_failure_makes_run_incorrect_even_if_items_may_fail():
    log, inputs, outputs, _ = harness.timed_loop(_Fake(), 0, 0.0)
    harness.run_gate(_Fake(), 0, log, inputs, outputs)
    assert not harness.passed(log, may_fail=True)


def test_run_with_no_passing_item_is_incorrect():
    log = harness.ItemLog()
    log.record(0.1, NonConvergence("no"))
    assert not harness.passed(log, may_fail=True)


class _Endless(_Fake):
    fixed_items = False

    def inputs(self, seed):
        return iter(range(10 ** 9))


def test_open_ended_loop_runs_at_least_one_item():
    log, *_ = harness.timed_loop(_Endless(), 0, 0.0)
    assert log.attempted == 1


def test_loop_runs_min_items_however_short_the_run():
    wl = _Endless()
    wl.min_items = 3
    log, *_ = harness.timed_loop(wl, 0, 0.0)
    assert log.attempted == 3


def test_time_between_items_is_left_out_of_the_wall_time():
    wl = _Endless()
    wl.min_items = 2
    log, _, _, wall = harness.timed_loop(wl, 0, 0.0,
                                         between=lambda: time.sleep(0.05))
    assert log.attempted == 2 and wall < 0.05


def test_host_slowness_is_mean_reading_over_nominal():
    host = hostspeed.HostSpeed()
    host.samples = [(0.0, 0.5 * hostspeed.NOMINAL_S),
                    (1.0, 2.5 * hostspeed.NOMINAL_S)]
    assert host.slowness() == pytest.approx(1.5)


def test_host_sampling_thread_reads_and_stops():
    with hostspeed.HostSpeed() as host:
        time.sleep(0.05)
    assert len(host.samples) >= 1 and not host._thread.is_alive()


def test_worker_record_round_trip_keeps_failures():
    log, inputs, outputs, _ = harness.timed_loop(_Fake(), 0, 0.0)
    harness.run_gate(_Fake(), 0, log, inputs, outputs)
    rec = json.loads(json.dumps({
        "latencies": log.latencies, "errors": log.errors,
        "gate_errors": {str(k): v for k, v in log.gate_errors.items()}}))
    back = run.item_log(rec)
    assert (back.attempted, back.failed, back.ok()) == (6, 2, log.ok())


# ---------------------------------------------------------------------------
# self time on a synthetic span tree
# ---------------------------------------------------------------------------

def test_self_time_subtracts_children_not_grandchildren():
    #   0 root [0, 10]
    #   1   a  [1, 3]
    #   2     a's child [1.5, 2.5]   covered by a, so not again by root
    #   3   b  [4, 6]
    #   4   c  [7, 7]                empty
    #   5 second root [11, 12]
    start = [0.0, 1.0, 1.5, 4.0, 7.0, 11.0]
    end = [10.0, 3.0, 2.5, 6.0, 7.0, 12.0]
    parent = [-1, 0, 1, 0, 0, -1]
    got = tracing.self_times(start, end, parent)
    assert list(got) == pytest.approx([6.0, 1.0, 1.0, 2.0, 0.0, 1.0])


def test_layer_totals_busy_counts_outermost_same_name_span(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter",
                        lambda: float(next(ticks)))
    tr = tracing.Tracer()
    outer_id = tr.names.index("core.g_reduced")
    inner_id = tr.names.index("specfun.wigner_3j")

    def leaf():
        return 1

    inner = tr._wrap(leaf, inner_id)

    def recurse(n):
        inner()
        return wrapped(n - 1) if n else 0

    wrapped = tr._wrap(recurse, outer_id)
    tr.current_item = 0
    wrapped(1)
    # spans: g[0,7] > w[1,2], g[3,6] > w[4,5]
    totals = tracing.layer_totals(tr)["timed"]
    g, w = totals["core.g_reduced"], totals["specfun.wigner_3j"]
    assert g["calls"] == 2 and w["calls"] == 2
    assert g["busy_s"] == 7.0          # nested call is not counted twice
    assert g["self_s"] == (7.0 - 1.0 - 3.0) + (3.0 - 1.0)
    assert w["busy_s"] == w["self_s"] == 2.0


def test_failed_span_is_counted():
    tr = tracing.Tracer()
    nid = tr.names.index("core.triple_bessel_overlap")

    def boom():
        raise NonConvergence("no")

    f = tr._wrap(boom, nid)
    with pytest.raises(NonConvergence):
        f()
    totals = tracing.layer_totals(tr)["setup"]["core.triple_bessel_overlap"]
    assert (totals["calls"], totals["failed"]) == (1, 1)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py prints
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert set(run.SETUP_RUNS) == set(run.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
