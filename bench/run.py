"""Layered benchmark of laplace-multipole.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload run starts in a fresh interpreter (``worker.py``)
with ``LAPLACE_MULTIPOLE_WORKERS`` removed, BLAS/OpenMP pinned to one thread
and a fixed ``PYTHONHASHSEED``, so every cache starts empty.

Untraced (``--trace 0``): the end-to-end metrics.  Set-up (interpreter start,
import, warm-up pass) is measured a fixed number of times per workload, the
run's own and the rest in set-up-only interpreters, and the median is
reported.  Set-up time and throughput are scaled to a reference host speed
read as the worker runs (``hostspeed.py``); the unscaled figures are in the
report.

Traced (``--trace 1``): the same seed once untraced and once traced; prints
the per-layer metrics of the traced run and the tracing overhead, the change
in median item latency between the two.

The last stdout line is the result record
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with every end-to-end metric (tail latency with its percentile and
sample count, failed share), the gate time and the environment, and in a
traced run every per-layer metric.  Without ``src/laplace_multipole`` the
command exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from harness import ItemLog, end_to_end, passed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("blocks", "table", "near-contact", "fourier")
RUN_LIMIT_S = 170          # every child is killed past this, from our start
# Set-up readings per untraced run, fixed per workload so that the count
# never depends on how fast the host is: sub-second set-ups (interpreter
# start and import) get 11 in about 6 s; blocks (about 25 s) and near-contact
# (about 4 s) are read once, from the run itself, to fit the time limits.
SETUP_RUNS = {"blocks": 1, "table": 11, "near-contact": 1, "fourier": 11}
LIBRARY = os.path.join("src", "laplace_multipole", "__init__.py")

# end_to_end metrics of BENCHMARK.json, set-up time and throughput scaled to
# the reference host speed.  Latency is reported, not compared: with one
# client in a closed loop its mean is the inverse of throughput.
END_TO_END = {"setup_s": "s", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}
REPORTED = {**END_TO_END, "setup_raw_s": "s", "throughput_raw_per_s": "1/s",
            "latency_p50_ms": "ms", "latency_tail_ms": "ms",
            "failed_frac": "ratio"}
# per_layer metrics of BENCHMARK.json: counts and ratios (a busy or self time
# reads exactly 0 on a workload that never enters that layer; those times
# are in the report line instead)
LAYER_COUNTS = (
    "laurent.gamma_laurent.calls",
    "laurent.reciprocal_gamma_laurent.calls",
    "core.triple_bessel_overlap.calls",
    "core.triple_bessel_overlap.failed",
    "core.triple_bessel_overlap.hit_ratio",
    "core.triple_bessel_nonoverlap.calls",
    "core.g_reduced.calls",
    "core.matrix_element.calls",
    "core.fourier_matrix_element.calls",
    "specfun.wigner_3j.calls",
    "specfun.wigner_3j.hit_ratio",
    "specfun.wigner_3j_float.calls",
    "specfun.spherical_harmonic.calls",
    "specfun.spherical_bessel_j.calls",
    "cli.main.calls",
)
PER_LAYER = {**{n: ("ratio" if n.endswith("hit_ratio") else "count")
                for n in LAYER_COUNTS},
             **{"setup." + n: ("ratio" if n.endswith("hit_ratio") else "count")
                for n in LAYER_COUNTS},
             "import_s": "s", "trace.overhead_pct": "%"}


class BenchError(Exception):
    """A run that cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LAPLACE_MULTIPOLE_WORKERS", None)
    env.update(PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMEXPR_NUM_THREADS="1")
    return env


def run_worker(args, deadline, *flags) -> tuple:
    """Start a worker in its own process group; return (spawn time, record).
    Kills the whole group, and waits for it, if it outlives the deadline."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), repr(args.seconds), repr(deadline), *flags]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(flags)} passed the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def item_log(rec: dict) -> ItemLog:
    log = ItemLog()
    for lat, err in zip(rec["latencies"], rec["errors"]):
        log.latencies.append(lat)
        log.errors.append(err)
    log.gate_errors = {int(k): v for k, v in rec["gate_errors"].items()}
    return log


def layer_metrics(rec: dict, overhead_pct: float) -> tuple:
    """(full per-layer report, BENCHMARK.json per_layer values)."""
    full = {"import_s": rec["import_s"], "trace.overhead_pct": overhead_pct}
    for phase, prefix in (("timed", ""), ("setup", "setup.")):
        for name, t in rec["layers"][phase].items():
            for key, value in t.items():
                full[f"{prefix}{name}.{key}"] = value
        for name, c in rec["caches"][phase].items():
            looked = c["hits"] + c["misses"]
            full[f"{prefix}{name}.hit_ratio"] = (c["hits"] / looked if looked
                                                 else 0.0)
        terms = rec["series_terms" if phase == "timed" else "series_terms_setup"]
        if terms is not None:
            full[f"{prefix}core.series_terms"] = terms
    chosen = {n: full[n] for n in PER_LAYER}
    return full, chosen


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(LIBRARY):
        print(f"error: {LIBRARY} not found; run from the root of a source "
              "checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        spawned, rec = run_worker(args, deadline)
        runs = [rec]
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "env": rec["env"]}
        if args.trace:
            _, traced = run_worker(args, deadline, "--trace")
            runs.append(traced)
            base = statistics.median(rec["latencies"])
            overhead = 100 * (statistics.median(traced["latencies"]) / base - 1)
            full, metrics = layer_metrics(traced, overhead)
            report["per_layer"] = full
            final = traced
        else:
            setup = [(rec["ready"] - spawned, rec["setup_slowness"])]
            while len(setup) < SETUP_RUNS[args.workload]:
                t, probe = run_worker(args, deadline, "--setup-only")
                setup.append((probe["ready"] - t, probe["setup_slowness"]))
            e2e = end_to_end(item_log(rec), rec["wall_s"])
            e2e["throughput_raw_per_s"] = e2e["throughput_per_s"]
            e2e["throughput_per_s"] *= rec["slowness"]
            e2e["setup_raw_s"] = statistics.median(t for t, _ in setup)
            e2e["setup_s"] = statistics.median(t / k for t, k in setup)
            e2e["peak_rss_mb"] = rec["peak_rss_mb"]
            report["end_to_end"] = {
                n: {"value": e2e[n], "unit": u} for n, u in REPORTED.items()}
            report["end_to_end"]["latency_tail_ms"].update(
                percentile=e2e["latency_tail_percentile"],
                samples=e2e["latency_samples"])
            report["setup_samples_s"] = [t for t, _ in setup]
            report["host_slowness"] = {"timed": rec["slowness"],
                                       "setup": [k for _, k in setup]}
            report["import_s"] = rec["import_s"]
            metrics = {n: e2e[n] for n in END_TO_END}
            final = rec
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    log = item_log(final)
    report.update(check_s=final["check_s"], raised=log.raised(),
                  gate_failures=final["gate_errors"])
    units = END_TO_END if not args.trace else PER_LAYER
    correct = all(passed(item_log(r), r["may_fail"]) for r in runs)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": log.attempted, "failed": log.failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
