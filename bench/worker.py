"""One workload run in a fresh interpreter; started by ``run.py``.

    worker.py WORKLOAD SEED SECONDS DEADLINE [--trace] [--setup-only]
    worker.py --table-item ITEM CLI-ARGS...

The first form imports the library, makes the warm-up pass, prints the
monotonic time at which the first timed item could begin, runs the closed
loop for SECONDS (one client, one item at a time), then runs the correctness
gate outside the timed phase.  Its last stdout line is a JSON record.
DEADLINE is a monotonic time no child process may outlive.

The second form is one traced ``table`` item: ``cli.main`` runs in-process
under the tracer, and the layer totals are printed as JSON.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import sys
import tempfile
import time

OUT_DIR = ".bench_out"


def _series_terms():
    """4F3 terms held in the per-index overlap series cache, read from
    outside; None once the cache no longer exists."""
    from laplace_multipole import core
    cache = getattr(core, "_series_cache", None)
    if cache is None:
        return None
    return sum(len(t) for eng in list(cache.values()) for t in eng.terms)


def _cache_delta(before: dict, after: dict) -> dict:
    return {k: {"hits": after[k][0] - before[k][0],
                "misses": after[k][1] - before[k][1]} for k in after}


def _env_info() -> dict:
    import mpmath
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND}


def table_item(item: int, argv: list) -> int:
    t0 = time.perf_counter()
    from laplace_multipole import cli
    import_s = time.perf_counter() - t0
    from tracing import Tracer, layer_totals
    tracer = Tracer()
    tracer.install()
    tracer.current_item = item
    c0 = tracer.cache_counts()
    code = cli.main(argv)
    caches = {"timed": _cache_delta(c0, tracer.cache_counts())}
    tracer.save(os.path.join(OUT_DIR, f"spans-table-item{item}.npz"))
    print(json.dumps({"code": code, "import_s": import_s,
                      "layers": layer_totals(tracer), "caches": caches}))
    return code


def main(argv: list) -> int:
    name, seed = argv[0], int(argv[1])
    seconds, deadline = float(argv[2]), float(argv[3])
    trace, setup_only = "--trace" in argv, "--setup-only" in argv

    t0 = time.perf_counter()
    import laplace_multipole  # noqa: F401  (the timed import)
    import laplace_multipole.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads
    from harness import run_gate, timed_loop
    from hostspeed import SETUP_READINGS, HostSpeed
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        c0 = tracer.cache_counts()

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        table_kwargs = {}
        if name == "table":
            table_kwargs = {"tmpdir": tmp, "timeout_at": deadline}
            if trace:
                table_kwargs["traced_item_cmd"] = [
                    sys.executable, os.path.abspath(__file__), "--table-item"]
        wl = workloads.make(name, **table_kwargs)
        wl.warmup()
        ready = time.monotonic()
        setup_host = HostSpeed()     # read after set-up, outside its time
        for _ in range(SETUP_READINGS):
            setup_host.read()
        if setup_only:
            print(json.dumps({"ready": ready, "import_s": import_s,
                              "setup_slowness": setup_host.slowness()}))
            return 0
        result = {"ready": ready, "import_s": import_s, "env": _env_info(),
                  "setup_slowness": setup_host.slowness(),
                  "may_fail": wl.may_fail,
                  "series_terms_setup": _series_terms()}
        if tracer is not None:
            c1 = tracer.cache_counts()

        on_item = None if tracer is None else (
            lambda i: setattr(tracer, "current_item", i))
        host = HostSpeed()
        if wl.subprocess_items:
            with host:
                log, inputs, outputs, wall = timed_loop(wl, seed, seconds,
                                                        on_item)
        else:
            log, inputs, outputs, wall = timed_loop(
                wl, seed, seconds, on_item, host.read_between_items)
        result["slowness"] = host.slowness()
        who = resource.RUSAGE_CHILDREN if name == "table" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        result["series_terms"] = _series_terms()

        if tracer is not None:
            from tracing import add_totals, layer_totals
            tracer.enabled = False
            c2 = tracer.cache_counts()
            layers = layer_totals(tracer)
            caches = {"setup": _cache_delta(c0, c1),
                      "timed": _cache_delta(c1, c2)}
            for totals in getattr(wl, "traced_totals", []):
                rec = json.loads(totals)
                add_totals(layers, rec["layers"])
                add_totals(caches, rec["caches"])
                result["import_s"] = rec["import_s"]
            result.update(layers=layers, caches=caches)
            tracer.save(os.path.join(OUT_DIR, f"spans-{name}.npz"))

    t = time.perf_counter()
    run_gate(wl, seed, log, inputs, outputs)
    result["check_s"] = time.perf_counter() - t

    result.update(wall_s=wall, latencies=log.latencies, errors=log.errors,
                  gate_errors={str(k): v for k, v in log.gate_errors.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "--table-item":
        sys.exit(table_item(int(sys.argv[2]), sys.argv[3:]))
    sys.exit(main(sys.argv[1:]))
