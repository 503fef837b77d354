"""Record a baseline: several seeds per workload, untraced, plus one traced run.

    python3 bench/baseline.py --seeds 1-10 [--seconds S] [--workload W ...] \\
        [--out bench/baseline.json] [--repeat]

For each workload and end-to-end metric of BENCHMARK.json it prints the
median and the spread (distance between the first and third quartile, as a
share of the median, as ``statistics.quantiles(values, n=4)`` gives them).
It writes every untraced run's report and one traced run's report under
``workloads`` in ``--out``, merged into the workloads already there.

With ``--repeat`` it makes a second set of the same code on other seeds:
untraced runs only, and it writes just the medians and spreads, with each
median's change from the first set and whether that change is within the
metric's bound, under ``repeat`` in ``--out``.  Runs one benchmark process at
a time.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "report": json.loads(lines[-2])["report"]}


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs: list, spec: dict) -> dict:
    summary = {}
    for m in spec["end_to_end"]:
        values = [r["report"]["end_to_end"][m["name"]]["value"] for r in runs]
        summary[m["name"]] = {"median": statistics.median(values)}
        if len(values) >= 2:
            summary[m["name"]]["spread"] = spread(values)
    return summary


def main() -> int:
    spec = json.load(open("BENCHMARK.json", encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workload", action="append",
                   default=None, help="default: every workload of BENCHMARK.json")
    p.add_argument("--out", default=None)
    p.add_argument("--repeat", action="store_true",
                   help="second set: compare with the first set in --out")
    args = p.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out = {"workloads": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            out = json.load(fh)
    for wl in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for s in args.seeds:
            runs.append(bench(wl, s, args.seconds, 0))
            e2e = runs[-1]["report"]["end_to_end"]
            print(wl, s, {n: round(e2e[n]["value"], 4) for n in metrics},
                  {k: runs[-1][k] for k in ("correct", "attempted", "failed")},
                  flush=True)
        summary = summarize(runs, spec)
        first = out["workloads"].get(wl, {}).get("summary") if args.repeat else None
        for name, stat in summary.items():
            line = (f"  {wl} {name}: median={stat['median']:.6g} "
                    f"spread={stat.get('spread', float('nan')):.4f} "
                    f"bound={metrics[name]['bound']}")
            if first:
                change = stat["median"] / first[name]["median"] - 1
                worse = change if metrics[name]["better"] == "lower" else -change
                stat.update(median_change=change,
                            within_bound=worse <= metrics[name]["bound"])
                line += f" change={change:+.4f} within={stat['within_bound']}"
            print(line, flush=True)
        entry = {"seconds": args.seconds, "seeds": args.seeds,
                 "summary": summary}
        if args.repeat:
            out.setdefault("repeat", {})[wl] = entry
        else:
            out["workloads"][wl] = {**entry, "untraced": runs,
                                    "traced": bench(wl, args.seeds[0],
                                                    args.seconds, 1)}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
