#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

Result files are what ``bench_e2e.py --out FILE`` writes: one record per
workload run (a list of them for ``--workload all``). List the files in
the order they were run, parent and change alternating; the i-th
parent and the i-th change run of a workload form one pair::

    python3 benchmarks/e2e/compare.py --parent p1.json p2.json ... \\
        --change c1.json c2.json ...
    python3 benchmarks/e2e/compare.py --layers parent/layers.json \\
        change/layers.json

For every workload x end-to-end metric the first form prints both
sides' median and quartiles, the change's wins/losses/ties over the
pairs, and a verdict, using the bounds and directions in BENCHMARK.json:

* ``improved``   -- the change wins at least 9/10 of all pairs (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved`` -- the parent's own spread (IQR / median) is wider
  than the bound, and not every change run beats every parent run;
* ``worse``      -- the change's median is worse than the parent's by
  more than the bound, or more ops failed;
* ``no worse``   -- otherwise.

The exit status is 1 when any row is ``worse``. The second form prints
each layer's self-time and each count of two traced runs side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"


def load_runs(paths: Sequence[str]) -> Dict[str, List[dict]]:
    """workload -> its run records, in file order."""
    runs: Dict[str, List[dict]] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for record in doc if isinstance(doc, list) else [doc]:
            if record.get("trace"):
                continue   # traced runs carry per-layer metrics only
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Tuple[str, int, int, int]:
    """(verdict, wins, losses, ties) of ``change`` against ``parent``."""
    sign = 1.0 if better == "higher" else -1.0
    wins = losses = ties = 0
    for p, c in zip(parent, change):
        delta = sign * (c - p)
        wins += delta > 0
        losses += delta < 0
        ties += delta == 0
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    pairs = min(len(parent), len(change))
    worse_by = -sign * (cmed - pmed) / pmed
    if (pairs and wins >= 0.9 * pairs and worse_by < 0
            and abs(cmed - pmed) > pq3 - pq1):
        return "improved", wins, losses, ties
    if (pq3 - pq1) / pmed > bound:
        beats_all = (min(change) > max(parent) if sign > 0
                     else max(change) < min(parent))
        return ("no worse" if beats_all else "unresolved",
                wins, losses, ties)
    if worse_by > bound:
        return "worse", wins, losses, ties
    return "no worse", wins, losses, ties


def compare_runs(parent_paths: Sequence[str],
                 change_paths: Sequence[str]) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    parent, change = load_runs(parent_paths), load_runs(change_paths)
    print(f"{'workload':<15} {'metric':<12} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'w/l/t':>8}  verdict")
    worst = 0
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:<15} (runs on one side only)")
            worst = 1
            continue
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            result, wins, losses, ties = verdict(p, c, metric["better"],
                                                 metric["bound"])
            if c_failed > p_failed:
                result = "worse"
            worst = max(worst, result == "worse")
            pq, cq = quartiles(p), quartiles(c)
            print(f"{workload:<15} {name:<12} "
                  f"{'/'.join(f'{v:.4g}' for v in pq):>28} "
                  f"{'/'.join(f'{v:.4g}' for v in cq):>28} "
                  f"{f'{wins}/{losses}/{ties}':>8}  {result}")
        print(f"{workload:<15} failed ops: parent {p_failed}, "
              f"change {c_failed}; runs {len(p_runs)} vs {len(c_runs)}")
    return worst


def compare_layers(parent_path: str, change_path: str) -> int:
    parent = json.loads(Path(parent_path).read_text())["metrics"]
    change = json.loads(Path(change_path).read_text())["metrics"]
    print(f"{'metric':<28} {'parent':>14} {'change':>14} {'delta':>14} "
          f"{'delta %':>8}")
    for name in parent:
        p, c = parent[name], change.get(name, 0.0)
        share = f"{100.0 * (c - p) / p:+.1f}" if p else "n/a"
        print(f"{name:<28} {p:>14.6g} {c:>14.6g} {c - p:>+14.6g} "
              f"{share:>8}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare benchmark runs of a parent and a change.")
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--layers", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.layers:
        return compare_layers(*args.layers)
    if not args.parent or not args.change:
        parser.error("give --parent and --change result files, "
                     "or --layers")
    return compare_runs(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
