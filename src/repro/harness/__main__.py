"""CLI: ``python -m repro.harness [exp ...] [--profile ci|quick|full]``.

Runs the requested experiments (default: all) and prints each report.
``--parallel N`` fans experiments over N worker processes, except
fig14/15/16, which share one suite and run in this process; output is
printed in request order either way, so serial and parallel runs
produce byte-identical reports. Exits non-zero if any paper expectation
missed.

Observability (the ``repro.obs`` plane; all flags compose with
``--parallel`` — each experiment's capture lives in the process that
runs it):

* ``--events t.jsonl`` streams every typed event as JSON lines, one
  file per experiment (``t.fig04.jsonl``, ...);
* ``--perfetto t.json`` writes a Chrome-trace file per experiment
  (walker contexts as tracks, DRAM transactions as async slices) for
  https://ui.perfetto.dev;
* ``--metrics-summary`` appends a hit-rate / load-to-use /
  miss-latency percentile summary to each report;
* ``--prof cycles.folded`` runs the cycle-attribution profiler:
  folded stacks per experiment (feed to flamegraph.pl) plus a per-DSA
  cycles-breakdown table appended to the report;
* ``--timeseries ts.csv`` samples hit-rate / occupancy / outstanding
  DRAM / bandwidth over 1000-cycle windows;
* ``--spans s.json`` assembles per-request span trees and writes the
  SLO-gate summary (per experiment: ``s.fig14.json``; feed to
  ``python -m repro.obs.regress --slo``) plus the why-slow blame table
  in the report;
* ``--explain-top K`` drills down the K slowest requests in each
  report (implies span assembly);
* ``--watchdog`` appends livelock / MSHR-saturation / starvation
  warnings to each report;
* ``--misses`` classifies every cache miss (compulsory / capacity /
  conflict, with would-have-hit-if shadow counters) and appends the
  why-miss table plus reuse-distance histograms to each report;
* ``--heatmap h.csv`` writes per-set occupancy/eviction-pressure rows
  over 1000-cycle windows (implies ``--misses``).

fig15 and fig16 reuse the suite fig14 (or whichever of the three runs
first) simulated in the same run, so they capture no events of their
own, serial or parallel.

Snapshot-fork warm-start sweeps are not a harness mode: ``python -m
repro.svc sweep ckpt:<dsa> --warmup-snapshot P.ckpt --grid FIELD=V1,V2``
warms one model once and forks it into every grid point (see
:mod:`repro.harness.sweep`).
"""

from __future__ import annotations

import argparse
import sys

from ..obs.capture import CaptureSpec
from . import EXPERIMENTS
from .parallel import run_parallel, run_serial


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help=f"ids to run (default: all of "
                             f"{', '.join(sorted(EXPERIMENTS))})")
    parser.add_argument("--profile", default="full",
                        choices=("ci", "quick", "full"))
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="fan experiments over N worker processes "
                             "(default: 1, serial)")
    parser.add_argument("--events", default=None, metavar="PATH.jsonl",
                        help="stream typed obs events as JSON lines "
                             "(per experiment: PATH.<exp_id>.jsonl)")
    parser.add_argument("--perfetto", default=None, metavar="PATH.json",
                        help="write a Chrome-trace/Perfetto file "
                             "(per experiment: PATH.<exp_id>.json)")
    parser.add_argument("--metrics-summary", action="store_true",
                        help="append an obs metrics summary (hit-rate, "
                             "latency percentiles) to each report")
    parser.add_argument("--prof", default=None, metavar="PATH.folded",
                        help="attribute walker cycles to (DSA, routine, "
                             "X-Action category): folded stacks per "
                             "experiment plus a breakdown table")
    parser.add_argument("--timeseries", default=None, metavar="PATH.csv",
                        help="time-series metrics over 1000-cycle windows "
                             "(per experiment: PATH.<exp_id>.csv)")
    parser.add_argument("--spans", default=None, metavar="PATH.json",
                        help="assemble request span trees; write the "
                             "SLO-gate summary (per experiment: "
                             "PATH.<exp_id>.json) and append the "
                             "why-slow blame table to each report")
    parser.add_argument("--explain-top", type=int, default=0, metavar="K",
                        help="drill down the K slowest requests in each "
                             "report (implies span assembly)")
    parser.add_argument("--watchdog", action="store_true",
                        help="append pathology warnings (livelock, MSHR "
                             "saturation, starvation) to each report")
    parser.add_argument("--misses", action="store_true",
                        help="classify misses (compulsory/capacity/"
                             "conflict + would-hit-if shadows) and "
                             "append the why-miss table to each report")
    parser.add_argument("--heatmap", default=None, metavar="PATH.csv",
                        help="write per-set occupancy/eviction heatmap "
                             "rows (per experiment: PATH.<exp_id>.csv; "
                             "implies --misses)")
    args = parser.parse_args(argv)
    if args.parallel < 1:
        parser.error("--parallel must be >= 1")
    if args.explain_top < 0:
        parser.error("--explain-top must be >= 0")

    targets = args.experiments or sorted(EXPERIMENTS)
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {', '.join(unknown)}")

    capture = CaptureSpec(events_path=args.events,
                          perfetto_path=args.perfetto,
                          metrics=args.metrics_summary,
                          prof_path=args.prof,
                          timeseries_path=args.timeseries,
                          spans_path=args.spans,
                          explain_top=args.explain_top,
                          watchdog=args.watchdog,
                          misses=args.misses,
                          heatmap_path=args.heatmap)
    if not capture.active:
        capture = None

    if args.parallel > 1:
        results = run_parallel(targets, args.profile, args.parallel,
                               capture=capture)
    else:
        results = run_serial(targets, args.profile, capture)

    all_ok = True
    for rendered, ok in results:
        print(rendered)
        print()
        all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
