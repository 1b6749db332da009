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
"""

from __future__ import annotations

import argparse
import sys

from ..obs.capture import CaptureSpec
from . import EXPERIMENTS
from .parallel import run_parallel, run_serial


def _snapshot_mode(parser, args) -> int:
    """``--write-snapshot`` / ``--sweep-from-snapshot`` entry points."""
    from ..sim.checkpoint import SnapshotError
    from .sweep import (
        parse_grid_entries,
        render_sweep,
        run_snapshot_sweep,
        sweep_points,
        write_warm_snapshot,
    )

    if args.write_snapshot and args.sweep_from_snapshot:
        parser.error("--write-snapshot and --sweep-from-snapshot are "
                     "separate modes (write first, then sweep)")
    try:
        if args.write_snapshot:
            header = write_warm_snapshot(
                args.write_snapshot, args.snapshot_dsa, args.profile,
                warm_cycles=args.warm_cycles, warm_frac=args.warm_frac)
            print(f"snapshot: {args.write_snapshot} "
                  f"model={header['model_class']} cycle={header['cycle']} "
                  f"digest={header['payload_sha256'][:12]}")
            return 0
        grid = parse_grid_entries(args.sweep_grid)
        points = sweep_points(grid) if grid else [{}]
        from ..sim.checkpoint import read_header

        header = read_header(args.sweep_from_snapshot)
        results = run_snapshot_sweep(args.sweep_from_snapshot, points)
        print(render_sweep(args.sweep_from_snapshot, header, results))
        return 0 if all(p.result.checks_passed for p in results) else 1
    except (SnapshotError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
    snap = parser.add_argument_group(
        "snapshot-fork sweeps",
        "warm one model once, then fork the snapshot into a grid of "
        "fork-safe config points (see repro.harness.sweep)")
    snap.add_argument("--write-snapshot", default=None, metavar="PATH.ckpt",
                      help="warm a model and write a snapshot, then exit")
    snap.add_argument("--snapshot-dsa", default="widx",
                      choices=("widx", "dasx", "sparch", "gamma",
                               "graphpulse"),
                      help="which DSA to warm for --write-snapshot")
    snap.add_argument("--warm-cycles", type=int, default=None,
                      metavar="CYCLES",
                      help="snapshot at this cycle (default: probe a "
                           "straight run and use --warm-frac of it)")
    snap.add_argument("--warm-frac", type=float, default=0.85,
                      help="snapshot point as a fraction of the straight "
                           "run (default: 0.85)")
    snap.add_argument("--sweep-from-snapshot", default=None,
                      metavar="PATH.ckpt",
                      help="fork this snapshot into every --sweep-grid "
                           "point and print one result line per point")
    snap.add_argument("--sweep-grid", action="append", default=[],
                      metavar="FIELD=V1,V2",
                      help="fork-safe override values (repeatable; "
                           "dram.* targets DRAM timing)")
    args = parser.parse_args(argv)
    if args.write_snapshot or args.sweep_from_snapshot:
        return _snapshot_mode(parser, args)
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
