"""Snapshot-fork sweep vs N straight runs: the warm-start payoff.

A parameter sweep over fork-safe knobs re-simulates the same warmup for
every point when run straight. The snapshot-fork sweep
(:mod:`repro.harness.sweep`) pays it once: warm one model to
``WARM_FRAC`` of the run, save the snapshot, then fork it into each
grid point — restore, apply overrides, simulate only the post-warmup
tail.

The workload is the regime warm-start sweeps exist for: a chase-heavy
Widx index (32-entry average bucket chains, 30% probe misses walking
full chains), where warmup burns many cycles per byte of retained
state. Uniform shallow profiles spend proportionally more snapshot
bytes per simulated cycle and undersell the machinery; the committed
record documents the workload shape it measured.

Two gated metrics, one record:

* ``speedup`` — wall time of ``POINTS`` straight runs (overrides
  applied at build) over warm-once + save + ``POINTS`` × (restore +
  tail). Must clear the issue's ≥3x bar at 8 points.
* ``save_restore_overhead_x`` — total snapshot machinery cost (the one
  save plus every restore) over the total warmup the sweep replaced
  (``points`` × the warmup each fork skips). Must stay ≤ 0.10: the
  machinery costs at most 10% of what it saves.

Run standalone to emit ``BENCH_ckpt.json``::

    PYTHONPATH=src python benchmarks/bench_checkpoint_sweep.py --out BENCH_ckpt.json

Under pytest the module asserts both bars (set ``REPRO_BENCH_SMOKE=1``
for a direction-only smoke run, as CI does on shared runners).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from repro.harness.profiles import get_profile
from repro.sim import checkpoint as ck
from repro.svc.service import sweep_specs

DSA = "widx"
WARM_FRAC = 0.9
#: chase-heavy index: 16384 keys over 512 buckets = 32-deep chains
WORKLOAD = dict(num_keys=16384, num_probes=2048, num_buckets=512,
                skew=1.1, miss_fraction=0.3, seed=7)
#: 8-point fork-safe grid (the issue's sweep size)
GRID = {"num_exe": [2, 4], "dram.t_cl": [8, 11], "hit_latency": [1, 2]}
SPEEDUP_FLOOR = 3.0            # acceptance bar from the issue
OVERHEAD_CEIL = 0.10           # save+restore ≤ 10% of warmup replaced
SMOKE_ENV = "REPRO_BENCH_SMOKE"


def _build(overrides=None):
    """A chase-heavy Widx model, overrides applied at build (the
    straight-run comparator — mirrors harness.sweep.build_model)."""
    from repro.core.messages import reset_ids
    from repro.dsa.widx import WidxXCacheModel
    from repro.mem.dram import DRAMConfig
    from repro.workloads.tpch import make_widx_workload

    xc, dr = {}, {}
    for key, value in (overrides or {}).items():
        if key.startswith("dram."):
            dr[key[len("dram."):]] = value
        else:
            xc[key] = value
    config = replace(get_profile("quick").xcache_config(DSA), **xc)
    reset_ids()
    return WidxXCacheModel(make_widx_workload(**WORKLOAD), config=config,
                           dram_config=replace(DRAMConfig(), **dr))


def drive_straight(points) -> float:
    """Wall time of one full straight run per sweep point."""
    start = time.perf_counter()
    for overrides in points:
        result = _build(overrides).run()
        assert result.checks_passed
    return time.perf_counter() - start


def drive_sweep(points, snapshot_path: str) -> dict:
    """Warm once, snapshot, fork into every point; all times split out.

    The probe run that locates the warm point is calibration, not sweep
    cost (a real warm-start workflow knows its snapshot cycle), so the
    timed region starts at the warmup.
    """
    total_cycles = _build().run().cycles
    warm_cycles = max(1, int(total_cycles * WARM_FRAC))
    t0 = time.perf_counter()
    model = _build()
    ck.warm_model(model, warm_cycles)
    warm_s = time.perf_counter() - t0

    save_start = time.perf_counter()
    ck.save_model(snapshot_path, model)
    save_s = time.perf_counter() - save_start
    del model

    restore_s = 0.0
    tail_s = 0.0
    for overrides in points:
        t1 = time.perf_counter()
        restored, _header = ck.load_model(snapshot_path,
                                          overrides=dict(overrides) or None)
        t2 = time.perf_counter()
        result = ck.finish_model(restored)
        tail_s += time.perf_counter() - t2
        restore_s += t2 - t1
        assert result.checks_passed
    return {
        "total_s": time.perf_counter() - t0,
        "warm_s": warm_s,
        "save_s": save_s,
        "restore_s": restore_s,
        "tail_s": tail_s,
        "warm_cycles": warm_cycles,
        "total_cycles": total_cycles,
    }


def compare(out_dir: str = ".") -> dict:
    points = [dict(spec.fork_overrides)
              for spec in sweep_specs(f"ckpt:{DSA}", grid=GRID)]
    snapshot_path = os.path.join(out_dir, f"bench_warm_{DSA}.ckpt")
    try:
        sweep = drive_sweep(points, snapshot_path)
        straight_s = drive_straight(points)
    finally:
        if os.path.exists(snapshot_path):
            os.remove(snapshot_path)
    n = len(points)
    mean_restore = sweep["restore_s"] / n
    # total machinery cost over the total warmup it replaced: each of
    # the n forks skips one warmup, paying one restore plus 1/n of the
    # single save
    overhead_x = (sweep["save_s"] + sweep["restore_s"]) / (n * sweep["warm_s"])
    return {
        "benchmark": "checkpoint_sweep",
        "dsa": DSA,
        "workload": "chase{num_keys}x{num_buckets}-p{num_probes}".format(
            **WORKLOAD),
        "points": n,
        "warm_frac": WARM_FRAC,
        "straight_s": round(straight_s, 3),
        "sweep_s": round(sweep["total_s"], 3),
        "warm_s": round(sweep["warm_s"], 3),
        "save_s": round(sweep["save_s"], 4),
        "mean_restore_s": round(mean_restore, 4),
        "tail_s": round(sweep["tail_s"], 3),
        "speedup": round(straight_s / sweep["total_s"], 2),
        "save_restore_overhead_x": round(overhead_x, 4),
    }


def test_snapshot_sweep_speedup(tmp_path):
    """8 post-warmup points run ≥3x faster forked than straight, and
    the snapshot machinery costs ≤10% of the warmup it replaces."""
    smoke = bool(os.environ.get(SMOKE_ENV))
    result = compare(str(tmp_path))
    print()
    print(json.dumps(result, indent=2))
    assert result["points"] == 8
    if smoke:
        assert result["speedup"] > 1.0        # direction, not magnitude
    else:
        assert result["speedup"] >= SPEEDUP_FLOOR, result
        assert result["save_restore_overhead_x"] <= OVERHEAD_CEIL, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="write the result record as JSON here")
    args = parser.parse_args(argv)
    result = compare()
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
