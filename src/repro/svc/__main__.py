"""CLI: ``python -m repro.svc <sweep|history>``.

``sweep`` starts a private in-process service, fans a parameter grid
into jobs, and prints per-point results plus the dedup counters::

    $ python -m repro.svc sweep fig04 --profile ci --workers 2 \\
          --grid widx_skew=1.2,1.4 --repeat 2

``--repeat 2`` resubmits every grid point; the metrics line at the end
shows the second copies resolving from coalescing/the result store
instead of simulating again. With ``$REPRO_SVC_LEDGER`` set, every
finished job appends a line to that run ledger, which ``history``
replays as a table::

    $ REPRO_SVC_LEDGER=runs.jsonl python -m repro.svc sweep fig04 \\
          --events t.jsonl
    $ python -m repro.svc history --ledger runs.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .jobs import JobSpec
from .service import Service, sweep_specs

PROFILES = ("ci", "quick", "full")


def _capture_from_args(args):
    if not args.events:
        return None
    from ..obs.capture import CaptureSpec

    return CaptureSpec(events_path=args.events, job_scoped=True)


def _parse_grid(pairs: List[str]) -> dict:
    """``--grid field=v1,v2`` strings → {field: [typed values]}."""
    from ..harness.sweep import parse_grid_entries

    try:
        return parse_grid_entries(pairs)
    except ValueError as exc:
        raise SystemExit(f"--grid: {exc}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_history(args) -> int:
    from .telemetry import LEDGER_ENV, RunLedger, format_history

    path = args.ledger or os.environ.get(LEDGER_ENV)
    if not path:
        print(f"history: no ledger (give --ledger or set {LEDGER_ENV})",
              file=sys.stderr)
        return 2
    try:
        entries = RunLedger.read(path)
    except OSError as exc:
        print(f"history: cannot read ledger {path}: {exc.strerror}",
              file=sys.stderr)
        return 2
    if args.limit:
        entries = entries[-args.limit:]
    if args.json:
        for entry in entries:
            print(json.dumps(entry, sort_keys=True))
    else:
        print(format_history(entries))
    return 0


def _ckpt_sweep_specs(args) -> List[JobSpec]:
    """``sweep ckpt:<dsa>`` specs: one snapshot-fork job per grid point.

    The ``--grid`` fields are *fork overrides* (validated against the
    checkpoint fork-safe whitelist up front, so a geometry-changing
    field dies here with a clear message, not as N FAILED jobs). With
    ``--warmup-snapshot`` the warmup runs **once** — locally, before
    any submit — and every job forks the same snapshot, identified in
    its digest by snapshot content + overrides.
    """
    from ..harness.sweep import (
        SWEEP_DSAS,
        sweep_points,
        write_warm_snapshot,
    )
    from ..sim.checkpoint import SnapshotError, snapshot_digest

    dsa = args.experiment.split(":", 1)[1]
    if dsa not in SWEEP_DSAS:
        raise SystemExit(f"unknown ckpt dsa {dsa!r}; have {SWEEP_DSAS}")
    try:
        grid = _parse_grid(args.grid)
        points = sweep_points(grid) if grid else [{}]
        snapshot, digest = args.warmup_snapshot, None
        if snapshot:
            if not os.path.exists(snapshot):
                header = write_warm_snapshot(
                    snapshot, dsa, args.profile,
                    warm_cycles=args.warm_cycles,
                    warm_frac=args.warm_frac)
                print(f"warmup snapshot: {snapshot} "
                      f"cycle={header['cycle']} "
                      f"digest={header['payload_sha256'][:12]}")
            digest = snapshot_digest(snapshot)
    except (SnapshotError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    specs = [JobSpec(experiment=args.experiment, profile=args.profile,
                     fork_overrides=tuple(sorted(point.items())),
                     snapshot=snapshot, snapshot_digest=digest,
                     checkpoint_every=args.checkpoint_every,
                     checkpoint_dir=args.checkpoint_dir,
                     capture=_capture_from_args(args),
                     tag=args.tag)
             for point in points]
    return [s for _ in range(max(1, args.repeat)) for s in specs]


def _cmd_sweep(args) -> int:
    if args.experiment.startswith("ckpt:"):
        specs = _ckpt_sweep_specs(args)
    else:
        specs = sweep_specs(args.experiment, args.profile,
                            grid=_parse_grid(args.grid),
                            repeat=args.repeat,
                            capture=_capture_from_args(args),
                            tag=args.tag)
    print(f"sweep: {len(specs)} submissions "
          f"({len(specs) // max(1, args.repeat)} distinct points)")
    with Service(workers=args.workers, store=args.store or "memory",
                 max_pending=len(specs) + 1) as svc:
        jobs = [svc.submit(spec) for spec in specs]
        ok = True
        for job in jobs:
            payload = job.result()
            first_line = payload["rendered"].splitlines()[0]
            origin = "store" if job.from_store else "ran"
            if job.followers:
                origin += f", +{job.followers} coalesced"
            meta = payload.get("metadata") or {}
            if meta.get("checkpoints"):
                origin += f", checkpoints={meta['checkpoints']}"
            if meta.get("resumed_from"):
                origin += f", resumed_from={meta['resumed_from']}"
            print(f"[{job.digest[:12]}] {first_line} "
                  f"all_ok={payload['all_ok']} ({origin})")
            ok = ok and payload["all_ok"]
        metrics = svc.metrics()
    store = metrics.get("store") or {}
    print(f"submitted={metrics['submitted']} "
          f"completed={metrics['completed']} "
          f"coalesced={metrics['coalesced']} "
          f"store_hits={metrics['store_hits']} "
          f"simulations={store.get('misses', 'n/a')} "
          f"worker_restarts={metrics['worker_restarts']}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.svc",
        description="Sweep experiments through an in-process simulation "
                    "service (job queue, warm worker pool, "
                    "content-addressed result store) and replay its run "
                    "ledger.")
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser(
        "sweep", help="fan a parameter grid into jobs")
    sweep.add_argument("experiment",
                       help="harness id (fig04, tab01, ...), sleep:<s>, "
                            "or ckpt:<dsa> (checkpointable DSA run — "
                            "snapshot forks + preemption)")
    sweep.add_argument("--profile", default="ci", choices=PROFILES)
    sweep.add_argument("--tag", default="",
                       help="free-form label recorded in the run ledger")
    sweep.add_argument("--events", default=None, metavar="PATH.jsonl",
                       help="capture each job's obs events to per-job "
                            "JSONL files (recorded in the run ledger "
                            "for explain --ledger)")
    sweep.add_argument("--grid", action="append", default=[],
                       metavar="FIELD=V1,V2",
                       help="profile field values to sweep (repeatable)")
    sweep.add_argument("--repeat", type=int, default=1,
                       help="submit the whole grid N times (dedup demo)")
    sweep.add_argument("--workers", type=int, default=2,
                       help="worker processes (default: 2)")
    sweep.add_argument("--store", default=None, metavar="DIR",
                       help="persist results under DIR (default: memory)")
    sweep.add_argument("--warmup-snapshot", default=None,
                       dest="warmup_snapshot", metavar="PATH.ckpt",
                       help="(ckpt:<dsa> only) fork every grid point "
                            "from this snapshot; written first — one "
                            "warmup total — if the file is missing")
    sweep.add_argument("--warm-cycles", type=int, default=None,
                       dest="warm_cycles", metavar="CYCLES",
                       help="snapshot point when writing the warmup "
                            "(default: probe a straight run)")
    sweep.add_argument("--warm-frac", type=float, default=0.85,
                       dest="warm_frac",
                       help="warmup fraction of the probed straight "
                            "run (default: 0.85)")
    sweep.add_argument("--checkpoint-every", type=int, default=0,
                       dest="checkpoint_every", metavar="CYCLES",
                       help="(ckpt:<dsa> only) preemption hint: persist "
                            "a resume checkpoint every N simulated "
                            "cycles (0 = never)")
    sweep.add_argument("--checkpoint-dir", default=None,
                       dest="checkpoint_dir", metavar="DIR",
                       help="where resume checkpoints live (required "
                            "when --checkpoint-every > 0)")
    sweep.set_defaults(func=_cmd_sweep)

    history = commands.add_parser(
        "history", help="replay a service run ledger")
    history.add_argument("--ledger", default=None, metavar="PATH.jsonl",
                         help="the ledger file (default: the "
                              "REPRO_SVC_LEDGER environment variable)")
    history.add_argument("--limit", type=int, default=0, metavar="N",
                         help="only the last N entries (0 = all)")
    history.add_argument("--json", action="store_true",
                         help="one JSON entry per line instead of the "
                              "table")
    history.set_defaults(func=_cmd_history)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
