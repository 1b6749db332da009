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

Exit status: 0 when every swept point passed its checks (``history``:
the ledger was read); 1 when a swept point failed its checks or failed
to run (one ``FAILED`` line per such point; the sweep still waits for
the others and prints its summary line); 2 for a
usage error, such as an unknown experiment or grid field, a spec the
service would refuse, a ``--warmup-snapshot`` of another DSA's model,
a ``ckpt:``-only option (``--warmup-snapshot``, ``--warm-cycles``,
``--warm-frac``, ``--checkpoint-every``, ``--checkpoint-dir``) given to
another experiment, ``--warm-cycles``/``--warm-frac`` without
``--warmup-snapshot``, both of them together, either of them when the
``--warmup-snapshot`` file already exists (the warm options only say
how to write a snapshot: re-run without them to fork it), or a ledger
that cannot be read. A bad ``sweep`` command line fails before any
warmup snapshot is written or worker started.

Each result line names its grid point by the job's overrides. A
``ckpt:<dsa>`` line also names the snapshot the job forked and carries
the point's simulated numbers (here ``ckpt:widx --profile quick
--warmup-snapshot warm.ckpt --grid num_exe=2,4``)::

    [1f54d13e8ac9] == ckpt:widx WidxXCacheModel @cycle 20717 (snapshot
    1c7efa01f785) == num_exe=2: cycles=24373 hits=7058 misses=1084
    dram=3308 checks=ok all_ok=True (ran)

A coalesced repeat shares its leader's job, so it prints no line of
its own; the summary line counts it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import List, Optional

from .jobs import JobFailed, JobSpec
from .service import Service, sweep_specs, validate_spec

PROFILES = ("ci", "quick", "full")


def _capture_from_args(args):
    if not args.events:
        return None
    from ..obs.capture import CaptureSpec

    return CaptureSpec(events_path=args.events, job_scoped=True)


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


def _sweep_specs(args) -> List[JobSpec]:
    """The specs of one ``sweep`` command line, each checked by
    :func:`~repro.svc.service.validate_spec` before anything is built.

    For ``ckpt:<dsa>`` the ``--grid`` fields are *fork overrides*,
    checked against the fork-safe whitelist. With ``--warmup-snapshot``
    the warmup then runs **once** — locally, before any submit — and
    every job forks the same snapshot, identified in its digest by
    snapshot content + overrides; an existing snapshot must hold the
    DSA's X-Cache model. Raises :class:`ValueError` or
    :class:`~repro.sim.checkpoint.SnapshotError` for bad input.
    """
    from ..harness.sweep import parse_grid_entries

    specs = sweep_specs(args.experiment, args.profile,
                        grid=parse_grid_entries(args.grid),
                        repeat=args.repeat,
                        capture=_capture_from_args(args), tag=args.tag,
                        snapshot=args.warmup_snapshot,
                        checkpoint_every=args.checkpoint_every,
                        checkpoint_dir=args.checkpoint_dir)
    for spec in specs:
        validate_spec(spec)
    snapshot = args.warmup_snapshot
    if args.experiment.startswith("ckpt:") and snapshot:
        from ..harness.sweep import SWEEP_MODEL_CLASSES, write_warm_snapshot
        from ..sim.checkpoint import read_header

        dsa = args.experiment.split(":", 1)[1]
        if os.path.exists(snapshot):
            header = read_header(snapshot)
            if header["model_class"] != SWEEP_MODEL_CLASSES[dsa]:
                raise ValueError(
                    f"warmup snapshot {snapshot} holds a "
                    f"{header['model_class']}, not the "
                    f"{SWEEP_MODEL_CLASSES[dsa]} {args.experiment} forks")
        else:
            header = write_warm_snapshot(
                snapshot, dsa, args.profile,
                warm_cycles=args.warm_cycles, warm_frac=args.warm_frac)
            print(f"warmup snapshot: {snapshot} "
                  f"cycle={header['cycle']} "
                  f"digest={header['payload_sha256'][:12]}")
        specs = [replace(s, snapshot_digest=header["payload_sha256"])
                 for s in specs]
    return specs


def _point_label(spec: JobSpec) -> str:
    """The grid point ``spec`` runs: its fork (``ckpt:``) or profile
    overrides, ``key=value`` joined by commas ("" when it has none)."""
    overrides = spec.fork_overrides or spec.profile_overrides
    return ",".join(f"{key}={value}" for key, value in sorted(overrides))


def _cmd_sweep(args, specs: List[JobSpec]) -> int:
    print(f"sweep: {len(specs)} submissions "
          f"({len(specs) // args.repeat} distinct points)")
    with Service(workers=args.workers,
                 store=args.store or "memory") as svc:
        # a coalesced repeat is its leader's Job: one line per job
        jobs = list(dict.fromkeys(svc.submit(spec) for spec in specs))
        ok = True
        for job in jobs:
            point = _point_label(job.spec)
            point = f" {point}" if point else ""
            try:
                payload = job.result()
            except JobFailed as exc:
                # one line per failed point; the sweep waits for the rest
                reason = str(exc).strip().splitlines()[-1]
                print(f"[{job.digest[:12]}] {job.spec.experiment}{point} "
                      f"FAILED: {reason}")
                ok = False
                continue
            lines = payload["rendered"].splitlines()
            # a ckpt: report is its header and one "point: numbers" line
            summary = (f"{lines[0]} {lines[1].strip()}"
                       if job.spec.experiment.startswith("ckpt:")
                       else lines[0] + point)
            origin = "store" if job.from_store else "ran"
            if job.followers:
                origin += f", +{job.followers} coalesced"
            meta = payload.get("metadata") or {}
            if meta.get("checkpoints"):
                origin += f", checkpoints={meta['checkpoints']}"
            if meta.get("resumed_from"):
                origin += f", resumed_from={meta['resumed_from']}"
            print(f"[{job.digest[:12]}] {summary} "
                  f"all_ok={payload['all_ok']} ({origin})")
            ok = ok and payload["all_ok"]
        metrics = svc.metrics()
    store = metrics.get("store") or {}
    print(f"submitted={metrics['submitted']} "
          f"completed={metrics['completed']} "
          f"coalesced={metrics['coalesced']} "
          f"store_hits={metrics['store_hits']} "
          f"simulations={store.get('stores', 'n/a')} "
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
                       help="profile field values to sweep, or for "
                            "ckpt:<dsa> fork-safe config fields (dram.* "
                            "for DRAM timing) (repeatable)")
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
                       help="(ckpt:<dsa> with a missing "
                            "--warmup-snapshot file) snapshot point of "
                            "the warmup it writes (default: probe a "
                            "straight run)")
    sweep.add_argument("--warm-frac", type=float, default=None,
                       dest="warm_frac",
                       help="(ckpt:<dsa> with a missing "
                            "--warmup-snapshot file, not with "
                            "--warm-cycles) warmup fraction of the "
                            "probed straight run (default: 0.85)")
    sweep.add_argument("--checkpoint-every", type=int, default=0,
                       dest="checkpoint_every", metavar="CYCLES",
                       help="(ckpt:<dsa> only) preemption hint: persist "
                            "a resume checkpoint every N simulated "
                            "cycles (0 = never)")
    sweep.add_argument("--checkpoint-dir", default=None,
                       dest="checkpoint_dir", metavar="DIR",
                       help="(ckpt:<dsa> only) where resume "
                            "checkpoints live (required when "
                            "--checkpoint-every > 0)")

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

    args = parser.parse_args(argv)
    if args.command == "history":
        if args.limit < 0:
            history.error("--limit must be >= 0")
        return _cmd_history(args)
    if args.workers < 1:
        sweep.error("--workers must be >= 1")
    if args.repeat < 1:
        sweep.error("--repeat must be >= 1")
    if args.checkpoint_every < 0:
        sweep.error("--checkpoint-every must be >= 0")
    if args.warm_cycles is not None and args.warm_cycles < 1:
        sweep.error("--warm-cycles must be >= 1")
    ckpt_options = [flag for flag, value in (
        ("--warmup-snapshot", args.warmup_snapshot),
        ("--warm-cycles", args.warm_cycles),
        ("--warm-frac", args.warm_frac),
        ("--checkpoint-every", args.checkpoint_every or None),
        ("--checkpoint-dir", args.checkpoint_dir)) if value is not None]
    if ckpt_options and not args.experiment.startswith("ckpt:"):
        sweep.error(f"{ckpt_options[0]} is only for a ckpt:<dsa> sweep")
    warm_options = [flag for flag in ("--warm-cycles", "--warm-frac")
                    if flag in ckpt_options]
    if warm_options and args.warmup_snapshot is None:
        sweep.error(f"{warm_options[0]} needs --warmup-snapshot")
    if len(warm_options) == 2:
        sweep.error("give --warm-cycles or --warm-frac, not both")
    if warm_options and os.path.exists(args.warmup_snapshot):
        sweep.error(f"{warm_options[0]} only sets how a warmup snapshot is "
                    f"written, and {args.warmup_snapshot} exists: re-run "
                    f"without it to fork that snapshot")
    from ..sim.checkpoint import SnapshotError

    try:
        specs = _sweep_specs(args)
    except (SnapshotError, ValueError) as exc:
        sweep.error(str(exc))
    return _cmd_sweep(args, specs)


if __name__ == "__main__":
    sys.exit(main())
