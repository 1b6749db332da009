"""CLI: ``python -m repro.svc <serve|submit|status|result|cancel|metrics|sweep|history|top>``.

Quickstart (two terminals)::

    $ python -m repro.svc serve --workers 2 --store /tmp/repro-results
    repro.svc listening on 127.0.0.1:41739 (2 workers)

    $ python -m repro.svc submit fig04 --profile ci \\
          --connect 127.0.0.1:41739 --wait
    $ python -m repro.svc metrics --connect 127.0.0.1:41739

Or all-in-one — ``sweep --local`` spins up a private service, fans a
parameter grid into jobs, and prints per-point results plus the dedup
counters::

    $ python -m repro.svc sweep fig04 --profile ci --local --workers 2 \\
          --grid widx_skew=1.2,1.4 --repeat 2

``--repeat 2`` resubmits every grid point; the metrics line at the end
shows the second copies resolving from coalescing/the result store
instead of simulating again.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from typing import List, Optional

from .jobs import AdmissionBusy, JobSpec
from .service import Service, sweep_specs

PROFILES = ("ci", "quick", "full")


def _capture_from_args(args):
    events = getattr(args, "events", None)
    if not events:
        return None
    from ..obs.capture import CaptureSpec

    return CaptureSpec(events_path=events, job_scoped=True)


def _spec_from_args(args, overrides=()) -> JobSpec:
    return JobSpec(experiment=args.experiment, profile=args.profile,
                   profile_overrides=tuple(overrides),
                   capture=_capture_from_args(args),
                   priority=getattr(args, "priority", 0),
                   stream_interval=getattr(args, "stream_interval", 0),
                   tag=getattr(args, "tag", ""))


def _client(args):
    from .client import ServiceClient, parse_address

    return ServiceClient(parse_address(args.connect))


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

def _cmd_serve(args) -> int:
    from .client import ServiceServer

    service = Service(workers=args.workers, store=args.store or "memory",
                      max_pending=args.max_pending,
                      ledger=args.ledger or "env").start(wait_ready=True)
    server = ServiceServer(service, host=args.host, port=args.port).start()
    host, port = server.address
    print(f"repro.svc listening on {host}:{port} "
          f"({args.workers} workers)", flush=True)
    metrics_server = None
    if args.metrics_port is not None:
        from .telemetry import MetricsHTTPServer

        metrics_server = MetricsHTTPServer(
            service.prometheus, host=args.host,
            port=args.metrics_port).start()
        print(f"metrics on http://{host}:{metrics_server.port}/metrics",
              flush=True)
    if service.ledger is not None:
        print(f"run ledger at {service.ledger.path}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        if metrics_server is not None:
            metrics_server.stop()
        server.stop()
        service.close()
    return 0


def _cmd_submit(args) -> int:
    client = _client(args)
    try:
        status = client.submit(_spec_from_args(args))
    except AdmissionBusy as busy:
        print(f"busy: {busy}", file=sys.stderr)
        return 2
    print(json.dumps(status, indent=1, sort_keys=True))
    if args.wait:
        payload = client.result(status["job"], timeout=args.timeout)
        print(payload["rendered"])
        return 0 if payload["all_ok"] else 1
    return 0


def _cmd_status(args) -> int:
    print(json.dumps(_client(args).status(args.job), indent=1,
                     sort_keys=True))
    return 0


def _cmd_result(args) -> int:
    payload = _client(args).result(args.job, timeout=args.timeout)
    print(payload["rendered"])
    return 0 if payload["all_ok"] else 1


def _cmd_cancel(args) -> int:
    cancelled = _client(args).cancel(args.job)
    print("cancelled" if cancelled else "already finished")
    return 0 if cancelled else 1


def _cmd_metrics(args) -> int:
    if args.prom:
        print(_client(args).metrics(prom=True)["prom"], end="")
    else:
        print(json.dumps(_client(args).metrics(), indent=1,
                         sort_keys=True))
    return 0


def _cmd_history(args) -> int:
    from .telemetry import RunLedger, format_history

    if args.ledger:
        entries = RunLedger.read(args.ledger)
    else:
        entries = _client(args).history(args.limit)
    if args.limit:
        entries = entries[-args.limit:]
    if args.json:
        for entry in entries:
            print(json.dumps(entry, sort_keys=True))
    else:
        print(format_history(entries))
    return 0


def _cmd_top(args) -> int:
    from .telemetry import render_top

    client = _client(args)
    previous, last = None, None
    frames = (range(args.iterations) if args.iterations
              else itertools.count())
    try:
        for index in frames:
            metrics = client.metrics()
            now = time.monotonic()
            dt = (now - last) if last is not None else 0.0
            sys.stdout.write(render_top(
                metrics, previous, dt, address=args.connect,
                color=sys.stdout.isatty(), clear=not args.no_clear))
            sys.stdout.flush()
            previous, last = metrics, now
            if not args.iterations or index < args.iterations - 1:
                time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
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
    import os

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
                     tag=getattr(args, "tag", ""))
             for point in points]
    return [s for _ in range(max(1, args.repeat)) for s in specs]


def _cmd_sweep(args) -> int:
    if args.experiment.startswith("ckpt:"):
        specs = _ckpt_sweep_specs(args)
    else:
        specs = sweep_specs(args.experiment, args.profile,
                            grid=_parse_grid(args.grid),
                            repeat=args.repeat,
                            capture=_capture_from_args(args))
    print(f"sweep: {len(specs)} submissions "
          f"({len(specs) // max(1, args.repeat)} distinct points)")
    if args.local:
        with Service(workers=args.workers, store=args.store or "memory",
                     max_pending=len(specs) + 1) as svc:
            jobs = [svc.submit(spec) for spec in specs]
            ok = _print_sweep(jobs, svc)
    else:
        client = _client(args)
        submitted = []
        for spec in specs:
            while True:
                try:
                    submitted.append(client.submit(spec))
                    break
                except AdmissionBusy as busy:  # pace to the hint
                    time.sleep(busy.retry_after)
        ok = True
        for status in submitted:
            payload = client.result(status["job"])
            point = status.get("digest", "")[:12]
            print(f"[{point}] {payload['rendered'].splitlines()[0]} "
                  f"all_ok={payload['all_ok']}")
            ok = ok and payload["all_ok"]
        _print_metrics(client.metrics())
    return 0 if ok else 1


def _print_sweep(jobs, svc) -> bool:
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
        print(f"[{job.digest[:12]}] {first_line} all_ok={payload['all_ok']} "
              f"({origin})")
        ok = ok and payload["all_ok"]
    _print_metrics(svc.metrics())
    return ok


def _print_metrics(metrics: dict) -> None:
    store = metrics.get("store") or {}
    print(f"submitted={metrics['submitted']} "
          f"completed={metrics['completed']} "
          f"coalesced={metrics['coalesced']} "
          f"store_hits={metrics['store_hits']} "
          f"simulations={store.get('misses', 'n/a')} "
          f"worker_restarts={metrics['worker_restarts']}")


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_connect(sub) -> None:
    sub.add_argument("--connect", default="127.0.0.1:7791",
                     metavar="HOST:PORT",
                     help="service address (default: 127.0.0.1:7791)")


def _add_spec_args(sub) -> None:
    sub.add_argument("experiment",
                     help="harness id (fig04, tab01, ...), sleep:<s>, "
                          "or ckpt:<dsa> (checkpointable DSA run — "
                          "snapshot forks + preemption)")
    sub.add_argument("--profile", default="ci", choices=PROFILES)
    sub.add_argument("--priority", type=int, default=0)
    sub.add_argument("--stream-interval", type=int, default=0,
                     dest="stream_interval", metavar="N",
                     help="forward every Nth obs event as progress")
    sub.add_argument("--tag", default="")
    sub.add_argument("--events", default=None, metavar="PATH.jsonl",
                     help="capture the job's obs events to per-job "
                          "JSONL files (worker-local paths; recorded "
                          "in the run ledger for explain --ledger)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.svc",
        description="Simulation-as-a-service: job queue, warm worker "
                    "pool, content-addressed result store.")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run a service")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="persist results under DIR (default: memory)")
    serve.add_argument("--max-pending", type=int, default=64)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7791,
                       help="0 picks an ephemeral port")
    serve.add_argument("--metrics-port", type=int, default=None,
                       dest="metrics_port", metavar="PORT",
                       help="serve Prometheus text on this port "
                            "(GET /metrics; 0 picks an ephemeral port)")
    serve.add_argument("--ledger", default=None, metavar="PATH.jsonl",
                       help="append-only run ledger (default: the "
                            "REPRO_SVC_LEDGER environment variable)")
    serve.set_defaults(func=_cmd_serve)

    submit = commands.add_parser("submit", help="submit one job")
    _add_spec_args(submit)
    _add_connect(submit)
    submit.add_argument("--wait", action="store_true",
                        help="block and print the rendered report")
    submit.add_argument("--timeout", type=float, default=None)
    submit.set_defaults(func=_cmd_submit)

    for name, func in (("status", _cmd_status), ("result", _cmd_result),
                       ("cancel", _cmd_cancel)):
        sub = commands.add_parser(name, help=f"{name} of one job")
        sub.add_argument("job", type=int)
        _add_connect(sub)
        if name == "result":
            sub.add_argument("--timeout", type=float, default=None)
        sub.set_defaults(func=func)

    metrics = commands.add_parser("metrics", help="service counters")
    _add_connect(metrics)
    metrics.add_argument("--prom", action="store_true",
                         help="print Prometheus text exposition "
                              "instead of JSON")
    metrics.set_defaults(func=_cmd_metrics)

    history = commands.add_parser(
        "history", help="replay the service run ledger")
    _add_connect(history)
    history.add_argument("--ledger", default=None, metavar="PATH.jsonl",
                         help="read this ledger file directly instead "
                              "of asking the service")
    history.add_argument("--limit", type=int, default=0, metavar="N",
                         help="only the last N entries (0 = all)")
    history.add_argument("--json", action="store_true",
                         help="one JSON entry per line instead of the "
                              "table")
    history.set_defaults(func=_cmd_history)

    top = commands.add_parser(
        "top", help="live terminal dashboard over the service")
    _add_connect(top)
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between polls (default: 1.0)")
    top.add_argument("--iterations", type=int, default=0, metavar="N",
                     help="render N frames then exit (0 = until ^C)")
    top.add_argument("--no-clear", action="store_true", dest="no_clear",
                     help="append frames instead of redrawing in place")
    top.set_defaults(func=_cmd_top)

    sweep = commands.add_parser(
        "sweep", help="fan a parameter grid into jobs")
    _add_spec_args(sweep)
    _add_connect(sweep)
    sweep.add_argument("--grid", action="append", default=[],
                       metavar="FIELD=V1,V2",
                       help="profile field values to sweep (repeatable)")
    sweep.add_argument("--repeat", type=int, default=1,
                       help="submit the whole grid N times (dedup demo)")
    sweep.add_argument("--local", action="store_true",
                       help="run a private in-process service")
    sweep.add_argument("--workers", type=int, default=2,
                       help="worker count for --local")
    sweep.add_argument("--store", default=None, metavar="DIR",
                       help="result-store directory for --local")
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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
