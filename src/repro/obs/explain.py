"""Explain *why a request was slow* (``python -m repro.obs.explain``).

Replays a JSONL event trace through the same
:class:`~repro.obs.capture.Capture` a live span capture arms, so it
prints exactly the why-slow section (and, with ``--misses``, the
why-miss section) that the live capture appended to its report, and
``--json`` writes the live ``--spans`` file byte for byte::

    python -m repro.harness fig04 --profile ci --events t.jsonl --misses
    python -m repro.obs.explain t.fig04.jsonl --top 3 --misses \\
        --json s.json --suite fig04

Each record's ``run`` stamp names the system that published it. The
replay arms one bus per ``run`` the first time that run appears, as
the live capture armed one per system it built, so components that
several systems share merge exactly as they did live. A record with
no ``run`` counts as run 0. A live run explains itself with ``python
-m repro.harness EXP --explain-top K [--misses] [--spans PATH]``.

**Ledger** mode drills a *service job* down to its simulated critical
path: it looks a ``job_id`` up in a ``repro.svc`` run ledger and
replays the per-job event capture its entry points at::

    REPRO_SVC_LEDGER=runs.jsonl python -m repro.svc sweep fig04 \\
        --events t.jsonl
    python -m repro.obs.explain --ledger runs.jsonl --job 3

The header shows the job's host-time latency split (queue_wait /
dispatch / sim_exec / store_write) before the in-sim blame table —
one command crosses the service/simulation boundary.

Either way the output is the per-DSA blame table (which bucket of
{hit_path, sched_wait, exec, dram, queue_stall} owns the request
cycles) followed by a drill-down of the K slowest requests: arrival,
admission stalls, each walk episode with its phase timeline and DRAM
children, and the exact blame split — the numbers sum to the request's
latency by construction. ``--misses`` adds the *why-miss* half
(``repro.obs.cachelens``): every miss classified compulsory / capacity
/ conflict, would-have-hit-if shadow counters, and reuse-distance
histograms (the trace carries the cache events when it was captured
armed). ``--json`` writes the machine-readable summary the SLO gate
(``python -m repro.obs.regress --slo``) consumes; with ``--misses``
each component entry also carries ``hit_rate`` and ``conflict_share``
for the cache-contents SLO budgets.

Exit status: 0 when every request's blame conserves, 1 when one does
not, 2 when the ledger, the job or its event trace cannot be read, or
a trace line is not a JSON object or carries a ``run`` that is not a
non-negative integer (one stderr line, naming the path).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, Optional, Tuple

from .bus import EventBus
from .capture import Capture, CaptureSpec
from .critpath import BLAME_BUCKETS, CritPathAggregator
from .events import Event, event_from_json
from .spans import RequestSpan

__all__ = [
    "format_drilldown",
    "explain_report",
    "slo_summary",
    "main",
]


def _read_events(path: str) -> Iterator[Tuple[int, Event]]:
    """Yield ``(run, event)`` for each record of a JSONL trace.

    Unknown wire names — records from a newer taxonomy — are skipped,
    not fatal. A line that is not a JSON object (a capture killed
    mid-write leaves a torn last line), or whose ``run`` is not a
    non-negative integer, raises ``ValueError`` naming the path and
    the line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not isinstance(record, dict):
                raise ValueError(
                    f"line {lineno} of {path} is not a JSON object")
            run = record.get("run", 0)
            if type(run) is not int or run < 0:
                raise ValueError(
                    f"line {lineno} of {path} has run {run!r}, not a "
                    f"non-negative integer")
            try:
                event = event_from_json(record)
            except KeyError:
                continue
            yield run, event


def _blame_line(blame: Dict[str, int]) -> str:
    total = sum(blame.values())
    parts = []
    for bucket in BLAME_BUCKETS:
        cycles = blame.get(bucket, 0)
        if not cycles:
            continue
        share = 100.0 * cycles / total if total else 0.0
        parts.append(f"{bucket}={cycles} ({share:.1f}%)")
    return " | ".join(parts) if parts else "(zero latency)"


def format_drilldown(span: RequestSpan, blame: Dict[str, int],
                     rank: Optional[int] = None) -> str:
    """Multi-line why-slow story for one completed request."""
    head = f"#{rank} " if rank is not None else ""
    lines = [
        (f"{head}req {span.req_id} ({span.op} tag={span.tag} "
         f"@ {span.component}) — {span.latency} cycles, "
         f"outcome={span.outcome}"),
        f"    blame: {_blame_line(blame)}",
    ]
    stalls = (f"  ({span.stall_cycles} admission-stall cycles)"
              if span.stall_cycles else "")
    lines.append(f"    arrive @{span.arrive}{stalls}")
    if span.outcome in ("hit", "nowalk"):
        verb = ("answered by the pipelined read port"
                if span.outcome == "hit"
                else "answered not-found without a walk")
        lines.append(f"    {verb} @{span.close} "
                     f"(load-to-use {span.load_to_use})")
    for ep in span.episodes:
        walk = ep.walk
        left = ep.left if ep.left >= 0 else span.close
        lines.append(
            f"    walk {walk.walk_id} join @{ep.join} as {ep.role}: "
            f"retired @{left} found={walk.found} "
            f"routines={walk.routines} fills={walk.fills}")
        phases = walk.phase_cycles()
        if phases:
            lines.append("      phases: " + " ".join(
                f"{kind}={phases[kind]}"
                for kind in ("sched_wait", "exec", "dram_wait",
                             "event_wait") if kind in phases))
        if walk.dram:
            reads = [d for d in walk.dram if not d.is_write]
            writes = len(walk.dram) - len(reads)
            row_hits = sum(1 for d in reads if d.row_result == "row_hits")
            first = min(d.issue for d in walk.dram)
            last = max(d.complete for d in walk.dram)
            detail = f"      dram: {len(reads)} reads ({row_hits} row hits)"
            if writes:
                detail += f", {writes} writes"
            lines.append(f"{detail} spanning @{first}..@{last}")
    return "\n".join(lines)


def explain_report(agg: CritPathAggregator, top: Optional[int] = None) -> str:
    """Full text report: header, blame table, top-K drilldowns.

    ``top`` caps the drilldown count (``0`` = table only, ``None`` =
    everything the aggregator kept).
    """
    from repro.harness.report import why_slow_table

    status = ("ok" if agg.conservation_ok
              else f"{len(agg.mismatches)} PROBLEMS")
    lines = [
        "-- why-slow (repro.obs.critpath) --",
        f"requests={agg.requests} conservation={status}",
    ]
    for problem in agg.mismatches[:10]:
        lines.append(f"  !! {problem}")
    table = why_slow_table(agg.summary_dict())
    if table:
        lines.append(table)
    slowest = agg.slowest()
    if top is not None:
        slowest = slowest[:top]
    if slowest:
        lines.append(f"slowest {len(slowest)} request(s):")
        for rank, (span, blame) in enumerate(slowest, start=1):
            lines.append(format_drilldown(span, blame, rank))
    return "\n".join(lines)


def slo_summary(agg: CritPathAggregator, suite: str,
                lens: Optional[Dict[str, dict]] = None) -> dict:
    """The machine-readable summary ``repro.obs.regress --slo`` reads.

    With a why-miss ``lens`` summary, each component the lens observed
    also carries its ``hit_rate`` and ``conflict_share``, so the gate
    can budget cache health next to latency percentiles.
    """
    components = agg.summary_dict()
    for name, comp in components.items():
        entry = (lens or {}).get(name)
        if entry is not None:
            comp["hit_rate"] = entry["hit_rate"]
            comp["conflict_share"] = entry["conflict_share"]
    return {"suite": suite, "components": components}


def format_job_header(entry: dict) -> str:
    """The service-side half of a ledger drilldown: who ran the job,
    where its wall-clock time went."""
    timings = entry.get("timings") or {}
    split = " ".join(
        f"{key}={timings.get(key, 0):.3f}s"
        for key in ("queue_wait", "dispatch", "sim_exec", "store_write"))
    workers = ",".join(str(w) for w in entry.get("worker_history", ()))
    lines = [
        (f"-- service job {entry.get('job')} "
         f"({entry.get('experiment')}/{entry.get('profile')}) "
         f"state={entry.get('state')} --"),
        (f"digest={str(entry.get('digest', ''))[:12]} "
         f"workers=[{workers or '-'}] "
         f"attempts={entry.get('attempts', 0)}"),
        f"host time: end_to_end={timings.get('end_to_end', 0):.3f}s "
        f"({split})",
    ]
    for retry in entry.get("retries", ()):
        lines.append(f"  retry: worker {retry.get('worker')} died "
                     f"(exitcode={retry.get('exitcode')}, "
                     f"lost {retry.get('lost_s', 0):.3f}s)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.explain",
        description="Replay a captured event trace through the span "
                    "capture: critical-path why-slow (and why-miss) "
                    "analysis.")
    parser.add_argument("events", nargs="?", default=None,
                        metavar="PATH.jsonl",
                        help="JSONL event trace to replay "
                             "(from --events captures)")
    parser.add_argument("--ledger", default=None, metavar="LEDGER.jsonl",
                        help="repro.svc run ledger to resolve --job in")
    parser.add_argument("--job", type=int, default=None, metavar="ID",
                        help="service job id to drill into (needs "
                             "--ledger; replays the job's recorded "
                             "event capture)")
    parser.add_argument("--top", type=int, default=5, metavar="K",
                        help="slowest requests to drill into "
                             "(default: 5)")
    parser.add_argument("--misses", action="store_true",
                        help="append the why-miss analysis (miss "
                             "taxonomy, would-hit-if shadows, reuse "
                             "distances)")
    parser.add_argument("--json", default=None, metavar="PATH.json",
                        help="also write the SLO-gate summary JSON")
    parser.add_argument("--suite", default=None,
                        help="suite label for --json (default: the "
                             "trace file name, or job<ID> with "
                             "--ledger)")
    args = parser.parse_args(argv)
    if args.top < 0:
        parser.error("--top must be >= 0")
    if (args.ledger is None) != (args.job is None):
        parser.error("--ledger and --job go together")
    if (args.events is None) == (args.ledger is None):
        parser.error("give exactly one of PATH.jsonl or --ledger/--job")

    if args.ledger is not None:
        from repro.svc.telemetry import RunLedger

        try:
            entry = RunLedger.find_job(args.ledger, args.job)
        except OSError as exc:
            print(f"cannot read ledger {args.ledger}: {exc.strerror}",
                  file=sys.stderr)
            return 2
        if entry is None:
            print(f"job {args.job} not found in {args.ledger}",
                  file=sys.stderr)
            return 2
        print(format_job_header(entry))
        events_path = (entry.get("capture") or {}).get("events")
        if events_path is None:
            print("(no event capture recorded for this job — submit "
                  "with --events to enable the in-sim drilldown)",
                  file=sys.stderr)
            return 2
        suite = args.suite or f"job{args.job}"
    else:
        events_path = args.events
        suite = args.suite or events_path.rsplit("/", 1)[-1]

    capture = Capture(CaptureSpec(spans=True, explain_top=args.top,
                                  misses=args.misses, spans_path=args.json,
                                  exp_id=suite))
    buses: Dict[int, EventBus] = {}
    try:
        for run, event in _read_events(events_path):
            bus = buses.get(run)
            if bus is None:
                bus = buses[run] = EventBus()
                capture.attach(bus)
            bus.publish(event)
    except OSError as exc:
        print(f"cannot read events {events_path}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cannot read events {events_path}: {exc}",
              file=sys.stderr)
        return 2
    print(capture.finish())
    return 0 if capture.merged_critpath().conservation_ok else 1


if __name__ == "__main__":
    sys.exit(main())
