"""Explain *why a request was slow* (``python -m repro.obs.explain``).

Two modes:

* **Replay** — point it at a JSONL event trace captured earlier::

      python -m repro.harness fig04 --events t.jsonl
      python -m repro.obs.explain t.fig04.jsonl --top 5

  Records are rebuilt with :func:`~repro.obs.events.event_from_json`;
  the capture layer's ``run`` stamp keeps multi-system files separable
  (components are namespaced ``run{n}/`` exactly like the Perfetto
  exporter).

* **Live** — run an experiment under a span capture and explain it in
  one step::

      python -m repro.obs.explain --run fig04 --profile ci --top 3

* **Ledger** — drill a *service job* down to its simulated critical
  path: look a ``job_id`` up in a ``repro.svc`` run ledger and replay
  the per-job event capture its entry points at::

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
latency by construction.

``--misses`` adds the *why-miss* half (``repro.obs.cachelens``): every
miss classified compulsory / capacity / conflict, would-have-hit-if
shadow counters, and reuse-distance histograms — in any of the three
modes (replayed traces carry the cache events when captured armed, so
``explain t.fig04.jsonl --misses`` works offline).

``--json`` additionally writes the machine-readable summary the SLO
gate (``python -m repro.obs.regress --slo``) consumes; with
``--misses`` each component entry also carries ``hit_rate`` and
``conflict_share`` for the cache-contents SLO budgets.

Exit status: 0 when every request's blame conserves, 1 when one does
not, 2 when the ledger, the job or its event trace cannot be read or a
trace line is not a JSON object (one stderr line, naming the path).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, Optional, TextIO, Tuple

from .critpath import BLAME_BUCKETS, CritPathAggregator
from .events import Event, event_from_json
from .spans import RequestSpan, SpanAssembler

__all__ = [
    "replay_events",
    "replay_misses",
    "format_drilldown",
    "explain_report",
    "slo_summary",
    "main",
]


def _read_events(source) -> Iterator[Tuple[int, Event]]:
    """Yield ``(run, event)`` for each record of a JSONL trace (path or
    line iterable).

    Unknown wire names — records from a newer taxonomy — are skipped,
    not fatal. A line that is not a JSON object (a capture killed
    mid-write leaves a torn last line) raises ``ValueError`` naming the
    source and the line number.
    """
    if isinstance(source, str):
        fh: TextIO = open(source, "r", encoding="utf-8")
        name, close = source, True
    else:
        fh, close = source, False
        name = getattr(source, "name", "<events>")
    try:
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
                    f"line {lineno} of {name} is not a JSON object")
            try:
                event = event_from_json(record)
            except KeyError:
                continue
            yield record.get("run", 0), event
    finally:
        if close:
            fh.close()


def replay_events(source, top: int = 5, verify: bool = True
                  ) -> Tuple[CritPathAggregator, Dict[int, SpanAssembler]]:
    """Rebuild spans from a JSONL trace (path or line iterable).

    Returns the filled aggregator plus the per-``run`` assemblers (one
    per system observed by the original capture).
    """
    agg = CritPathAggregator(top_k=top, verify=verify)
    assemblers: Dict[int, SpanAssembler] = {}
    for run, event in _read_events(source):
        asm = assemblers.get(run)
        if asm is None:
            asm = assemblers[run] = SpanAssembler(
                sink=agg.add, max_kept=0,
                namespace=f"run{run}/" if run else "")
        asm.handle(event)
    return agg, assemblers


def replay_misses(source) -> Dict[str, dict]:
    """Rebuild cache-lens state from a JSONL trace (path or iterable).

    Returns the merged why-miss summary with cache names run-namespaced
    exactly like :func:`replay_events` spans, so the two halves of the
    report line up. Captures and replays both sample reuse distances
    at the lens's default rate, and sampling is deterministic, so the
    replayed reuse histogram reproduces the live one bit for bit.
    """
    from .cachelens import CacheLensProcessor, merge_summaries

    lenses: Dict[int, CacheLensProcessor] = {}
    for run, event in _read_events(source):
        lens = lenses.get(run)
        if lens is None:
            lens = lenses[run] = CacheLensProcessor()
        lens.handle(event)
    summaries = []
    for run, lens in lenses.items():
        prefix = f"run{run}/" if run else ""
        summaries.append({prefix + name: entry
                          for name, entry in lens.summary().items()})
    return merge_summaries(summaries)


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


def _ledger_events_path(entry: dict) -> Optional[str]:
    capture = entry.get("capture") or {}
    return capture.get("events")


def _run_live(exp_id: str, profile: str, top: int, misses: bool = False):
    """Run one experiment under a span (and optionally lens) capture."""
    from repro.harness import run_experiment
    from repro.harness.suite import clear_cache
    from .capture import CaptureSpec, capture_scope

    clear_cache()   # a warm memoized suite would publish no events
    spec = CaptureSpec(spans=True, explain_top=max(top, 1), misses=misses)
    with capture_scope(spec) as cap:
        report = run_experiment(exp_id, profile)
    assert cap is not None
    lens_summary = cap.merged_cachelens() if misses else None
    return cap.merged_critpath(), report.render(), lens_summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.explain",
        description="Critical-path why-slow analysis for captured "
                    "(or live) runs.")
    parser.add_argument("events", nargs="?", default=None,
                        metavar="PATH.jsonl",
                        help="JSONL event trace to replay "
                             "(from --events captures)")
    parser.add_argument("--run", default=None, metavar="EXP",
                        help="run this experiment live instead of "
                             "replaying a trace")
    parser.add_argument("--ledger", default=None, metavar="LEDGER.jsonl",
                        help="repro.svc run ledger to resolve --job in")
    parser.add_argument("--job", type=int, default=None, metavar="ID",
                        help="service job id to drill into (needs "
                             "--ledger; replays the job's recorded "
                             "event capture)")
    parser.add_argument("--profile", default="ci",
                        choices=("ci", "quick", "full"),
                        help="profile for --run (default: ci)")
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
                             "experiment id or trace stem)")
    args = parser.parse_args(argv)
    if args.top < 0:
        parser.error("--top must be >= 0")
    if (args.ledger is None) != (args.job is None):
        parser.error("--ledger and --job go together")
    modes = sum(x is not None for x in (args.events, args.run, args.ledger))
    if modes != 1:
        parser.error("give exactly one of PATH.jsonl, --run EXP, "
                     "or --ledger/--job")

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
        events_path = _ledger_events_path(entry)
        if events_path is None:
            print("(no event capture recorded for this job — submit "
                  "with --events to enable the in-sim drilldown)",
                  file=sys.stderr)
            return 2
        suite = args.suite or f"job{args.job}"
    elif args.run is not None:
        events_path = None
        agg, _report, lens_summary = _run_live(
            args.run, args.profile, args.top, misses=args.misses)
        suite = args.suite or args.run
    else:
        events_path = args.events
        suite = args.suite or events_path.rsplit("/", 1)[-1]
    if events_path is not None:
        try:
            agg, _assemblers = replay_events(events_path, top=args.top)
            lens_summary = (replay_misses(events_path)
                            if args.misses else None)
        except OSError as exc:
            print(f"cannot read events {events_path}: {exc.strerror}",
                  file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"cannot read events {events_path}: {exc}",
                  file=sys.stderr)
            return 2

    print(explain_report(agg, top=args.top))
    if lens_summary is not None:
        from .cachelens import why_miss_report

        print(why_miss_report(lens_summary))
    if args.json:
        doc = slo_summary(agg, suite, lens=lens_summary)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if agg.conservation_ok else 1


if __name__ == "__main__":
    sys.exit(main())
