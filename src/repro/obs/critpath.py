"""Critical-path *why-slow* analysis (``repro.obs.critpath``).

Decomposes each completed :class:`~repro.obs.spans.RequestSpan` into
five blame buckets that sum **exactly** to the request's latency:

``hit_path``
    The pipelined read-port answer (the paper's 3-cycle load-to-use,
    plus data serialization beyond ``#wlen`` words).
``sched_wait``
    Cycles queued in MetaIO before joining a walk / being served, plus
    walk cycles spent waiting on the one-dispatch-per-cycle front-end
    scheduler (admission gap, woken-but-not-redispatched).
``exec``
    Walk cycles in the back-end routine-execution pipeline.
``dram``
    Walk cycles dormant with DRAM fills outstanding.
``queue_stall``
    Admission stalls (``QueueStall``: no free context / set conflict)
    and walk cycles dormant on internal events.

The decomposition works off the request's episode windows: the journey
``[arrive, close)`` is covered by queue gaps (before the first join,
between a store-replay and its re-join) and by the walk phase intervals
intersected with each episode window ``[join, retire)``.  Phases tile
the walk exactly, so the buckets conserve by construction; a residual
cycle can only appear if the event stream itself is inconsistent, and
:func:`verify_request` reports it.

:class:`CritPathAggregator` consumes completed spans (it is the natural
``sink`` for a :class:`~repro.obs.spans.SpanAssembler`), keeping per-DSA
latency histograms (p50/p99), blame totals, and a bounded top-K heap of
the slowest requests — mergeable across systems and workers.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.sim.stats import Histogram

from .spans import RequestSpan

__all__ = [
    "BLAME_BUCKETS",
    "blame_request",
    "verify_request",
    "CritPathAggregator",
]

#: Canonical bucket order for tables and JSON.
BLAME_BUCKETS: Tuple[str, ...] = (
    "hit_path", "sched_wait", "exec", "dram", "queue_stall",
)

_PHASE_BUCKET: Dict[str, str] = {
    "exec": "exec",
    "dram_wait": "dram",
    "event_wait": "queue_stall",
    "sched_wait": "sched_wait",
}


def blame_request(span: RequestSpan) -> Dict[str, int]:
    """Split a completed request's latency across :data:`BLAME_BUCKETS`.

    Returns ``{bucket: cycles}`` summing exactly to ``span.latency``.
    Raises ``ValueError`` on a span that is still open.
    """
    if span.done < 0:
        raise ValueError(f"request {span.req_id} is still open")
    blame = dict.fromkeys(BLAME_BUCKETS, 0)

    # 1) walk episodes: intersect each walk's phase timeline with the
    #    request's window on it ([join, retire)).
    cursor = span.arrive
    gap = 0
    for ep in span.episodes:
        end = ep.left if ep.left >= 0 else span.close
        gap += max(0, ep.join - cursor)
        for ph in ep.walk.phases:
            lo = max(ph.start, ep.join)
            hi = min(ph.end, end)
            if hi > lo:
                blame[_PHASE_BUCKET[ph.kind]] += hi - lo
        cursor = max(cursor, end)
    gap += max(0, span.close - cursor)

    # 2) queue time: QueueStall events reclassify their share of the
    #    gap cycles from generic scheduling to admission stalls.
    stalled = min(span.stall_cycles, gap)
    blame["queue_stall"] += stalled
    blame["sched_wait"] += gap - stalled

    # 3) the hit tail (close -> data-back) is the read-port pipeline.
    blame["hit_path"] += span.done - span.close
    return blame


def verify_request(span: RequestSpan, blame: Dict[str, int]) -> List[str]:
    """Conservation / containment checks for one completed span and its
    :func:`blame_request` split ``blame``.

    Returns a list of problem strings (empty = consistent):

    * blame buckets sum exactly to the request latency;
    * every episode window nests inside the request window, and every
      walk's phases tile ``[admitted, retired)`` — child cycles can
      never exceed the parent's.
    """
    problems: List[str] = []
    rid = span.req_id
    total = sum(blame.values())
    if total != span.latency:
        problems.append(
            f"req {rid}: blame sums to {total}, latency {span.latency}")
    for ep in span.episodes:
        walk = ep.walk
        if not (span.arrive <= ep.join <= span.close):
            problems.append(
                f"req {rid}: join @{ep.join} outside "
                f"[{span.arrive}, {span.close}]")
        if ep.left >= 0 and ep.left > span.close:
            problems.append(
                f"req {rid}: left walk {walk.walk_id} @{ep.left} after "
                f"close @{span.close}")
        if walk.retired >= 0:
            tiled = sum(ph.cycles for ph in walk.phases)
            lifetime = walk.retired - walk.admitted
            if tiled != lifetime:
                problems.append(
                    f"walk {walk.walk_id}: phases tile {tiled} of "
                    f"{lifetime} cycles")
            for ph in walk.phases:
                if ph.start < walk.admitted or ph.end > walk.retired:
                    problems.append(
                        f"walk {walk.walk_id}: phase [{ph.start},{ph.end}) "
                        f"outside [{walk.admitted},{walk.retired})")
            for d in walk.dram:
                if not walk.admitted <= d.issue <= walk.retired:
                    problems.append(
                        f"walk {walk.walk_id}: DRAM issue @{d.issue} "
                        f"outside [{walk.admitted},{walk.retired}]")
    return problems


class _ComponentStats:
    """Per-DSA aggregation bucket."""

    __slots__ = ("latency", "blame", "outcomes")

    def __init__(self) -> None:
        self.latency = Histogram("request_latency")
        self.blame: Dict[str, int] = dict.fromkeys(BLAME_BUCKETS, 0)
        self.outcomes: Dict[str, int] = {}


class CritPathAggregator:
    """Folds completed request spans into per-DSA why-slow summaries.

    Use as the assembler's sink::

        agg = CritPathAggregator(top_k=5)
        bus.attach(SpanAssembler(sink=agg.add))

    Every span is checked with :func:`verify_request`; any problems
    collect on :attr:`mismatches` (the fig14 CI suite asserts it stays
    empty).
    """

    def __init__(self, top_k: int = 5) -> None:
        if top_k < 0:
            raise ValueError("top_k must be >= 0")
        self.top_k = top_k
        self.requests = 0
        self._seq = 0
        self._by_component: Dict[str, _ComponentStats] = {}
        # min-heap of (latency, seq, span, blame): the root is the
        # *fastest* of the kept slowest, evicted first
        self._top: List[Tuple[int, int, RequestSpan, Dict[str, int]]] = []
        self.mismatches: List[str] = []

    # -- ingestion -----------------------------------------------------
    def add(self, span: RequestSpan) -> None:
        blame = blame_request(span)
        self.mismatches.extend(verify_request(span, blame))
        self.requests += 1
        comp = self._by_component.get(span.component)
        if comp is None:
            comp = self._by_component[span.component] = _ComponentStats()
        comp.latency.add(span.latency)
        comp.outcomes[span.outcome] = comp.outcomes.get(span.outcome, 0) + 1
        for bucket, cycles in blame.items():
            comp.blame[bucket] += cycles
        if self.top_k:
            self._seq += 1
            item = (span.latency, self._seq, span, blame)
            if len(self._top) < self.top_k:
                heapq.heappush(self._top, item)
            elif span.latency > self._top[0][0]:
                heapq.heapreplace(self._top, item)

    def merge(self, other: "CritPathAggregator") -> None:
        """Fold another aggregator in (multi-system / worker merge)."""
        self.requests += other.requests
        self.mismatches.extend(other.mismatches)
        for name, theirs in other._by_component.items():
            ours = self._by_component.get(name)
            if ours is None:
                ours = self._by_component[name] = _ComponentStats()
            ours.latency.merge(theirs.latency)
            for bucket, cycles in theirs.blame.items():
                ours.blame[bucket] += cycles
            for outcome, n in theirs.outcomes.items():
                ours.outcomes[outcome] = ours.outcomes.get(outcome, 0) + n
        for latency, _seq, span, blame in other._top:
            self._seq += 1
            item = (latency, self._seq, span, blame)
            if len(self._top) < self.top_k:
                heapq.heappush(self._top, item)
            elif self.top_k and latency > self._top[0][0]:
                heapq.heapreplace(self._top, item)

    # -- inspection ----------------------------------------------------
    @property
    def conservation_ok(self) -> bool:
        return not self.mismatches

    def slowest(self) -> List[Tuple[RequestSpan, Dict[str, int]]]:
        """Kept slowest requests, slowest first."""
        ordered = sorted(self._top, key=lambda t: (-t[0], t[1]))
        return [(span, blame) for _lat, _seq, span, blame in ordered]

    def summary_dict(self) -> Dict[str, dict]:
        """JSON-ready per-DSA summary (the SLO gate's input)."""
        out: Dict[str, dict] = {}
        for name, comp in sorted(self._by_component.items()):
            hist = comp.latency
            out[name] = {
                "requests": hist.count,
                "latency_p50": hist.percentile(0.50),
                "latency_p99": hist.percentile(0.99),
                "latency_mean": round(hist.mean, 2),
                "latency_max": hist.max_seen,
                "blame": dict(comp.blame),
                "outcomes": dict(sorted(comp.outcomes.items())),
            }
        return out
