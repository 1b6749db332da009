"""Plain-text experiment reports.

Every figure/table driver returns an :class:`ExperimentReport`: the
regenerated rows/series plus a list of :class:`Expectation` checks that
compare the paper's claim with the measured value. ``render()`` prints
the same information a figure would carry, as an ASCII table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

__all__ = ["Expectation", "ExperimentReport", "format_table",
           "cycles_breakdown_table", "why_slow_table", "why_miss_table"]


@dataclass
class Expectation:
    """One paper-claim vs. measured-value comparison."""

    claim: str                 # e.g. "X-Cache vs addr cache speedup"
    paper: str                 # e.g. "1.7x average"
    measured: float
    ok: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.ok else "MISS"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"  [{mark}] {self.claim}: paper={self.paper}, "
                f"measured={self.measured:.3g}{extra}")


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width ASCII table."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in str_rows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def cycles_breakdown_table(breakdown) -> str:
    """Render the profiler's per-DSA "where do the cycles go" table.

    ``breakdown`` is ``{dsa: {kind: cycles}}`` (see
    ``CycleProfile.component_breakdown``). Each row shows the DSA's
    total attributed cycles and the percentage in each X-Action
    category / wait kind; returns "" when there is nothing to show.
    """
    from repro.obs.prof import ALL_KINDS

    if not breakdown:
        return ""
    rows = []
    for dsa in sorted(breakdown):
        kinds = breakdown[dsa]
        total = sum(kinds.values())
        row: List[object] = [dsa, total]
        for kind in ALL_KINDS:
            share = kinds.get(kind, 0) / total if total else 0.0
            row.append(f"{100.0 * share:.1f}%")
        rows.append(row)
    headers = ["dsa", "cycles"] + list(ALL_KINDS)
    return format_table(headers, rows)


def why_slow_table(summary) -> str:
    """Render the critical-path per-DSA request-latency blame table.

    ``summary`` is ``{dsa: {requests, latency_p50, latency_p99, blame}}``
    (see ``CritPathAggregator.summary_dict``). Blame columns show the
    share of total request cycles each bucket is responsible for;
    returns "" when there is nothing to show.
    """
    from repro.obs.critpath import BLAME_BUCKETS

    if not summary:
        return ""
    rows = []
    for dsa in sorted(summary):
        entry = summary[dsa]
        blame = entry.get("blame", {})
        total = sum(blame.values())
        row: List[object] = [dsa, entry.get("requests", 0),
                             entry.get("latency_p50", 0),
                             entry.get("latency_p99", 0)]
        for bucket in BLAME_BUCKETS:
            share = blame.get(bucket, 0) / total if total else 0.0
            row.append(f"{100.0 * share:.1f}%")
        rows.append(row)
    headers = ["dsa", "requests", "p50", "p99"] + list(BLAME_BUCKETS)
    return format_table(headers, rows)


def why_miss_table(summary) -> str:
    """Render the per-cache miss-taxonomy blame table.

    ``summary`` is ``{cache: {hits, misses, compulsory, capacity,
    conflict, would_hit_more_ways, would_hit_more_sets, hit_rate, ...}}``
    (see ``CacheLensProcessor.summary`` /
    ``cachelens.merge_summaries``). Taxonomy columns show each class's
    share of the cache's misses; the would-hit-if columns answer the
    sizing question directly (share of misses that a 2x-ways / 2x-sets
    geometry would have turned into hits); returns "" when there is
    nothing to show.
    """
    from repro.obs.cachelens import MISS_CLASSES

    if not summary:
        return ""
    rows = []
    for cache in sorted(summary):
        entry = summary[cache]
        misses = entry.get("misses", 0)
        row: List[object] = [cache,
                             entry.get("accesses", 0),
                             f"{100.0 * entry.get('hit_rate', 0.0):.1f}%",
                             misses]
        for cls in MISS_CLASSES:
            share = entry.get(cls, 0) / misses if misses else 0.0
            row.append(f"{100.0 * share:.1f}%")
        for key in ("would_hit_more_ways", "would_hit_more_sets"):
            share = entry.get(key, 0) / misses if misses else 0.0
            row.append(f"{100.0 * share:.1f}%")
        rows.append(row)
    headers = (["cache", "accesses", "hit_rate", "misses"]
               + list(MISS_CLASSES) + ["+ways", "+sets"])
    return format_table(headers, rows)


@dataclass
class ExperimentReport:
    """A regenerated table/figure plus its paper-claim checks."""

    exp_id: str                # "fig14", "tab03", ...
    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    expectations: List[Expectation] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def expect(self, claim: str, paper: str, measured: float,
               ok: bool, detail: str = "") -> None:
        self.expectations.append(
            Expectation(claim, paper, measured, ok, detail))

    def expect_range(self, claim: str, paper: str, measured: float,
                     lo: float, hi: float, detail: str = "") -> None:
        self.expect(claim, paper, measured, lo <= measured <= hi, detail)

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.expectations)

    def render(self) -> str:
        lines = [f"== {self.exp_id}: {self.title} ==",
                 format_table(self.headers, self.rows)]
        if self.expectations:
            lines.append("paper vs measured:")
            lines.extend(e.render() for e in self.expectations)
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover
        return self.render()
