"""Windowed time-series metrics (``repro.obs.timeseries``).

Samples the run over fixed, configurable cycle windows instead of
collapsing it to end-of-run aggregates: each window records request
traffic and hit-rate, walker-context occupancy, outstanding DRAM
transactions (the MSHR pressure proxy for the active-bitmap design),
and DRAM bandwidth.  Rows materialize lazily — a window flushes when
the first event past its right edge arrives, and empty gaps between
active windows are emitted as zero-traffic rows so the series is
contiguous and plottable without resampling.

Export is CSV (:func:`write_csv`, one ``run`` column per captured
system so ``--parallel`` output merges deterministically) or JSON
(:meth:`TimeSeriesProcessor.to_json`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Set, TextIO, Tuple, Union

from .events import (
    DRAMComplete,
    DRAMIssue,
    Hit,
    Merge,
    Miss,
    RequestArrive,
    Tag,
    WalkerDispatch,
    WalkerRetire,
)

__all__ = ["TimeSeriesProcessor", "CSV_COLUMNS", "write_csv",
           "HEATMAP_COLUMNS", "write_heatmap_csv"]

#: Column order for every row dict / CSV export.
CSV_COLUMNS: Tuple[str, ...] = (
    "window_start", "window_end", "requests", "hits", "misses", "merges",
    "hit_rate", "retires", "walkers_peak", "walkers_end",
    "dram_reads", "dram_writes", "dram_bytes", "dram_bw",
    "mshr_peak", "mshr_end",
)


class TimeSeriesProcessor:
    """Aggregates bus events into fixed-width cycle windows."""

    def __init__(self, window: int = 1000) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.rows: List[Dict[str, Union[int, float]]] = []
        self._w: Optional[int] = None      # current window index
        # per-window counters
        self._requests = 0
        self._hits = 0
        self._misses = 0
        self._merges = 0
        self._retires = 0
        self._dram_reads = 0
        self._dram_writes = 0
        self._dram_bytes = 0
        # level state (survives window boundaries)
        self._walkers: Set[Tuple[str, Tag]] = set()
        self._walkers_peak = 0
        self._mshr = 0
        self._mshr_peak = 0
        self._closed = False

    # -- window bookkeeping --------------------------------------------
    def _roll(self, cycle: int) -> None:
        w = cycle // self.window
        if self._w is None:
            self._w = w
        while self._w < w:
            self._flush()
            self._w += 1

    def _flush(self) -> None:
        start = self._w * self.window
        served = self._hits + self._misses
        bytes_ = self._dram_bytes
        self.rows.append({
            "window_start": start,
            "window_end": start + self.window,
            "requests": self._requests,
            "hits": self._hits,
            "misses": self._misses,
            "merges": self._merges,
            "hit_rate": self._hits / served if served else 0.0,
            "retires": self._retires,
            "walkers_peak": self._walkers_peak,
            "walkers_end": len(self._walkers),
            "dram_reads": self._dram_reads,
            "dram_writes": self._dram_writes,
            "dram_bytes": bytes_,
            "dram_bw": bytes_ / self.window,
            "mshr_peak": self._mshr_peak,
            "mshr_end": self._mshr,
        })
        self._requests = self._hits = self._misses = self._merges = 0
        self._retires = 0
        self._dram_reads = self._dram_writes = self._dram_bytes = 0
        self._walkers_peak = len(self._walkers)
        self._mshr_peak = self._mshr

    # -- event handlers ------------------------------------------------
    def on_request_arrive(self, ev: RequestArrive) -> None:
        self._roll(ev.cycle)
        self._requests += 1

    def on_hit(self, ev: Hit) -> None:
        self._roll(ev.cycle)
        self._hits += 1

    def on_miss(self, ev: Miss) -> None:
        self._roll(ev.cycle)
        self._misses += 1
        self._track_walker(ev.component, ev.tag)

    def on_merge(self, ev: Merge) -> None:
        self._roll(ev.cycle)
        self._merges += 1

    def on_walker_dispatch(self, ev: WalkerDispatch) -> None:
        self._roll(ev.cycle)
        self._track_walker(ev.component, ev.tag)

    def on_walker_retire(self, ev: WalkerRetire) -> None:
        self._roll(ev.cycle)
        self._retires += 1
        self._walkers.discard((ev.component, ev.tag))

    def on_dram_issue(self, ev: DRAMIssue) -> None:
        self._roll(ev.cycle)
        if ev.is_write:
            self._dram_writes += 1
        else:
            self._dram_reads += 1
        self._dram_bytes += ev.nbytes
        self._mshr += 1
        if self._mshr > self._mshr_peak:
            self._mshr_peak = self._mshr

    def on_dram_complete(self, ev: DRAMComplete) -> None:
        self._roll(ev.cycle)
        if self._mshr > 0:
            self._mshr -= 1

    def _track_walker(self, component: str, tag: Tag) -> None:
        self._walkers.add((component, tag))
        if len(self._walkers) > self._walkers_peak:
            self._walkers_peak = len(self._walkers)

    # -- lifecycle / export --------------------------------------------
    def close(self) -> None:
        """Flush the final (possibly partial) window."""
        if self._closed:
            return
        self._closed = True
        if self._w is not None:
            self._flush()

    def to_json(self) -> str:
        return json.dumps({"window": self.window, "rows": self.rows},
                          indent=2, sort_keys=True)


def write_csv(target: Union[str, TextIO],
              runs: Sequence[Tuple[str, TimeSeriesProcessor]]) -> int:
    """Write ``(run_id, processor)`` series as one CSV; returns rows."""
    lines = ["run," + ",".join(CSV_COLUMNS)]
    for run_id, proc in runs:
        proc.close()
        for row in proc.rows:
            cells = [str(run_id)]
            for col in CSV_COLUMNS:
                value = row[col]
                cells.append(f"{value:.6g}" if isinstance(value, float)
                             else str(value))
            lines.append(",".join(cells))
    text = "".join(line + "\n" for line in lines)
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    return len(lines) - 1


#: Column order for per-set heatmap rows (``--heatmap``).
HEATMAP_COLUMNS: Tuple[str, ...] = (
    "window_start", "window_end", "set", "occupancy", "fills", "evicts",
)


def write_heatmap_csv(target: Union[str, TextIO],
                      runs: Sequence[Tuple[str, Sequence]]) -> int:
    """Write per-set occupancy/pressure heatmap rows as one CSV.

    ``runs`` is ``(run_id, rows)`` where ``rows`` is the
    ``(cache, row_dict)`` sequence from
    :meth:`repro.obs.cachelens.CacheLensProcessor.heat_rows`; the
    ``run`` and ``cache`` columns keep ``--parallel`` and
    multi-controller output merge-stable. Returns data rows written.
    """
    lines = ["run,cache," + ",".join(HEATMAP_COLUMNS)]
    for run_id, rows in runs:
        for cache, row in rows:
            cells = [str(run_id), cache]
            cells.extend(str(row[col]) for col in HEATMAP_COLUMNS)
            lines.append(",".join(cells))
    text = "".join(line + "\n" for line in lines)
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    return len(lines) - 1
