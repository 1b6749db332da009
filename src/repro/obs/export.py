"""Trace export: JSONL streaming and Chrome-trace (Perfetto) rendering.

* :class:`JsonlExporter` streams one JSON object per event — cheap,
  append-only, greppable, and trivially mergeable across runs.
* :class:`PerfettoExporter` renders the run as a Chrome-trace JSON file
  (load it at https://ui.perfetto.dev or ``chrome://tracing``): each
  component is a *process*, walker contexts are *tracks* (threads)
  carrying dispatch→retire walk spans with per-routine slices inside,
  and DRAM transactions are *async slices* on the DRAM process.
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Optional, Tuple, Union

from .events import (
    CacheEvict,
    CacheFill,
    DRAMComplete,
    DRAMIssue,
    Event,
    Merge,
    Miss,
    RunEnd,
    RunStart,
    WalkerDispatch,
    WalkerRetire,
    WalkerWake,
    WalkerYield,
    event_fields,
)

__all__ = ["JsonlExporter", "PerfettoExporter", "event_to_dict"]


def event_to_dict(event: Event, extra: Optional[dict] = None) -> dict:
    """Flatten an event into a JSON-ready dict (``event`` = wire name)."""
    out = {"event": event.__class__.name}
    if extra:
        out.update(extra)
    for name in event_fields(event.__class__):
        value = getattr(event, name)
        if isinstance(value, tuple):
            value = list(value)
        out[name] = value
    return out


class JsonlExporter:
    """Streams every event as one JSON line.

    ``dest`` is a path or an open text stream. ``extra`` is folded into
    every line (the capture layer stamps ``{"run": n}`` so multi-system
    experiments stay distinguishable in one file). When given a path
    the file opens lazily on the first event and closes at
    :meth:`close`.
    """

    def __init__(self, dest: Union[str, IO[str]],
                 extra: Optional[dict] = None) -> None:
        self._path: Optional[str] = dest if isinstance(dest, str) else None
        self._stream: Optional[IO[str]] = (
            None if isinstance(dest, str) else dest)
        self._owns_stream = isinstance(dest, str)
        self.extra = extra
        self.events_written = 0

    def on_event(self, event: Event) -> None:
        stream = self._stream
        if stream is None:
            stream = self._stream = open(self._path, "w")
        json.dump(event_to_dict(event, self.extra), stream,
                  separators=(",", ":"))
        stream.write("\n")
        self.events_written += 1

    def close(self) -> None:
        stream = self._stream
        if stream is None:
            return
        if self._owns_stream:
            self._stream = None
            stream.close()
        else:
            flush = getattr(stream, "flush", None)
            if flush is not None:
                flush()


class PerfettoExporter:
    """Collects the run into Chrome-trace JSON.

    Track model (all timestamps are cycles, rendered as trace ``ts``):

    * one *process* per publishing component (``pid``), named via
      ``process_name`` metadata;
    * walker contexts are *threads* of their controller's process: a
      live walker claims the lowest free lane (exactly like an
      X-register context) and frees it at retire. The walk itself is a
      complete-event span (``ph":"X"``) from admission to retire, and
      each routine execution is a nested slice (dispatch→yield/retire);
    * DRAM transactions are async slices (``ph":"b"``/``"e"``) on the
      DRAM component's process, correlated by id;
    * kernel ``run()`` entry/exit become instant events;
    * request journeys are *flow arrows* (``ph":"s"/"t"/"f"``): each
      correlated request (``req_id >= 0``) gets a 1-cycle marker slice
      on the controller's scheduler track when it misses or merges, a
      flow start there, a step on the walk span it joined, and the
      finish at the retire that served it — so N merged requests
      visibly point at the one walker that answered them.

    Walk bookkeeping keys on ``walk_id`` when the stream carries one (a
    tag can be walked twice; an episode id cannot) and falls back to
    the tag for legacy/synthetic streams.

    ``new_run()`` namespaces a subsequent system's components so one
    trace file can hold a whole experiment.
    """

    def __init__(self, dest: Union[str, IO[str]]) -> None:
        self._path: Optional[str] = dest if isinstance(dest, str) else None
        self._stream: Optional[IO[str]] = (
            None if isinstance(dest, str) else dest)
        self.trace_events: List[dict] = []
        self._run = 0
        self._pids: Dict[str, int] = {}
        # per (pid, tag): lane + span bookkeeping
        self._lanes_free: Dict[int, List[int]] = {}
        self._lanes_next: Dict[int, int] = {}
        self._walks: Dict[Tuple[int, object], dict] = {}
        self._dram_seq = 0
        self._dram_open: Dict[Tuple[int, int], List[int]] = {}
        # request-journey flow arrows: req_id -> flow id
        self._flow_seq = 0
        self._flows: Dict[int, int] = {}
        # cache-contents counter tracks: pid -> (occupancy, evictions)
        self._cache_occ: Dict[int, int] = {}
        self._cache_evicts: Dict[int, int] = {}
        self._closed = False

    # -- capture plumbing ---------------------------------------------
    def new_run(self) -> None:
        """Namespace the components of the next attached system."""
        self._run += 1

    def _pid(self, component: str) -> int:
        key = (f"run{self._run}/{component}" if self._run else component)
        pid = self._pids.get(key)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[key] = pid
            self.trace_events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": key},
            })
        return pid

    def _claim_lane(self, pid: int) -> int:
        free = self._lanes_free.setdefault(pid, [])
        if free:
            free.sort()
            return free.pop(0)
        lane = self._lanes_next.get(pid, 1)
        self._lanes_next[pid] = lane + 1
        self.trace_events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": lane,
            "args": {"name": f"walker ctx {lane - 1}"},
        })
        return lane

    @staticmethod
    def _walk_key(pid: int, event: Event) -> Tuple[int, object]:
        walk_id = getattr(event, "walk_id", -1)
        if walk_id >= 0:
            return (pid, walk_id)
        return (pid, ("tag",) + tuple(event.tag))

    # -- event ingestion ----------------------------------------------
    def on_event(self, event: Event) -> None:
        cls = event.__class__
        if cls is Miss:
            pid = self._pid(event.component)
            lane = self._claim_lane(pid)
            walk = {"lane": lane, "start": event.cycle, "routine": None,
                    "tag": list(event.tag)}
            self._walks[self._walk_key(pid, event)] = walk
            if event.req_id >= 0:
                self._flow_point(pid, walk, event.cycle, event.req_id,
                                 "miss")
        elif cls is Merge:
            pid = self._pid(event.component)
            walk = self._walks.get(self._walk_key(pid, event))
            if walk is not None and event.req_id >= 0:
                self._flow_point(pid, walk, event.cycle, event.req_id,
                                 "merge")
        elif cls is WalkerDispatch or cls is WalkerWake:
            pid = self._pid(event.component)
            walk = self._walks.get(self._walk_key(pid, event))
            if walk is not None and cls is WalkerDispatch:
                walk["routine"] = (event.routine, event.cycle)
        elif cls is WalkerYield:
            pid = self._pid(event.component)
            self._end_routine(self._walk_key(pid, event), pid, event.cycle)
        elif cls is WalkerRetire:
            pid = self._pid(event.component)
            key = self._walk_key(pid, event)
            self._end_routine(key, pid, event.cycle)
            walk = self._walks.pop(key, None)
            if walk is None:
                for rid in event.served:
                    self._flows.pop(rid, None)
                return
            start = event.cycle - event.lifetime
            self.trace_events.append({
                "ph": "X", "name": f"walk {list(event.tag)}",
                "cat": "walker", "pid": pid, "tid": walk["lane"],
                "ts": start, "dur": max(event.lifetime, 1),
                "args": {"tag": list(event.tag), "found": event.found},
            })
            for rid in event.served:
                fid = self._flows.pop(rid, None)
                if fid is not None:
                    self.trace_events.append({
                        "ph": "f", "bp": "e", "cat": "request",
                        "name": f"req {rid}", "id": fid, "pid": pid,
                        "tid": walk["lane"], "ts": event.cycle,
                    })
            self._lanes_free.setdefault(pid, []).append(walk["lane"])
        elif cls is DRAMIssue:
            pid = self._pid(event.component)
            self._dram_seq += 1
            slice_id = self._dram_seq
            self._dram_open.setdefault((pid, event.addr), []).append(slice_id)
            self.trace_events.append({
                "ph": "b", "cat": "dram",
                "name": "write" if event.is_write else "read",
                "pid": pid, "tid": 0, "ts": event.cycle,
                "id": slice_id,
                "args": {"addr": event.addr, "bank": event.bank,
                         "row": event.row_result},
            })
        elif cls is DRAMComplete:
            pid = self._pid(event.component)
            open_ids = self._dram_open.get((pid, event.addr))
            if open_ids:
                slice_id = open_ids.pop(0)
                self.trace_events.append({
                    "ph": "e", "cat": "dram", "name": "txn",
                    "pid": pid, "tid": 0, "ts": event.cycle,
                    "id": slice_id,
                })
        elif cls is CacheFill:
            pid = self._pid(event.component)
            occ = self._cache_occ.get(pid, 0) + 1
            self._cache_occ[pid] = occ
            self._cache_counter(pid, event.cycle, occ)
        elif cls is CacheEvict:
            pid = self._pid(event.component)
            occ = max(self._cache_occ.get(pid, 0) - 1, 0)
            self._cache_occ[pid] = occ
            self._cache_evicts[pid] = self._cache_evicts.get(pid, 0) + 1
            self._cache_counter(pid, event.cycle, occ)
        elif cls is RunStart or cls is RunEnd:
            pid = self._pid(event.component)
            self.trace_events.append({
                "ph": "i", "s": "p", "cat": "kernel",
                "name": cls.name, "pid": pid, "tid": 0,
                "ts": event.cycle,
            })

    def _cache_counter(self, pid: int, cycle: int, occ: int) -> None:
        """Counter track ("ph":"C") per cache: live entries + cumulative
        evictions, so contents churn plots next to the walk spans."""
        self.trace_events.append({
            "ph": "C", "name": "cache contents", "pid": pid, "tid": 0,
            "ts": cycle,
            "args": {"entries": occ,
                     "evictions": self._cache_evicts.get(pid, 0)},
        })

    def _end_routine(self, key: Tuple[int, object], pid: int,
                     cycle: int) -> None:
        walk = self._walks.get(key)
        if walk is None or walk["routine"] is None:
            return
        name, started = walk["routine"]
        walk["routine"] = None
        self.trace_events.append({
            "ph": "X", "name": name, "cat": "routine",
            "pid": pid, "tid": walk["lane"],
            "ts": started, "dur": max(cycle - started, 1),
            "args": {"tag": walk["tag"]},
        })

    def _flow_point(self, pid: int, walk: dict, cycle: int, req_id: int,
                    kind: str) -> None:
        """Marker slice + flow start/step for one request joining a walk."""
        fid = self._flows.get(req_id)
        fresh = fid is None
        if fresh:
            self._flow_seq += 1
            fid = self._flows[req_id] = self._flow_seq
        name = f"req {req_id}"
        self.trace_events.append({
            "ph": "X", "name": f"{name} {kind}", "cat": "request",
            "pid": pid, "tid": 0, "ts": cycle, "dur": 1,
            "args": {"req_id": req_id},
        })
        # a replayed request keeps its flow id: "s" once, then steps
        self.trace_events.append({
            "ph": "s" if fresh else "t", "cat": "request", "name": name,
            "id": fid, "pid": pid, "tid": 0, "ts": cycle,
        })
        self.trace_events.append({
            "ph": "t", "cat": "request", "name": name, "id": fid,
            "pid": pid, "tid": walk["lane"], "ts": cycle,
        })

    # -- output --------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        return {
            "traceEvents": self.trace_events,
            "displayTimeUnit": "ns",
            "otherData": {"exporter": "repro.obs", "time_unit": "cycle"},
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        payload = self.to_chrome_trace()
        if self._path is not None:
            with open(self._path, "w") as fh:
                json.dump(payload, fh, indent=1)
                fh.write("\n")
        elif self._stream is not None:
            json.dump(payload, self._stream, indent=1)
            self._stream.write("\n")
