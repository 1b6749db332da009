"""Tests for JSONL and Chrome-trace (Perfetto) export."""

import io
import json

from repro.obs import (
    DRAMComplete,
    DRAMIssue,
    EventBus,
    Hit,
    JsonlExporter,
    Merge,
    Miss,
    PerfettoExporter,
    RunEnd,
    RunStart,
    WalkerDispatch,
    WalkerRetire,
    event_to_dict,
)


def test_event_to_dict_flattens_and_names():
    d = event_to_dict(Hit(cycle=5, component="ctl", tag=(1, 2),
                          take=True, load_to_use=3))
    assert d == {"event": "hit", "cycle": 5, "component": "ctl",
                 "tag": [1, 2], "store": False, "take": True,
                 "load_to_use": 3, "req_id": -1, "status": 1}


def test_event_to_dict_extra_keys():
    d = event_to_dict(RunStart(cycle=0, component="kernel"),
                      extra={"run": 3})
    assert d["run"] == 3 and d["event"] == "run_start"


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_jsonl_exporter_to_stream():
    out = io.StringIO()
    bus = EventBus()
    exporter = bus.attach(JsonlExporter(out, extra={"run": 0}))
    bus.publish(Hit(cycle=1, component="ctl", tag=(1,)))
    bus.publish(Miss(cycle=2, component="ctl", tag=(2,), op="MetaLoad"))
    exporter.close()
    lines = out.getvalue().strip().splitlines()
    assert exporter.events_written == 2
    records = [json.loads(line) for line in lines]
    assert [r["event"] for r in records] == ["hit", "miss"]
    assert all(r["run"] == 0 for r in records)


def test_jsonl_exporter_to_path(tmp_path):
    path = tmp_path / "events.jsonl"
    bus = EventBus()
    exporter = bus.attach(JsonlExporter(str(path)))
    bus.publish(Hit(cycle=1, component="ctl", tag=(1,)))
    exporter.close()
    [record] = [json.loads(l) for l in path.read_text().splitlines()]
    assert record["event"] == "hit" and record["tag"] == [1]


def test_jsonl_exporter_lazy_open(tmp_path):
    path = tmp_path / "never.jsonl"
    exporter = JsonlExporter(str(path))
    exporter.close()
    assert not path.exists()


# ----------------------------------------------------------------------
# Perfetto: synthetic stream
# ----------------------------------------------------------------------
def _walk_stream(bus):
    bus.publish(RunStart(cycle=0, component="kernel"))
    bus.publish(Miss(cycle=1, component="ctl", tag=(7,), op="MetaLoad"))
    bus.publish(WalkerDispatch(cycle=1, component="ctl", tag=(7,),
                               routine="Default@MetaLoad"))
    bus.publish(DRAMIssue(cycle=3, component="dram", addr=4096,
                          is_write=False, bank=2, row_result="row_misses",
                          complete_at=29))
    bus.publish(DRAMComplete(cycle=29, component="dram", addr=4096,
                             latency=26))
    bus.publish(WalkerRetire(cycle=31, component="ctl", tag=(7,),
                             found=True, lifetime=30))
    bus.publish(RunEnd(cycle=31, component="kernel", events_executed=42))


def test_perfetto_structure_synthetic(tmp_path):
    path = tmp_path / "trace.json"
    bus = EventBus()
    exporter = bus.attach(PerfettoExporter(str(path)))
    _walk_stream(bus)
    exporter.close()

    payload = json.loads(path.read_text())
    assert isinstance(payload["traceEvents"], list)
    events = payload["traceEvents"]

    walk_spans = [e for e in events
                  if e["ph"] == "X" and e["cat"] == "walker"]
    assert len(walk_spans) == 1
    span = walk_spans[0]
    assert span["ts"] == 1 and span["dur"] == 30
    assert span["args"]["found"] is True

    routine_slices = [e for e in events
                      if e["ph"] == "X" and e["cat"] == "routine"]
    assert len(routine_slices) == 1
    assert routine_slices[0]["name"] == "Default@MetaLoad"
    assert routine_slices[0]["tid"] == span["tid"]

    begins = [e for e in events if e["ph"] == "b"]
    ends = [e for e in events if e["ph"] == "e"]
    assert len(begins) == len(ends) == 1
    assert begins[0]["id"] == ends[0]["id"]
    assert begins[0]["args"]["bank"] == 2

    instants = [e for e in events if e["ph"] == "i"]
    assert {e["name"] for e in instants} == {"run_start", "run_end"}

    # every X event carries a duration; every pid is named
    assert all("dur" in e for e in events if e["ph"] == "X")
    named = {e["pid"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    used = {e["pid"] for e in events if e["ph"] != "M"}
    assert used <= named


def test_perfetto_lane_reuse():
    exporter = PerfettoExporter(io.StringIO())
    bus = EventBus()
    bus.attach(exporter)
    # two concurrent walks -> two lanes; after both retire a third
    # walk reclaims the lowest lane
    for tag in ((1,), (2,)):
        bus.publish(Miss(cycle=0, component="ctl", tag=tag, op="L"))
    for tag in ((1,), (2,)):
        bus.publish(WalkerRetire(cycle=10, component="ctl", tag=tag,
                                 found=True, lifetime=10))
    bus.publish(Miss(cycle=20, component="ctl", tag=(3,), op="L"))
    bus.publish(WalkerRetire(cycle=25, component="ctl", tag=(3,),
                             found=False, lifetime=5))
    spans = [e for e in exporter.trace_events
             if e["ph"] == "X" and e["cat"] == "walker"]
    assert sorted(e["tid"] for e in spans) == [1, 1, 2]


def test_perfetto_new_run_namespaces_pids():
    exporter = PerfettoExporter(io.StringIO())
    bus = EventBus()
    bus.attach(exporter)
    bus.publish(RunStart(cycle=0, component="kernel"))
    exporter.new_run()
    bus.publish(RunStart(cycle=0, component="kernel"))
    names = [e["args"]["name"] for e in exporter.trace_events
             if e["ph"] == "M" and e["name"] == "process_name"]
    assert names == ["kernel", "run1/kernel"]


# ----------------------------------------------------------------------
# Perfetto: edge cases (empty runs, dropped events)
# ----------------------------------------------------------------------
def test_perfetto_empty_run_is_valid_json(tmp_path):
    """A capture that saw no events still writes a loadable trace."""
    path = tmp_path / "empty.json"
    PerfettoExporter(str(path)).close()
    payload = json.loads(path.read_text())
    assert payload["traceEvents"] == []
    assert payload["otherData"]["time_unit"] == "cycle"


def test_perfetto_tolerates_dropped_events():
    """A ring buffer may drop the opening events of a walk (Miss /
    Dispatch / DRAMIssue); the orphaned closers must be skipped, not
    crash or emit dangling spans."""
    exporter = PerfettoExporter(io.StringIO())
    bus = EventBus()
    bus.attach(exporter)
    # retire without a miss, routine end without a dispatch,
    # completion without an issue
    bus.publish(WalkerRetire(cycle=31, component="ctl", tag=(7,),
                             found=True, lifetime=30))
    bus.publish(DRAMComplete(cycle=29, component="dram", addr=4096,
                             latency=26))
    events = exporter.trace_events
    assert not [e for e in events if e["ph"] == "X"]
    assert not [e for e in events if e["ph"] in ("b", "e")]
    # ...and a subsequent intact walk still exports fully
    _walk_stream(bus)
    spans = [e for e in exporter.trace_events
             if e["ph"] == "X" and e["cat"] == "walker"]
    assert len(spans) == 1 and spans[0]["dur"] == 30


def test_perfetto_dropped_opening_events_in_stream(tmp_path):
    """Start mid-stream (as after ring-buffer wrap): valid output."""
    path = tmp_path / "wrapped.json"
    bus = EventBus()
    exporter = bus.attach(PerfettoExporter(str(path)))
    # wake/yield-ish closers for a walk whose opening was dropped
    bus.publish(DRAMComplete(cycle=5, component="dram", addr=64,
                             latency=20))
    bus.publish(WalkerRetire(cycle=9, component="ctl", tag=(1,),
                             found=False, lifetime=9))
    bus.publish(RunEnd(cycle=9, component="kernel", events_executed=3))
    exporter.close()
    payload = json.loads(path.read_text())
    phases = {e["ph"] for e in payload["traceEvents"]}
    assert "i" in phases          # the RunEnd instant survived
    assert "X" not in phases      # no fabricated spans


# ----------------------------------------------------------------------
# Perfetto: a real system run
# ----------------------------------------------------------------------
def test_perfetto_real_run_structurally_valid(tmp_path, mini_system):
    path = tmp_path / "trace.json"
    exporter = mini_system.observe(PerfettoExporter(str(path)))
    addr = mini_system.image.alloc_u64_array(list(range(4)))
    for i in range(4):
        mini_system.load((i,), walk_fields={"addr": addr + 8 * i})
    mini_system.run()
    exporter.close()

    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert payload["otherData"]["time_unit"] == "cycle"

    walk_spans = [e for e in events
                  if e["ph"] == "X" and e["cat"] == "walker"]
    assert len(walk_spans) == 4
    assert all(e["dur"] >= 1 for e in walk_spans)

    begins = [e for e in events if e["ph"] == "b"]
    ends = [e for e in events if e["ph"] == "e"]
    assert len(begins) == 4 and len(ends) == 4
    assert sorted(e["id"] for e in begins) == sorted(e["id"] for e in ends)

    # dispatch->retire span contains its routine slices
    for span in walk_spans:
        inner = [e for e in events
                 if e["ph"] == "X" and e["cat"] == "routine"
                 and e["pid"] == span["pid"] and e["tid"] == span["tid"]
                 and span["ts"] <= e["ts"] <= span["ts"] + span["dur"]]
        assert inner, f"walk span without routine slices: {span}"


# ----------------------------------------------------------------------
# request-journey flow arrows
# ----------------------------------------------------------------------
def test_perfetto_flow_arrows_link_requests_to_walks(feed):
    exporter = feed(
        PerfettoExporter(io.StringIO()),
        Miss(cycle=2, component="ctl", tag=(1,), op="load", req_id=1,
             walk_id=7),
        Merge(cycle=4, component="ctl", tag=(1,), req_id=2, walk_id=7),
        WalkerRetire(cycle=30, component="ctl", tag=(1,), found=True,
                     lifetime=28, walk_id=7, served=(1, 2)))
    te = exporter.trace_events

    starts = [e for e in te if e["ph"] == "s"]
    steps = [e for e in te if e["ph"] == "t"]
    finishes = [e for e in te if e["ph"] == "f"]
    assert {e["name"] for e in starts} == {"req 1", "req 2"}
    assert len(finishes) == 2
    assert all(e["bp"] == "e" for e in finishes)
    # ids and cat/name match across each request's s -> t -> f chain
    for name in ("req 1", "req 2"):
        chain = [e for e in starts + steps + finishes if e["name"] == name]
        assert len({e["id"] for e in chain}) == 1
        assert all(e["cat"] == "request" for e in chain)
    # finish lands on the walk's lane at the retire cycle
    walk_span = next(e for e in te if e["ph"] == "X"
                     and e["cat"] == "walker")
    for e in finishes:
        assert e["tid"] == walk_span["tid"] and e["ts"] == 30
    # 1-cycle marker slices tell miss and merge apart on the scheduler
    markers = [e["name"] for e in te
               if e["ph"] == "X" and e["cat"] == "request"]
    assert markers == ["req 1 miss", "req 2 merge"]


def test_perfetto_flow_skips_uncorrelated_requests(feed):
    exporter = feed(
        PerfettoExporter(io.StringIO()),
        Miss(cycle=2, component="ctl", tag=(1,), op="load",
             walk_id=7),                           # req_id=-1
        WalkerRetire(cycle=9, component="ctl", tag=(1,), lifetime=7,
                     walk_id=7))
    assert not any(e["ph"] in ("s", "t", "f")
                   for e in exporter.trace_events)


def test_perfetto_walks_keyed_by_walk_id_not_tag(feed):
    """Two concurrent walks of the same tag stay distinct episodes."""
    exporter = feed(
        PerfettoExporter(io.StringIO()),
        Miss(cycle=0, component="ctl", tag=(5,), op="load", req_id=1,
             walk_id=1),
        Miss(cycle=1, component="ctl", tag=(5,), op="load", req_id=2,
             walk_id=2),
        WalkerRetire(cycle=10, component="ctl", tag=(5,), lifetime=10,
                     walk_id=1, served=(1,)),
        WalkerRetire(cycle=20, component="ctl", tag=(5,), lifetime=19,
                     walk_id=2, served=(2,)))
    walk_spans = [e for e in exporter.trace_events
                  if e["ph"] == "X" and e["cat"] == "walker"]
    assert len(walk_spans) == 2
    assert {e["tid"] for e in walk_spans} == {1, 2}  # separate lanes


def test_perfetto_flow_arrows_on_real_run(mini_system, tmp_path):
    path = tmp_path / "trace.json"
    exporter = mini_system.observe(PerfettoExporter(str(path)))
    addr = mini_system.image.alloc_u64_array(list(range(8)))
    for i in range(8):
        mini_system.load((i,), walk_fields={"addr": addr + 8 * i})
    mini_system.run()
    exporter.close()

    events = json.loads(path.read_text())["traceEvents"]
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == 8 and len(finishes) == 8
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}
