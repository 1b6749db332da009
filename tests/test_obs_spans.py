"""Tests for span assembly, critical-path blame, and the explain CLI."""

import json

import pytest

from repro.obs.bus import EventBus
from repro.obs.critpath import (
    BLAME_BUCKETS,
    CritPathAggregator,
    blame_request,
    verify_request,
)
from repro.obs.events import (
    ALL_EVENT_TYPES,
    CacheAccess,
    CacheEvict,
    CacheFill,
    CacheModel,
    DRAMComplete,
    DRAMIssue,
    Evict,
    Fill,
    Hit,
    Merge,
    Miss,
    QueueStall,
    Reclaim,
    RequestArrive,
    RunEnd,
    RunStart,
    WalkerDispatch,
    WalkerRetire,
    WalkerWake,
    WalkerYield,
    event_from_json,
)
from repro.obs.explain import explain_report, slo_summary
from repro.obs.export import event_to_dict
from repro.obs.spans import SpanAssembler


# ----------------------------------------------------------------------
# event_from_json round-trip
# ----------------------------------------------------------------------
def _one_of_each():
    """One instance per event type, every field set to a non-default."""
    return [
        RunStart(cycle=1, component="sim"),
        RunEnd(cycle=2, component="sim", events_executed=9),
        RequestArrive(cycle=3, component="c", tag=(1, 2), op="store",
                      req_id=4),
        Hit(cycle=5, component="c", tag=(3,), store=True, take=True,
            load_to_use=7, req_id=8, status=0),
        Miss(cycle=9, component="c", tag=(4,), op="load", req_id=10,
             walk_id=11, set_index=5),
        Merge(cycle=12, component="c", tag=(5,), req_id=13, walk_id=14),
        WalkerDispatch(cycle=15, component="c", tag=(6,), routine="r",
                       walk_id=16),
        WalkerWake(cycle=17, component="c", tag=(7,), reason="e",
                   walk_id=18),
        WalkerYield(cycle=19, component="c", tag=(8,), routine="r2",
                    action_costs=(1, 2, 3, 4, 5), fills=2, walk_id=20),
        WalkerRetire(cycle=21, component="c", tag=(9,), found=True,
                     lifetime=22, action_costs=(5, 4, 3, 2, 1),
                     walk_id=23, served=(10, 13)),
        DRAMIssue(cycle=24, component="d", addr=64, is_write=True,
                  bank=2, row_result="row_hits", complete_at=40,
                  nbytes=32, walk_id=25),
        DRAMComplete(cycle=26, component="d", addr=128, latency=27,
                     walk_id=28),
        Fill(cycle=29, component="c", tag=(10,), addr=256, nbytes=64,
             walk_id=30),
        Evict(cycle=31, component="c", tag=(11,), sectors=3),
        Reclaim(cycle=32, component="c", nsectors=4),
        QueueStall(cycle=33, component="c", tag=(12,),
                   reason="no_context", req_id=34),
        CacheModel(cycle=35, component="c", kind="addr", ways=4,
                   sets=64, block_bytes=32, tag_class="addr"),
        CacheFill(cycle=36, component="c", tag=(13,), set_index=6,
                  way=1),
        CacheEvict(cycle=37, component="c", tag=(14,), set_index=7,
                   way=2, reason="dealloc"),
        CacheAccess(cycle=38, component="c", tag=(4096,), set_index=8,
                    outcome="merge", is_write=True),
    ]


def test_event_from_json_round_trips_all_types():
    originals = _one_of_each()
    assert len(originals) == len(ALL_EVENT_TYPES)
    for original in originals:
        wire = json.loads(json.dumps(event_to_dict(original, {"run": 3})))
        rebuilt = event_from_json(wire)
        assert rebuilt == original                   # run stamp ignored
        assert type(rebuilt) is type(original)


def test_event_from_json_defaults_missing_fields():
    ev = event_from_json({"event": "hit", "cycle": 7, "component": "c"})
    assert isinstance(ev, Hit)
    assert ev.req_id == -1 and ev.status == 1 and ev.tag == ()


def test_event_from_json_unknown_wire_name_raises():
    with pytest.raises(KeyError):
        event_from_json({"event": "not_a_thing", "cycle": 0,
                         "component": "c"})


# ----------------------------------------------------------------------
# span assembly on a synthetic stream
# ----------------------------------------------------------------------
def _merged_walk_stream():
    """Two requests: an origin miss plus a merge, answered by one walk."""
    return [
        RequestArrive(cycle=0, component="ctl", tag=(1,), op="load",
                      req_id=1),
        RequestArrive(cycle=0, component="ctl", tag=(1,), op="load",
                      req_id=2),
        QueueStall(cycle=1, component="ctl", tag=(1,),
                   reason="no_context", req_id=1),
        Miss(cycle=2, component="ctl", tag=(1,), op="load", req_id=1,
             walk_id=7),
        WalkerDispatch(cycle=3, component="ctl", tag=(1,), routine="r0",
                       walk_id=7),
        Merge(cycle=4, component="ctl", tag=(1,), req_id=2, walk_id=7),
        WalkerYield(cycle=5, component="ctl", tag=(1,), routine="r0",
                    fills=1, walk_id=7),
        DRAMIssue(cycle=5, component="dram", addr=64,
                  row_result="row_misses", complete_at=25, walk_id=7),
        Fill(cycle=25, component="ctl", tag=(1,), addr=64, walk_id=7),
        WalkerWake(cycle=25, component="ctl", tag=(1,), reason="fill",
                   walk_id=7),
        WalkerDispatch(cycle=26, component="ctl", tag=(1,), routine="r1",
                       walk_id=7),
        WalkerRetire(cycle=30, component="ctl", tag=(1,), found=True,
                     lifetime=28, walk_id=7, served=(1, 2)),
    ]


def test_merged_requests_share_one_walk_subtree(feed):
    sink = []
    asm = SpanAssembler(sink=sink.append)
    feed(asm, *_merged_walk_stream())

    assert asm.requests_completed == 2
    assert asm.requests_open == 0 and asm.walks_open == 0
    span1 = next(s for s in sink if s.req_id == 1)
    span2 = next(s for s in sink if s.req_id == 2)
    assert span1.episodes[0].role == "origin"
    assert span2.episodes[0].role == "merge"
    # one shared WalkSpan object, not two copies
    assert span1.episodes[0].walk is span2.episodes[0].walk
    walk = span1.episodes[0].walk
    assert walk.riders == [1, 2] and walk.served == (1, 2)
    assert walk.routines == 2 and walk.fills == 1
    assert len(walk.dram) == 1 and walk.dram[0].complete == 25
    # phases tile [admitted, retired) exactly
    assert walk.phases[0].start == walk.admitted == 2
    assert walk.phases[-1].end == walk.retired == 30
    for prev, cur in zip(walk.phases, walk.phases[1:]):
        assert prev.end == cur.start
    assert walk.phase_cycles() == {"sched_wait": 2, "exec": 6,
                                   "dram_wait": 20}


def test_blame_conserves_and_classifies_on_synthetic_stream(feed):
    agg = CritPathAggregator(top_k=2)
    asm = SpanAssembler(sink=agg.add)
    feed(asm, *_merged_walk_stream())

    assert agg.conservation_ok, agg.mismatches
    blames = {span.req_id: blame for span, blame in agg.slowest()}
    # origin: 1 stall cycle reclassified out of the 2-cycle admit gap
    assert blames[1] == {"hit_path": 0, "sched_wait": 3, "exec": 6,
                         "dram": 20, "queue_stall": 1}
    # merge joined at 4: only the post-join slice of each phase counts
    assert blames[2] == {"hit_path": 0, "sched_wait": 5, "exec": 5,
                         "dram": 20, "queue_stall": 0}
    for span, blame in agg.slowest():
        assert sum(blame.values()) == span.latency == 30
        assert verify_request(span, blame) == []


def test_walk_only_assembler_skips_request_events(feed):
    """No request sink: only walks are assembled, with the same phases
    a full assembler records."""
    spans = []
    full = SpanAssembler(sink=spans.append)
    retired = []
    walk_only = SpanAssembler(
        walk_sink=lambda walk, lifetime: retired.append(walk))
    bus = EventBus()
    bus.attach(walk_only)
    assert not any(bus.wants(cls)
                   for cls in (RequestArrive, QueueStall, Hit, Merge))
    assert all(bus.wants(cls)
               for cls in (Miss, WalkerDispatch, WalkerRetire))
    feed(full, *_merged_walk_stream())
    feed(walk_only, *_merged_walk_stream())
    assert walk_only.requests_completed == 0
    [walk] = retired
    assert walk.phases == spans[0].episodes[0].walk.phases


def test_uncorrelated_events_are_ignored(feed):
    sink = []
    asm = feed(
        SpanAssembler(sink=sink.append),
        RequestArrive(cycle=0, component="c", tag=(1,),
                      op="load"),                   # req_id=-1
        Hit(cycle=1, component="c", tag=(1,), load_to_use=3),
        DRAMIssue(cycle=2, component="d", addr=0),  # unowned
        WalkerRetire(cycle=3, component="c", tag=(2,)))
    assert asm.requests_open == 0 and asm.requests_completed == 0
    assert sink == []


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def test_aggregator_merge_folds_counts_and_topk(feed):
    a, b = CritPathAggregator(top_k=2), CritPathAggregator(top_k=2)
    for agg in (a, b):
        asm = SpanAssembler(sink=agg.add)
        feed(asm, *_merged_walk_stream())
    a.merge(b)
    assert a.requests == 4
    assert a.conservation_ok
    assert len(a.slowest()) == 2            # top_k still enforced
    stats = a.summary_dict()["ctl"]
    assert stats["requests"] == 4
    assert sum(stats["blame"].values()) == 4 * 30
    assert set(stats["blame"]) == set(BLAME_BUCKETS)


def test_aggregator_blames_each_request_once(feed, monkeypatch):
    """``add`` verifies the blame split it books instead of computing
    it a second time, and the check reads that split."""
    from repro.obs import critpath

    calls = []

    def counted(span, _blame=critpath.blame_request):
        calls.append(span.req_id)
        return _blame(span)

    monkeypatch.setattr(critpath, "blame_request", counted)
    agg = CritPathAggregator(top_k=2)
    asm = SpanAssembler(sink=agg.add)
    feed(asm, *_merged_walk_stream())
    assert agg.requests == 2 and agg.conservation_ok
    assert sorted(calls) == [1, 2]
    span, blame = agg.slowest()[0]
    off_by_one = {**blame, "exec": blame["exec"] + 1}
    assert verify_request(span, off_by_one) == [
        f"req {span.req_id}: blame sums to 31, latency 30"]


# ----------------------------------------------------------------------
# real systems
# ----------------------------------------------------------------------
def _observe_spans(system, top_k=5):
    """Arm span assembly with critical-path blame on ``system``;
    returns (assembler, aggregator, completed spans)."""
    agg = CritPathAggregator(top_k=top_k)
    spans = []

    def sink(span):
        spans.append(span)
        agg.add(span)

    asm = system.observe(SpanAssembler(sink=sink))
    return asm, agg, spans


def test_observe_spans_on_mini_system(mini_system):
    asm, agg, spans = _observe_spans(mini_system, top_k=3)
    addr = mini_system.image.alloc_u64_array(list(range(8)))
    for i in range(8):
        mini_system.load((i,), walk_fields={"addr": addr + 8 * i})
    mini_system.run()
    # second round: every tag is resident now, so these are pure hits
    for i in range(8):
        mini_system.load((i,), walk_fields={"addr": addr + 8 * i})
    mini_system.run()

    assert asm.requests_completed == 16
    assert asm.requests_open == 0 and asm.walks_open == 0
    assert agg.conservation_ok, agg.mismatches[:5]
    for span in spans:
        blame = blame_request(span)
        assert verify_request(span, blame) == []
        assert sum(blame.values()) == span.latency


def test_hit_only_requests_reproduce_three_cycle_load_to_use(mini_system):
    """The paper's 3-cycle hit path: blame puts it all on hit_path."""
    _asm, _agg, spans = _observe_spans(mini_system)
    addr = mini_system.image.alloc_u64_array(list(range(4)))
    for i in range(4):
        mini_system.load((i,), walk_fields={"addr": addr + 8 * i})
    mini_system.run()
    for i in range(4):
        mini_system.load((i,), walk_fields={"addr": addr + 8 * i})
    mini_system.run()
    hits = [s for s in spans if s.outcome == "hit"
            and not s.episodes]
    assert len(hits) == 4
    for span in hits:
        # the hit pipeline itself is exactly hit_latency (3) cycles;
        # anything more is front-end queueing, blamed separately
        assert span.done - span.close == 3
        blame = blame_request(span)
        assert blame["hit_path"] == 3
        assert blame["dram"] == blame["exec"] == 0
        assert sum(blame.values()) == span.latency == span.load_to_use


def test_fig14_ci_spans_conservation_invariant():
    """Acceptance: every completed request's blame sums to its latency
    across the whole memoized ci suite."""
    from repro.harness.suite import clear_cache, run_fig14_suite
    from repro.obs.capture import CaptureSpec, capture_scope

    clear_cache()  # a memoized reload would publish no events
    try:
        with capture_scope(CaptureSpec(spans=True)) as cap:
            run_fig14_suite("ci")
            merged = cap.merged_critpath()
    finally:
        clear_cache()  # don't leak captured results into other tests

    assert merged.requests > 100
    assert merged.conservation_ok, merged.mismatches[:5]
    summary = merged.summary_dict()
    assert summary
    for stats in summary.values():
        assert stats["requests"] > 0
        assert stats["latency_p99"] >= stats["latency_p50"] >= 0


# ----------------------------------------------------------------------
# explain: replay + report rendering
# ----------------------------------------------------------------------
def _jsonl_lines(events, run=0):
    return [json.dumps(event_to_dict(ev, {"run": run})) for ev in events]


def _aggregate(feed, events, top_k=5):
    agg = CritPathAggregator(top_k=top_k)
    feed(SpanAssembler(sink=agg.add), *events)
    return agg


def _explain(tmp_path, capsys, lines, *argv):
    """Replay ``lines`` as a trace file: (exit code, stdout, stderr)."""
    from repro.obs.explain import main

    trace = tmp_path / "t.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    code = main([str(trace), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_replay_events_rebuilds_spans_from_jsonl(tmp_path, capsys):
    lines = _jsonl_lines(_merged_walk_stream())
    lines.insert(0, json.dumps({"event": "future_thing", "cycle": 0,
                                "component": "c"}))   # skipped, not fatal
    lines.insert(1, "")                               # blank line ok
    code, out, _err = _explain(tmp_path, capsys, lines)
    assert code == 0
    assert "requests=2 conservation=ok" in out


def test_replay_merges_runs_like_a_live_capture(tmp_path, capsys):
    """Two systems that share component ``ctl`` report it as one
    component, as the live capture that wrote the trace did."""
    lines = (_jsonl_lines(_merged_walk_stream(), run=0)
             + _jsonl_lines(_merged_walk_stream(), run=1))
    out_json = tmp_path / "slo.json"
    code, out, _err = _explain(tmp_path, capsys, lines,
                               "--json", str(out_json))
    assert code == 0
    assert "requests=4 conservation=ok" in out
    components = json.loads(out_json.read_text())["components"]
    assert set(components) == {"ctl"}
    assert components["ctl"]["requests"] == 4


def test_explain_report_renders_table_and_drilldowns(feed):
    agg = _aggregate(feed, _merged_walk_stream())
    text = explain_report(agg, top=1)
    assert "-- why-slow (repro.obs.critpath) --" in text
    assert "requests=2 conservation=ok" in text
    assert "slowest 1 request(s):" in text
    assert "walk 7 join @2 as origin" in text
    assert "dram: 1 reads (0 row hits) spanning @5..@25" in text
    # table-only mode
    assert "slowest" not in explain_report(agg, top=0)


def test_slo_summary_shape(feed):
    payload = slo_summary(_aggregate(feed, _merged_walk_stream()), "mini")
    assert payload["suite"] == "mini"
    assert payload["components"]["ctl"]["requests"] == 2
    json.dumps(payload)                     # must be JSON-serializable


def test_explain_cli_replay_and_json(tmp_path, capsys):
    out_json = tmp_path / "slo.json"
    code, out, _err = _explain(
        tmp_path, capsys, _jsonl_lines(_merged_walk_stream()),
        "--top", "1", "--json", str(out_json), "--suite", "mini")
    assert code == 0
    assert "conservation=ok" in out
    payload = json.loads(out_json.read_text())
    assert payload["suite"] == "mini"
    assert payload["components"]["ctl"]["requests"] == 2


@pytest.mark.parametrize("run", ["-1", '"0"', "1.5", "true", "null"])
def test_explain_cli_malformed_run_exits_2(tmp_path, capsys, run):
    """A record whose ``run`` is not a non-negative integer is malformed:
    one error line naming the path and the line, nothing on stdout."""
    lines = _jsonl_lines(_merged_walk_stream())
    lines[3] = lines[3].replace('"run": 0', f'"run": {run}')
    out_json = tmp_path / "slo.json"
    code, out, err = _explain(tmp_path, capsys, lines,
                              "--json", str(out_json))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert str(tmp_path / "t.jsonl") in err and "line 4 " in err
    assert not out_json.exists()


def test_fig07_replay_is_the_live_capture(tmp_path, capsys):
    """Replaying a five-system fig07 capture prints the live capture's
    report text, writes its --spans file byte for byte, and gets the
    same SLO verdict."""
    import pathlib

    from repro.harness import run_experiment
    from repro.obs.capture import CaptureSpec, capture_scope
    from repro.obs.explain import main
    from repro.obs.regress import check_slo

    spec = CaptureSpec(events_path=str(tmp_path / "t.jsonl"),
                       spans_path=str(tmp_path / "live.json"),
                       explain_top=3, misses=True)
    with capture_scope(spec.for_experiment("fig07")) as cap:
        run_experiment("fig07", "ci")
    assert cap.systems_observed == 5
    replay_json = tmp_path / "replay.json"
    code = main([str(tmp_path / "t.fig07.jsonl"), "--top", "3",
                 "--misses", "--json", str(replay_json),
                 "--suite", "fig07"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == cap.summary_text + "\n"
    live_json = tmp_path / "live.fig07.json"
    assert replay_json.read_bytes() == live_json.read_bytes()
    slo = pathlib.Path(__file__).resolve().parents[1] / "SLO.json"
    policy = json.loads(slo.read_text())
    live_checks = check_slo(json.loads(live_json.read_text()), policy)
    assert live_checks and all(check.ok for check in live_checks)
    assert check_slo(json.loads(replay_json.read_text()),
                     policy) == live_checks


def test_explain_cli_unreadable_trace_exits_2(tmp_path, capsys):
    from repro.obs.explain import main

    missing = tmp_path / "nothere.jsonl"
    assert main([str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(missing) in captured.err


def test_explain_cli_argument_validation(capsys):
    from repro.obs.explain import main

    with pytest.raises(SystemExit):
        main([])                            # neither trace nor ledger
    capsys.readouterr()


@pytest.mark.parametrize("misses", [False, True], ids=["spans", "misses"])
@pytest.mark.parametrize("torn", ["cut", "not-json"])
def test_explain_cli_torn_trace_exits_2(tmp_path, capsys, torn, misses):
    """A trace whose last line a killed capture tore, or a line that is
    not JSON at all, is one error line naming the path, not a
    traceback."""
    from repro.obs.explain import main

    trace = tmp_path / "t.jsonl"
    if torn == "cut":
        text = "\n".join(_jsonl_lines(_merged_walk_stream())) + "\n"
        assert len(text.splitlines()[-1]) > 40
        trace.write_text(text[:-40])
    else:
        trace.write_text("not json\n")
    assert main([str(trace)] + (["--misses"] if misses else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(trace) in captured.err
