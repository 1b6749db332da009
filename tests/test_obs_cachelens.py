"""Tests for cache-contents observability (``repro.obs.cachelens``)."""

import io
import json

import pytest

from repro.mem import (
    AddressCache,
    CacheConfig,
    DRAMConfig,
    DRAMModel,
    MemoryImage,
)
from repro.obs.cachelens import (
    MISS_CLASSES,
    CacheLensProcessor,
    ShadowCache,
    merge_summaries,
    reuse_bucket_label,
    why_miss_report,
)
from repro.obs.events import (
    CacheAccess,
    CacheEvict,
    CacheFill,
    CacheModel,
    Hit,
    Merge,
    Miss,
)
from repro.sim import Simulator


def _conserved(entry):
    return sum(entry[c] for c in MISS_CLASSES) == entry["misses"]


# ----------------------------------------------------------------------
# shadow structures
# ----------------------------------------------------------------------
def test_shadow_sa_probe_then_touch():
    shadow = ShadowCache(ways=2, sets=1, set_fn=lambda tag: 0)
    assert shadow.access((1,)) is False     # cold
    assert shadow.access((1,)) is True      # now resident
    shadow.access((2,))
    shadow.access((3,))                     # evicts LRU (1,)
    assert shadow.access((1,)) is False     # [2,3] -> [3,1]
    assert shadow.access((2,)) is False     # (1,)'s insert evicted (2,)
    assert shadow.access((1,)) is True      # still MRU-adjacent


def test_shadow_sa_invalidate():
    shadow = ShadowCache(ways=4, sets=1, set_fn=lambda tag: 0)
    shadow.access((1,))
    shadow.invalidate((1,))
    assert shadow.access((1,)) is False
    shadow.invalidate((99,))                # absent tag is a no-op


def test_reuse_bucket_labels():
    assert reuse_bucket_label(-1) == "inf"
    assert reuse_bucket_label(0) == "0"
    assert reuse_bucket_label(1) == "1"
    assert reuse_bucket_label(3) == "4-7"


# ----------------------------------------------------------------------
# miss taxonomy on a synthetic meta-side stream
# ----------------------------------------------------------------------
def _meta_model(lens, ways=1, sets=2, component="ctl"):
    lens.handle(CacheModel(cycle=0, component=component, kind="meta",
                           ways=ways, sets=sets, tag_class="key"))


def _miss_fill(lens, tag, set_index, cycle, component="ctl"):
    lens.handle(Miss(cycle=cycle, component=component, tag=tag,
                     op="MetaLoad", set_index=set_index))
    lens.handle(CacheFill(cycle=cycle, component=component, tag=tag,
                          set_index=set_index, way=0))


def test_conflict_miss_classification():
    """1 way x 2 sets: two tags colliding in set 0 ping-pong; the
    same-capacity FA shadow still holds the loser, so the re-miss is a
    conflict — and both 2x shadows would have served it."""
    lens = CacheLensProcessor()
    _meta_model(lens, ways=1, sets=2)
    _miss_fill(lens, (0,), 0, cycle=1)                 # compulsory
    lens.handle(CacheEvict(cycle=2, component="ctl", tag=(0,),
                           set_index=0, way=0, reason="conflict"))
    _miss_fill(lens, (2,), 0, cycle=2)                 # compulsory
    lens.handle(CacheEvict(cycle=3, component="ctl", tag=(2,),
                           set_index=0, way=0, reason="conflict"))
    _miss_fill(lens, (0,), 0, cycle=3)                 # conflict

    entry = lens.summary()["ctl"]
    assert entry["misses"] == 3
    assert entry["compulsory"] == 2
    assert entry["conflict"] == 1
    assert entry["capacity"] == 0
    assert _conserved(entry)
    assert entry["would_hit_more_ways"] == 1
    assert entry["would_hit_more_sets"] == 1
    assert lens.top_conflict_sets("ctl") == [(0, 1)]


def test_capacity_miss_classification():
    """1 way x 1 set: the FA shadow has capacity 1 too, so a re-miss
    after another tag displaced it is capacity, not conflict."""
    lens = CacheLensProcessor()
    _meta_model(lens, ways=1, sets=1)
    _miss_fill(lens, (0,), 0, cycle=1)
    lens.handle(CacheEvict(cycle=2, component="ctl", tag=(0,),
                           set_index=0, way=0, reason="conflict"))
    _miss_fill(lens, (1,), 0, cycle=2)
    lens.handle(CacheEvict(cycle=3, component="ctl", tag=(1,),
                           set_index=0, way=0, reason="conflict"))
    _miss_fill(lens, (0,), 0, cycle=3)

    entry = lens.summary()["ctl"]
    assert entry["compulsory"] == 2
    assert entry["capacity"] == 1
    assert entry["conflict"] == 0
    assert _conserved(entry)


def test_dealloc_invalidates_shadows():
    """A program-intent eviction (DEALLOCM) removes the tag from every
    shadow: the re-access is a capacity miss, not a conflict one."""
    lens = CacheLensProcessor()
    _meta_model(lens, ways=2, sets=2)
    _miss_fill(lens, (0,), 0, cycle=1)
    lens.handle(CacheEvict(cycle=2, component="ctl", tag=(0,),
                           set_index=0, way=0, reason="dealloc"))
    _miss_fill(lens, (0,), 0, cycle=3)

    entry = lens.summary()["ctl"]
    assert entry["compulsory"] == 1
    assert entry["capacity"] == 1
    assert entry["conflict"] == 0
    assert entry["would_hit_more_ways"] == 0
    assert entry["would_hit_more_sets"] == 0
    assert _conserved(entry)


def test_hits_and_merges_counted_not_classified():
    lens = CacheLensProcessor()
    _meta_model(lens)
    _miss_fill(lens, (0,), 0, cycle=1)
    lens.handle(Hit(cycle=2, component="ctl", tag=(0,)))
    lens.handle(Merge(cycle=3, component="ctl", tag=(0,)))
    lens.handle(Hit(cycle=4, component="ctl", tag=(9,), status=0))

    entry = lens.summary()["ctl"]
    assert entry["hits"] == 1
    assert entry["merges"] == 1
    assert entry["nowalk"] == 1
    assert entry["misses"] == 1
    # meta hit-rate mirrors Controller.hit_rate(): merges excluded,
    # nowalk answers included
    assert entry["hit_rate"] == pytest.approx(1 / 3)


def test_geometry_arrives_late():
    """Misses before the CacheModel announce still classify (the FA
    shadow starts unbounded and trims when the capacity arrives)."""
    lens = CacheLensProcessor()
    lens.handle(Miss(cycle=1, component="ctl", tag=(0,), set_index=0))
    _meta_model(lens, ways=1, sets=1)
    lens.handle(Miss(cycle=2, component="ctl", tag=(1,), set_index=0))
    entry = lens.summary()["ctl"]
    assert entry["compulsory"] == 2 and _conserved(entry)


# ----------------------------------------------------------------------
# reuse-distance histogram + sampling knob
# ----------------------------------------------------------------------
def _cyclic_stream(lens, tags=4, rounds=8):
    _meta_model(lens, ways=4, sets=1)
    cycle = 0
    for _ in range(rounds):
        for t in range(tags):
            cycle += 1
            lens.handle(Hit(cycle=cycle, component="ctl", tag=(t,)))


def test_reuse_distance_exact():
    lens = CacheLensProcessor(reuse_sample=1)
    _cyclic_stream(lens, tags=4, rounds=8)
    hist = lens.summary()["ctl"]["reuse"]
    # cyclic over 4 tags: 4 cold (inf), the rest at stack distance 3
    assert hist["inf"] == 4
    assert hist["2-3"] == 28
    assert sum(hist.values()) == 32


def test_reuse_sampling_bounds_mass():
    exact = CacheLensProcessor(reuse_sample=1)
    sampled = CacheLensProcessor(reuse_sample=4)
    _cyclic_stream(exact)
    _cyclic_stream(sampled)
    exact_entry = exact.summary()["ctl"]
    sampled_entry = sampled.summary()["ctl"]
    assert sum(sampled_entry["reuse"].values()) == 8   # every 4th of 32
    # sampling touches only the histogram — counters are untouched
    for key in ("accesses", "hits", "misses"):
        assert sampled_entry[key] == exact_entry[key]


def test_reuse_sample_validation():
    with pytest.raises(ValueError):
        CacheLensProcessor(reuse_sample=0)
    with pytest.raises(ValueError):
        CacheLensProcessor(heatmap_window=0)


# ----------------------------------------------------------------------
# heatmap windows
# ----------------------------------------------------------------------
def test_heatmap_rows_window_and_gap_behaviour():
    lens = CacheLensProcessor(heatmap_window=10)
    _meta_model(lens, ways=2, sets=4)
    lens.handle(CacheFill(cycle=1, component="ctl", tag=(0,),
                          set_index=0, way=0))
    lens.handle(CacheFill(cycle=2, component="ctl", tag=(1,),
                          set_index=1, way=0))
    lens.handle(CacheEvict(cycle=25, component="ctl", tag=(0,),
                           set_index=0, way=0, reason="conflict"))
    rows = lens.heat_rows()
    assert all(name == "ctl" for name, _ in rows)
    first = [r for _, r in rows if r["window_start"] == 0]
    assert {r["set"]: r["fills"] for r in first} == {0: 1, 1: 1}
    last = [r for _, r in rows if r["window_start"] == 20]
    evicted = next(r for r in last if r["set"] == 0)
    assert evicted["evicts"] == 1 and evicted["occupancy"] == 0
    # set 1 still occupied in the final window
    held = next(r for r in last if r["set"] == 1)
    assert held["occupancy"] == 1 and held["fills"] == 0


def test_write_heatmap_csv():
    from repro.obs.timeseries import HEATMAP_COLUMNS, write_heatmap_csv

    lens = CacheLensProcessor(heatmap_window=10)
    _meta_model(lens, ways=1, sets=2)
    lens.handle(CacheFill(cycle=3, component="ctl", tag=(0,),
                          set_index=0, way=0))
    out = io.StringIO()
    rows = write_heatmap_csv(out, [(0, lens.heat_rows())])
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "run,cache," + ",".join(HEATMAP_COLUMNS)
    assert rows == len(lines) - 1 == 1
    assert lines[1] == "0,ctl,0,10,0,1,1,0"


# ----------------------------------------------------------------------
# the address-cache stream (real AddressCache publishing)
# ----------------------------------------------------------------------
def _addr_cache(**kw):
    sim = Simulator()
    dram = DRAMModel(sim, MemoryImage(), DRAMConfig())
    cache = AddressCache(sim, dram, CacheConfig(**kw))
    lens = CacheLensProcessor()
    cache.ensure_bus().attach(lens)
    return sim, cache, lens


def test_addr_cache_lens_mirrors_stats():
    sim, cache, lens = _addr_cache(ways=1, sets=2, block_bytes=64)
    def access(addr, is_write=False):
        cache.access(addr, is_write, lambda lat: None)
        sim.run()

    access(0)          # compulsory miss
    access(0)          # hit
    access(128)        # compulsory miss, same set, evicts block 0
    access(0)          # conflict miss (FA capacity 2 still holds it)
    entry = lens.summary()[cache.name]
    assert entry["kind"] == "addr"
    assert entry["misses"] == 3
    assert entry["compulsory"] == 2
    assert entry["conflict"] == 1
    assert _conserved(entry)
    assert entry["would_hit_more_sets"] == 1   # 1w x 4s separates them
    assert entry["would_hit_more_ways"] == 1
    assert entry["hits"] == 1
    # addr hit-rate mirrors AddressCache.hit_rate() exactly
    assert entry["hit_rate"] == pytest.approx(cache.hit_rate())


def test_addr_cache_mshr_merges_and_stalls_counted():
    sim, cache, lens = _addr_cache(mshr_entries=1)
    done = []
    cache.access(0x1000, False, lambda lat: done.append(lat))
    cache.access(0x1008, False, lambda lat: done.append(lat))  # merge
    cache.access(0x2000, False, lambda lat: done.append(lat))  # MSHR full
    sim.run()
    entry = lens.summary()[cache.name]
    assert entry["merges"] == 1
    assert entry["stalls"] >= 1
    # conservation counts only primary misses, never merges/stalls
    assert _conserved(entry)
    assert entry["hit_rate"] == pytest.approx(cache.hit_rate())


# ----------------------------------------------------------------------
# merge / report plumbing
# ----------------------------------------------------------------------
def _small_summary(misses, conflict, hits=10):
    return {
        "ctl": {
            "kind": "meta", "tag_class": "key",
            "accesses": hits + misses, "hits": hits, "misses": misses,
            "merges": 0, "nowalk": 0, "stalls": 0,
            "compulsory": misses - conflict, "capacity": 0,
            "conflict": conflict, "would_hit_more_ways": conflict,
            "would_hit_more_sets": 0, "hit_rate": 0.0,
            "conflict_share": 0.0, "reuse": {"0": misses},
        },
    }


def test_merge_summaries_order_independent():
    a, b = _small_summary(4, 1), _small_summary(6, 3)
    ab, ba = merge_summaries([a, b]), merge_summaries([b, a])
    assert ab == ba
    entry = ab["ctl"]
    assert entry["misses"] == 10
    assert entry["conflict"] == 4
    assert entry["conflict_share"] == pytest.approx(0.4)
    assert entry["hit_rate"] == pytest.approx(20 / 30)
    assert entry["reuse"] == {"0": 10}
    assert _conserved(entry)


def test_why_miss_report_renders_and_conserves():
    summary = _small_summary(4, 1)
    summary["ctl"]["conflict_sets"] = {3: 1}
    text = why_miss_report(summary)
    assert "conservation=ok" in text
    assert "compulsory" in text and "+ways" in text
    assert "hottest conflict sets: set3=1" in text
    assert "reuse[key]" in text


def test_why_miss_table_empty_and_shares():
    from repro.harness.report import why_miss_table

    assert why_miss_table({}) == ""
    table = why_miss_table(_small_summary(4, 1))
    assert "75.0%" in table      # compulsory share
    assert "25.0%" in table      # conflict share


# ----------------------------------------------------------------------
# capture / harness integration
# ----------------------------------------------------------------------
def test_capture_spec_misses_activation_and_scoping(tmp_path):
    from repro.obs.capture import CaptureSpec

    assert not CaptureSpec().active
    assert CaptureSpec(misses=True).active
    heat = str(tmp_path / "h.csv")
    spec = CaptureSpec(heatmap_path=heat)
    assert spec.active and spec.wants_misses
    scoped = spec.for_experiment("fig04")
    assert scoped.heatmap_path.endswith("h.fig04.csv")
    assert scoped.output_paths()["heatmap"] == scoped.heatmap_path


def test_system_observe_cachelens(mini_system):
    lens = mini_system.observe(CacheLensProcessor())
    addr = mini_system.image.alloc_u64_array([i + 100 for i in range(8)])
    for i in range(8):
        mini_system.load((i,), walk_fields={"addr": addr + 8 * i})
    mini_system.run()
    for i in range(8):
        mini_system.load((i,), walk_fields={"addr": addr + 8 * i})
    mini_system.run()

    entry = lens.summary()[mini_system.controller.name]
    stats = mini_system.controller.stats
    assert entry["misses"] == stats.get("misses") == 8
    assert _conserved(entry)
    assert entry["hit_rate"] == pytest.approx(
        mini_system.controller.hit_rate())


def test_fig14_ci_miss_taxonomy_conservation():
    """Acceptance: compulsory + capacity + conflict == misses for every
    cache across the whole memoized ci suite, and the lens hit-rate
    stays a probability."""
    from repro.harness.suite import clear_cache, run_fig14_suite
    from repro.obs.capture import CaptureSpec, capture_scope

    clear_cache()  # a memoized reload would publish no events
    try:
        with capture_scope(CaptureSpec(misses=True)) as cap:
            run_fig14_suite("ci")
            summary = cap.merged_cachelens()
    finally:
        clear_cache()  # don't leak captured results into other tests

    assert len(summary) >= 4
    assert sum(e["misses"] for e in summary.values()) > 100
    for name, entry in summary.items():
        assert _conserved(entry), name
        assert 0.0 < entry["hit_rate"] <= 1.0, name
        # a classified would-hit counter can never exceed the misses
        assert entry["would_hit_more_ways"] <= entry["misses"]
        assert entry["would_hit_more_sets"] <= entry["misses"]


def test_replay_misses_matches_live(tmp_path, capsys):
    """explain --misses over a JSONL capture prints the live why-miss
    section: fig07's five systems merge as they did live, and fig04's
    per-set conflict counts survive the replay."""
    from repro.harness import run_experiment
    from repro.obs.capture import CaptureSpec, capture_scope
    from repro.obs.explain import main

    spec = CaptureSpec(events_path=str(tmp_path / "ev.jsonl"), misses=True)
    live = {}
    for exp_id in ("fig07", "fig04"):
        with capture_scope(spec.for_experiment(exp_id)) as cap:
            run_experiment(exp_id, "ci")
        live[exp_id] = cap.summary_text
        assert live[exp_id].startswith("-- why-miss (repro.obs.cachelens) --")
        if exp_id == "fig07":
            assert cap.systems_observed == 5
        trace = str(tmp_path / f"ev.{exp_id}.jsonl")
        assert main([trace, "--misses"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n" + live[exp_id] + "\n")
    assert "hottest conflict sets" in live["fig04"]


def test_perfetto_cache_counter_tracks():
    from repro.obs.export import PerfettoExporter

    exporter = PerfettoExporter(io.StringIO())
    exporter.handle(CacheFill(cycle=1, component="ctl", tag=(0,),
                              set_index=0, way=0))
    exporter.handle(CacheEvict(cycle=5, component="ctl", tag=(0,),
                               set_index=0, way=0, reason="conflict"))
    counters = [e for e in exporter.trace_events if e.get("ph") == "C"]
    assert [c["args"]["entries"] for c in counters] == [1, 0]
    assert counters[-1]["args"]["evictions"] == 1


def test_slo_gate_budgets_cache_health():
    from repro.obs.regress import check_slo

    summary = {"suite": "s", "components": {
        "dsa": {"requests": 100, "latency_p50": 5, "latency_p99": 50,
                "hit_rate": 0.6, "conflict_share": 0.2}}}
    policy = {"suites": {"s": {"min_hit_rate": 0.7,
                               "max_conflict_share": 0.1}}}
    checks = {c.metric: c for c in check_slo(summary, policy)}
    assert not checks["dsa.hit_rate"].ok
    assert not checks["dsa.conflict_share"].ok
    policy = {"suites": {"s": {"min_hit_rate": 0.5,
                               "max_conflict_share": 0.25}}}
    assert all(c.ok for c in check_slo(summary, policy))


def test_event_json_round_trip_cache_events():
    """Satellite: the new cache events survive the JSONL wire format."""
    from repro.obs.events import event_from_json
    from repro.obs.export import event_to_dict

    originals = [
        CacheModel(cycle=1, component="c", kind="addr", ways=2, sets=8,
                   block_bytes=64, tag_class="addr"),
        CacheFill(cycle=2, component="c", tag=(3, 4), set_index=1,
                  way=0),
        CacheEvict(cycle=3, component="c", tag=(5,), set_index=2,
                   way=1, reason="dealloc"),
        CacheAccess(cycle=4, component="c", tag=(4096,), set_index=3,
                    outcome="mshr_stall", is_write=True),
        Miss(cycle=5, component="c", tag=(6,), set_index=9),
    ]
    for original in originals:
        wire = json.loads(json.dumps(event_to_dict(original)))
        rebuilt = event_from_json(wire)
        assert rebuilt == original
        assert type(rebuilt) is type(original)
