"""The Widx and DASX models' functional reference and shared layout.

Every variant fixes its expected answer per distinct probe key from the
index as built, before the simulation starts, and checks every response
against it. Models built from one workload object lay the index out
once and compute each reference kind once.
"""

import gc
from collections import Counter

import pytest

from repro.core.config import table3_config
from repro.core.messages import reset_ids
from repro.data import HashIndex
from repro.dsa import widx as widx_module
from repro.dsa import (
    DasxAddressModel,
    DasxBaselineModel,
    DasxXCacheModel,
    WidxAddressModel,
    WidxBaselineModel,
    WidxXCacheModel,
)
from repro.mem import MemoryImage
from repro.sim import checkpoint as ck
from repro.workloads import make_widx_workload

WIDX = table3_config("widx", scale=0.03125)
DASX = table3_config("dasx", scale=0.03125)

VARIANTS = {
    "widx-xcache": lambda wl: WidxXCacheModel(wl, config=WIDX),
    "widx-baseline": lambda wl: WidxBaselineModel(wl, num_walkers=2),
    "widx-addr": lambda wl: WidxAddressModel(wl, xcache_config=WIDX),
    "dasx-xcache": lambda wl: DasxXCacheModel(wl, config=DASX,
                                              round_size=32),
    "dasx-baseline": lambda wl: DasxBaselineModel(wl, round_size=32),
    "dasx-addr": lambda wl: DasxAddressModel(wl, xcache_config=DASX,
                                             round_size=32),
}


#: the three Figure-14 variants of each DSA, built from one workload
TRIOS = {
    "widx": ("widx-xcache", "widx-baseline", "widx-addr"),
    "dasx": ("dasx-xcache", "dasx-baseline", "dasx-addr"),
}


def make_workload():
    # skewed, with absent keys: most probe keys repeat, some miss
    wl = make_widx_workload(num_keys=128, num_probes=384, num_buckets=64,
                            skew=1.2, hash_cycles=20, seed=5)
    assert len(set(wl.probes)) < len(wl.probes)
    return wl


@pytest.fixture
def workload():
    """A fresh workload object per test: models built from one object
    share its index layout and references."""
    return make_workload()


def count_builds(monkeypatch):
    """Record the image of every index layout: HashIndex.build and the
    registry's first build both hash and pack through _build."""
    builds = []
    original = HashIndex._build.__func__

    def counted(cls, image, pairs, num_buckets):
        builds.append(image)
        return original(cls, image, pairs, num_buckets)

    monkeypatch.setattr(HashIndex, "_build", classmethod(counted))
    return builds


def count_calls(monkeypatch, names):
    """Count calls of the named HashIndex methods, per (name, key)."""
    calls = Counter()
    for name in names:
        original = getattr(HashIndex, name)

        def counted(self, key, _name=name, _original=original):
            calls[_name, key] += 1
            return _original(self, key)

        monkeypatch.setattr(HashIndex, name, counted)
    return calls


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_reference_probes_each_distinct_key_once(variant, workload,
                                                 monkeypatch):
    calls = count_calls(monkeypatch, ("probe", "probe_with_walk"))
    result = VARIANTS[variant](workload).run()
    assert result.checks_passed
    assert calls, "the model never consulted the index"
    assert max(calls.values()) == 1, calls.most_common(3)


@pytest.mark.parametrize("variant, first", [
    pytest.param("widx-xcache", None, id="widx-xcache"),
    pytest.param("dasx-xcache", None, id="dasx-xcache"),
    pytest.param("widx-xcache", "widx-xcache", id="widx-xcache-built-second"),
    pytest.param("dasx-xcache", "dasx-xcache", id="dasx-xcache-built-second"),
])
def test_memory_changed_after_construction_fails_check(variant, first,
                                                       workload):
    if first is not None:
        # lays the index out and fixes the reference the model reuses
        VARIANTS[first](workload)
    model = VARIANTS[variant](workload)
    present = {key for key, _rid in workload.pairs}
    key = next(k for k in workload.probes if k in present)
    rid, walk = model.index.probe_with_walk(key)
    model.system.image.write_u64(walk[-1] + HashIndex.RID_OFF, rid + 1)
    assert not model.run().checks_passed


def shared_entries(*workloads):
    """The registry entries of ``workloads``."""
    return [entry for entry in widx_module._SHARED.values()
            if any(entry.workload() is wl for wl in workloads)]


@pytest.mark.parametrize("dsa", sorted(TRIOS))
def test_one_layout_and_reference_per_workload(dsa, monkeypatch):
    # each variant on its own workload object: nothing shared
    alone = {v: VARIANTS[v](make_workload()).run() for v in TRIOS[dsa]}
    workload = make_workload()
    standalone = MemoryImage()
    HashIndex.build(standalone, workload.pairs, workload.num_buckets)
    builds = count_builds(monkeypatch)
    calls = count_calls(monkeypatch, ("probe", "probe_with_walk"))
    models = {v: VARIANTS[v](workload) for v in TRIOS[dsa]}
    assert len(builds) == 1
    # the X-Cache model's rid table probes each distinct key once, and
    # probe() walks through probe_with_walk(); the baseline's walk table
    # walks each key once more, and the address model reuses it
    keys = set(workload.probes)
    assert {key for _name, key in calls} == keys
    assert all(calls["probe", key] == 1 for key in keys)
    assert all(calls["probe_with_walk", key] == 2 for key in keys)
    for variant, model in models.items():
        image = (model.system.image if hasattr(model, "system")
                 else model.image)
        assert image.used == standalone.used, variant
        assert (image.read_block(0, image.used)
                == standalone.read_block(0, standalone.used)), variant
    for variant, model in models.items():
        assert model.run() == alone[variant], variant
        assert alone[variant].checks_passed


def test_equal_workloads_share_nothing_and_entries_die(monkeypatch):
    builds = count_builds(monkeypatch)
    first, second = make_workload(), make_workload()
    assert first == second and first is not second
    models = [VARIANTS[v](wl) for wl in (first, second)
              for v in ("widx-xcache", "widx-baseline")]
    assert len(builds) == 2
    entries = shared_entries(first, second)
    assert len(entries) == 2
    refs = [entry.workload for entry in entries]
    del first, second, models, entries
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert not any(entry.workload is ref
                   for entry in widx_module._SHARED.values() for ref in refs)
    # no entry outlives its workload
    assert all(entry.workload() is not None
               for entry in widx_module._SHARED.values())


def test_entry_of_another_workload_is_not_used(workload, monkeypatch):
    # ids are reused once an object dies: an entry found under a
    # workload's id serves it only while its weakref still reaches it
    VARIANTS["widx-xcache"](workload)
    other = make_widx_workload(num_keys=128, num_probes=384,
                               num_buckets=64, skew=1.2, hash_cycles=20,
                               seed=6)
    monkeypatch.setitem(widx_module._SHARED, id(other),
                        widx_module._SHARED[id(workload)])
    builds = count_builds(monkeypatch)
    assert VARIANTS["widx-xcache"](other).run().checks_passed
    assert len(builds) == 1
    assert widx_module._SHARED[id(other)].workload() is other


def test_image_at_another_break_builds_its_own(workload):
    first = VARIANTS["widx-baseline"](workload)
    model = VARIANTS["widx-baseline"](workload)
    image = MemoryImage()
    image.alloc(100, align=1)
    index, table = widx_module._index_with(
        image, workload, widx_module._walk_reference)
    assert index.table_addr != first.index.table_addr
    assert table is not first._reference
    assert table == widx_module._walk_reference(index, workload.probes)
    assert model._reference is first._reference


@pytest.mark.parametrize("variant", ["widx-xcache", "dasx-xcache"])
def test_model_built_second_snapshots_like_the_first(variant, workload,
                                                     tmp_path):
    digests = []
    for i in range(2):
        reset_ids()
        model = VARIANTS[variant](workload)
        ck.warm_model(model, 1000)
        header = ck.save_model(str(tmp_path / f"{i}.ckpt"), model)
        assert header["cycle"] == 1000
        digests.append(header["payload_sha256"])
    assert len(shared_entries(workload)) == 1
    assert digests[0] == digests[1]
