"""Unit tests for the meta-tag array."""

import pytest

from repro.core import MetaTagArray
from repro.core.messages import DEFAULT_STATE, VALID_STATE


def make(ways=2, sets=4, fields=("key",)):
    return MetaTagArray(ways, sets, fields)


def test_geometry_validation():
    with pytest.raises(ValueError):
        make(ways=0)
    with pytest.raises(ValueError):
        make(sets=3)


def test_lookup_miss_returns_none():
    tags = make()
    assert tags.lookup((1,)) is None


def test_allocate_then_lookup():
    tags = make()
    entry = tags.allocate((5,), now=0)
    assert entry is not None
    assert entry.tag == (5,)
    assert entry.state == DEFAULT_STATE
    assert tags.lookup((5,)) is entry


def test_duplicate_allocate_rejected():
    tags = make()
    tags.allocate((5,), now=0)
    with pytest.raises(ValueError):
        tags.allocate((5,), now=1)


def test_tag_arity_checked():
    tags = make(fields=("row", "col"))
    with pytest.raises(ValueError):
        tags.check_tag((1,))
    tags.check_tag((1, 2))


def test_set_mapping_uses_first_field_directly():
    tags = make(ways=1, sets=8)
    assert tags.set_of((3,)) == 3
    assert tags.set_of((11,)) == 3  # wraps by mask


def test_multi_field_tags_spread():
    tags = make(ways=1, sets=64, fields=("row", "col"))
    indices = {tags.set_of((1, c)) for c in range(32)}
    assert len(indices) > 8


def test_lru_eviction_of_inactive():
    tags = make(ways=2, sets=1)
    e1 = tags.allocate((1,), now=0)
    e2 = tags.allocate((2,), now=1)
    tags.touch(e1, 5)
    e3 = tags.allocate((3,), now=6)  # evicts (2,) - LRU
    assert tags.lookup((2,)) is None
    assert tags.lookup((1,)) is e1
    assert tags.lookup((3,)) is e3
    assert tags.stats.get("evictions") == 1


def test_active_entries_never_evicted():
    tags = make(ways=1, sets=1)
    e1 = tags.allocate((1,), now=0)
    tags.mark_active(e1)
    assert tags.allocate((2,), now=1) is None
    assert tags.stats.get("alloc_conflicts") == 1
    assert not tags.can_allocate((2,))


def test_can_allocate_with_free_way():
    tags = make(ways=2, sets=1)
    e1 = tags.allocate((1,), now=0)
    tags.mark_active(e1)
    assert tags.can_allocate((2,))


def test_deallocate_returns_sector_range():
    tags = make()
    entry = tags.allocate((9,), now=0)
    entry.sector_start = 4
    entry.sector_end = 8
    released = tags.deallocate((9,))
    assert (released.sector_start, released.sector_end) == (4, 8)
    assert tags.lookup((9,)) is None


def test_deallocate_missing_raises():
    with pytest.raises(KeyError):
        make().deallocate((1,))


def test_servable_requires_valid_state():
    tags = make()
    entry = tags.allocate((1,), now=0)
    assert not entry.servable
    entry.state = VALID_STATE
    assert entry.servable
    entry.active = True
    assert not entry.servable


def test_occupancy_and_active_count():
    tags = make(ways=4, sets=4)
    e1 = tags.allocate((1,), now=0)
    tags.allocate((2,), now=0)
    tags.mark_active(e1)
    assert tags.occupancy() == 2
    assert tags.active_walkers() == 1
    assert tags.active_walkers() == tags.active_walkers_scan()


def test_active_counter_tracks_scan_through_churn():
    """The O(1) counter stays equal to the reference scan through
    mark/clear (idempotent), conflict evictions, and deallocations."""
    tags = make(ways=2, sets=2)
    entries = {}
    for k in range(4):
        entries[k] = tags.allocate((k,), now=k)
        assert tags.active_walkers() == tags.active_walkers_scan()
    tags.mark_active(entries[0])
    tags.mark_active(entries[0])      # idempotent
    tags.mark_active(entries[1])
    assert tags.active_walkers() == 2 == tags.active_walkers_scan()
    tags.clear_active(entries[0])
    tags.clear_active(entries[0])     # idempotent
    assert tags.active_walkers() == 1 == tags.active_walkers_scan()
    # dealloc of an active entry drops the counter with it
    tags.deallocate(entries[1].tag)
    assert tags.active_walkers() == 0 == tags.active_walkers_scan()
    # conflict eviction of an inactive victim leaves it untouched
    tags.mark_active(entries[2])
    tags.allocate((10,), now=10)      # evicts an inactive way
    assert tags.active_walkers() == 1 == tags.active_walkers_scan()


def test_entries_iteration():
    tags = make(ways=4, sets=4)
    for k in range(3):
        tags.allocate((k,), now=0)
    assert len(tags.entries()) == 3


def test_eviction_reuses_way_for_new_tag():
    tags = make(ways=1, sets=1)
    tags.allocate((1,), now=0)
    e2 = tags.allocate((2,), now=1)
    assert e2.tag == (2,)
    assert e2.state == DEFAULT_STATE
