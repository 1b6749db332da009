"""Unit + property tests for the chained hash index."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data import HashIndex, fnv1a64
from repro.mem import MemoryImage


def build(pairs, buckets=16):
    image = MemoryImage()
    return image, HashIndex.build(image, pairs, buckets)


def test_fnv_deterministic():
    assert fnv1a64(42) == fnv1a64(42)
    assert fnv1a64(42) != fnv1a64(43)


def test_fnv_is_64bit():
    assert 0 <= fnv1a64(2**63) < 2**64


def test_insert_and_probe():
    _image, index = build([(10, 100), (20, 200)])
    assert index.probe(10) == 100
    assert index.probe(20) == 200


def test_probe_missing_key():
    _image, index = build([(1, 11)])
    assert index.probe(999) is None


def test_chain_collision_resolution():
    # Force collisions with a single bucket.
    pairs = [(k, k * 10) for k in range(1, 9)]
    _image, index = build(pairs, buckets=1)
    for k, rid in pairs:
        assert index.probe(k) == rid
    assert index.max_chain() == 8


def test_probe_with_walk_lengths():
    pairs = [(k, k) for k in range(1, 5)]
    _image, index = build(pairs, buckets=1)
    # Head of chain is the most recent insert -> walk length 1.
    _rid, walk = index.probe_with_walk(4)
    assert len(walk) == 1
    _rid, walk = index.probe_with_walk(1)
    assert len(walk) == 4


def test_probe_missing_walks_whole_chain():
    pairs = [(k, k) for k in range(1, 4)]
    _image, index = build(pairs, buckets=1)
    rid, walk = index.probe_with_walk(99)
    assert rid is None
    assert len(walk) == 3


def test_nodes_are_block_aligned():
    image, index = build([(7, 70), (8, 80)])
    for key in (7, 8):
        _rid, walk = index.probe_with_walk(key)
        for node in walk:
            assert node % HashIndex.NODE_BYTES == 0


def test_node_layout_in_image():
    image, index = build([(0xABCD, 0x1234)])
    _rid, walk = index.probe_with_walk(0xABCD)
    node = walk[-1]
    assert image.read_u64(node + HashIndex.KEY_OFF) == 0xABCD
    assert image.read_u64(node + HashIndex.RID_OFF) == 0x1234


def test_load_factor_and_counts():
    _image, index = build([(k, k) for k in range(32)], buckets=16)
    assert index.num_entries == 32
    assert index.load_factor() == 2.0


def test_bucket_count_validation():
    image = MemoryImage()
    with pytest.raises(ValueError):
        HashIndex(image, 12)
    with pytest.raises(ValueError):
        HashIndex(image, 0)


def test_bucket_root_entry_addresses():
    image = MemoryImage()
    index = HashIndex(image, 8)
    assert index.bucket_root_entry(3) == index.table_addr + 24


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=2**48),
                       st.integers(min_value=0, max_value=2**32),
                       min_size=1, max_size=64))
def test_probe_returns_inserted_rid_property(mapping):
    _image, index = build(list(mapping.items()), buckets=16)
    for key, rid in mapping.items():
        assert index.probe(key) == rid


@settings(max_examples=15, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=2**48), min_size=1,
               max_size=40))
def test_walk_never_longer_than_chain_property(keys):
    pairs = [(k, k & 0xFFFF) for k in keys]
    _image, index = build(pairs, buckets=4)
    for k in keys:
        _rid, walk = index.probe_with_walk(k)
        assert 1 <= len(walk) <= index.chain_length(k)


# ----------------------------------------------------------------------
# bulk layout vs the insert-at-head loop it replaced
# ----------------------------------------------------------------------
_MASK64 = (1 << 64) - 1


def fnv1a64_reference(key):
    """The byte-at-a-time shift loop ``fnv1a64`` must equal."""
    h = 0xCBF29CE484222325
    for _ in range(8):
        h ^= key & 0xFF
        h = (h * 0x100000001B3) & _MASK64
        key >>= 8
    return h


def insert_at_head(image, pairs, num_buckets):
    """Insert each pair at the head of its bucket, one node per
    allocation; returns (table_addr, chain length per bucket)."""
    table = image.alloc(8 * num_buckets, align=64)
    chains = {}
    for key, rid in pairs:
        bucket = fnv1a64_reference(key) & (num_buckets - 1)
        root = table + 8 * bucket
        node = image.alloc(64, align=64)
        image.write_u64(node, key)
        image.write_u64(node + 8, rid)
        image.write_u64(node + 16, image.read_u64(root))
        image.write_u64(root, node)
        chains[bucket] = chains.get(bucket, 0) + 1
    return table, chains


@settings(max_examples=150, derandomize=True, deadline=None)
@given(pairs=st.lists(st.tuples(
           st.one_of(st.integers(0, 40), st.integers(0, _MASK64)),
           st.integers(0, _MASK64)), max_size=80),
       num_buckets=st.integers(0, 8).map(lambda e: 1 << e),
       prior=st.one_of(st.none(), st.integers(1, 200)))
def test_build_matches_insert_at_head(pairs, num_buckets, prior):
    images = [MemoryImage(), MemoryImage()]
    if prior is not None:
        for image in images:
            image.alloc(prior, align=1)
    index = HashIndex.build(images[0], pairs, num_buckets)
    table, chains = insert_at_head(images[1], pairs, num_buckets)
    bulk, ref = images
    assert bulk.used == ref.used
    assert bulk.read_block(0, bulk.used) == ref.read_block(0, ref.used)
    assert index.table_addr == table
    assert index.num_entries == len(pairs)
    assert index.max_chain() == max(chains.values(), default=0)
    for key, _rid in pairs:
        bucket = fnv1a64_reference(key) & (num_buckets - 1)
        assert index.chain_length(key) == chains[bucket]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(min_value=-2**70, max_value=2**70))
@example(0)
@example(_MASK64)
@example(-1)
@example(1 << 64)
def test_fnv1a64_matches_shift_loop(key):
    assert fnv1a64(key) == fnv1a64_reference(key)


@pytest.mark.parametrize("pair", [((1 << 64) + 5, 77), (-3, 1), (5, -1),
                                  (5, 1 << 64)])
def test_build_rejects_keys_and_rids_outside_u64(pair):
    # stored as u64 they would alias: 2**64 + 5 would be found as 5
    image = MemoryImage()
    with pytest.raises(ValueError, match=r"pairs\[1\]"):
        HashIndex.build(image, [(1, 2), pair, (-7, 3)], 16)


# ----------------------------------------------------------------------
# a kept layout, written again into a second image
# ----------------------------------------------------------------------
@settings(max_examples=60, derandomize=True, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, _MASK64),
                                st.integers(0, _MASK64)), max_size=40),
       num_buckets=st.integers(0, 6).map(lambda e: 1 << e),
       prior=st.integers(0, 200))
def test_placed_layout_equals_the_build(pairs, num_buckets, prior):
    from repro.data.hashindex import IndexLayout

    images = [MemoryImage(), MemoryImage()]
    for image in images:
        image.alloc(prior, align=1)
    built, layout = IndexLayout.build(images[0], pairs, num_buckets)
    placed = layout.place(images[1])
    first, second = images
    assert second.used == first.used
    assert second.read_block(0, second.used) == \
        first.read_block(0, first.used)
    assert vars(placed).keys() == vars(built).keys()
    for name in ("table_addr", "num_buckets", "num_entries"):
        assert getattr(placed, name) == getattr(built, name)
    for key, _rid in pairs:
        assert placed.chain_length(key) == built.chain_length(key)
        assert placed.probe_with_walk(key) == built.probe_with_walk(key)


def test_layout_refuses_an_image_at_another_break():
    from repro.data.hashindex import IndexLayout

    _index, layout = IndexLayout.build(MemoryImage(), [(1, 2), (3, 4)], 4)
    image = MemoryImage()
    image.alloc(8)
    with pytest.raises(ValueError, match="break"):
        layout.place(image)
    assert image.used == 72
