"""Chained-bucket hash index laid out in the memory image.

This is the data structure Widx and DASX walk: a database hash index
mapping keys to RIDs (row ids). Buckets are singly linked lists of
nodes; the bucket-root table is a flat array of node pointers.

Node layout in the image (64 bytes, one per index entry)::

    +0   key      u64
    +8   rid      u64
    +16  next     u64   (address of next node, 0 = end of chain)
    +24  pad      (payload columns)

Nodes are block-sized and block-aligned: in a 100 GB database, index
entries carry payload and do not share DRAM blocks, so a node fill is
exactly one block ("the data fill ... is a single node").
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..mem.layout import MemoryImage

__all__ = ["HashIndex", "IndexLayout", "fnv1a64"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _u64_bytes(words: array) -> memoryview:
    """An ``array('Q')``'s bytes in the image's little-endian order, as a
    view (a second copy of a large node block would raise peak RSS)."""
    if sys.byteorder == "big":
        words.byteswap()
    return memoryview(words).cast("B")


def fnv1a64(key: int) -> int:
    """FNV-1a over the key's 8 little-endian bytes (two's complement, so
    a negative key hashes as ``key mod 2**64``).

    Used as the index hash; the paper models expensive *string* hashing
    (TPC-H 19/20) as a latency parameter on top of this function.
    """
    h = _FNV_OFFSET
    for byte in (key & _MASK64).to_bytes(8, "little"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class HashIndex:
    """A chained hash index resident in a :class:`MemoryImage`."""

    NODE_BYTES = 64
    KEY_OFF = 0
    RID_OFF = 8
    NEXT_OFF = 16

    def __init__(self, image: MemoryImage, num_buckets: int) -> None:
        if num_buckets <= 0 or num_buckets & (num_buckets - 1):
            raise ValueError("num_buckets must be a positive power of two")
        self.image = image
        self.num_buckets = num_buckets
        self.table_addr = image.alloc(8 * num_buckets, align=64)
        self.num_entries = 0
        self._chain_lengths: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def bucket_of(self, key: int) -> int:
        return fnv1a64(key) & (self.num_buckets - 1)

    def bucket_root_entry(self, bucket: int) -> int:
        """Address of the root-pointer slot for ``bucket`` (the META access)."""
        return self.table_addr + 8 * bucket

    @classmethod
    def build(cls, image: MemoryImage, pairs: Iterable[Tuple[int, int]],
              num_buckets: int) -> "HashIndex":
        """Lay out ``pairs`` as if each were inserted at the head of its
        bucket, in order: one allocation for every node, then one block
        write for the nodes and one for the bucket table.

        Keys and RIDs are stored as u64, so one outside [0, 2**64) would
        alias another; it raises :class:`ValueError` instead.
        """
        return cls._build(image, pairs, num_buckets)[0]

    @classmethod
    def _build(cls, image: MemoryImage, pairs: Iterable[Tuple[int, int]],
               num_buckets: int
               ) -> Tuple["HashIndex", memoryview, memoryview]:
        """:meth:`build`, returning the node block and the bucket table
        it wrote as well (both empty when it wrote nothing)."""
        pairs = list(pairs)
        for i, (key, rid) in enumerate(pairs):
            if not (0 <= key <= _MASK64 and 0 <= rid <= _MASK64):
                raise ValueError(f"pairs[{i}] = ({key}, {rid}): key and rid "
                                 f"must lie in [0, 2**64)")
        index = cls(image, num_buckets)
        if not pairs:   # alloc(0, align=64) would still move the break
            return index, memoryview(b""), memoryview(b"")
        size = cls.NODE_BYTES
        base = image.alloc(size * len(pairs), align=size)
        heads = [MemoryImage.NULL] * num_buckets
        nexts = [MemoryImage.NULL] * len(pairs)
        chains = index._chain_lengths
        mask = num_buckets - 1
        for i, (key, _rid) in enumerate(pairs):
            bucket = fnv1a64(key) & mask
            nexts[i] = heads[bucket]
            heads[bucket] = base + size * i
            chains[bucket] = chains.get(bucket, 0) + 1
        # one u64 word per 8 node bytes; the zeroed rest is the padding
        stride = size // 8
        nodes = array("Q", [0]) * (stride * len(pairs))
        nodes[cls.KEY_OFF // 8::stride] = array("Q", [k for k, _r in pairs])
        nodes[cls.RID_OFF // 8::stride] = array("Q", [r for _k, r in pairs])
        nodes[cls.NEXT_OFF // 8::stride] = array("Q", nexts)
        node_block = _u64_bytes(nodes)
        table = _u64_bytes(array("Q", heads))
        image.write_block(base, node_block)
        image.write_block(index.table_addr, table)
        index.num_entries = len(pairs)
        return index, node_block, table

    # ------------------------------------------------------------------
    # functional probes (ground truth for the DSA models)
    # ------------------------------------------------------------------
    def probe(self, key: int) -> Optional[int]:
        """Walk the chain for ``key``; returns the RID or None."""
        node, _ = self.probe_with_walk(key)
        return node

    def probe_with_walk(self, key: int) -> Tuple[Optional[int], List[int]]:
        """Like :meth:`probe` but also returns the node addresses touched.

        The walk list is what an address-based cache must fetch: the
        bucket-root entry is excluded (it is a table access), each node
        visited appears once.
        """
        bucket = self.bucket_of(key)
        current = self.image.read_u64(self.bucket_root_entry(bucket))
        walked: List[int] = []
        while current != MemoryImage.NULL:
            walked.append(current)
            if self.image.read_u64(current + self.KEY_OFF) == key:
                return self.image.read_u64(current + self.RID_OFF), walked
            current = self.image.read_u64(current + self.NEXT_OFF)
        return None, walked

    def chain_length(self, key: int) -> int:
        """Nodes in the key's bucket (walk length upper bound)."""
        return self._chain_lengths.get(self.bucket_of(key), 0)

    def load_factor(self) -> float:
        return self.num_entries / self.num_buckets

    def max_chain(self) -> int:
        return max(self._chain_lengths.values(), default=0)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"HashIndex(buckets={self.num_buckets}, "
                f"entries={self.num_entries}, max_chain={self.max_chain()})")


class IndexLayout(NamedTuple):
    """A built index's two blocks, kept to lay the same index out again.

    Node ``next`` pointers and bucket roots are absolute addresses, so
    the blocks are valid only in an image whose break stands at ``brk``,
    where the build started.
    """

    brk: int
    num_buckets: int
    nodes: memoryview
    table: memoryview
    chain_lengths: Dict[int, int]

    @classmethod
    def build(cls, image: MemoryImage, pairs: Iterable[Tuple[int, int]],
              num_buckets: int) -> Tuple[HashIndex, "IndexLayout"]:
        """:meth:`HashIndex.build` in ``image``, and the layout it wrote."""
        brk = image.used
        index, nodes, table = HashIndex._build(image, pairs, num_buckets)
        return index, cls(brk, num_buckets, nodes, table,
                          index._chain_lengths)

    def place(self, image: MemoryImage) -> HashIndex:
        """The same index in ``image``: the allocations and block writes
        :meth:`HashIndex.build` makes there, without hashing a key."""
        if image.used != self.brk:
            raise ValueError(f"image break {image.used:#x} is not the "
                             f"layout's {self.brk:#x}")
        index = HashIndex(image, self.num_buckets)
        if self.nodes:
            base = image.alloc(len(self.nodes), align=HashIndex.NODE_BYTES)
            image.write_block(base, self.nodes)
            image.write_block(index.table_addr, self.table)
        index.num_entries = len(self.nodes) // HashIndex.NODE_BYTES
        index._chain_lengths = self.chain_lengths
        return index
