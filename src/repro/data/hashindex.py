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

import struct
from typing import Dict, Iterable, List, Optional, Tuple

from ..mem.layout import MemoryImage

__all__ = ["HashIndex", "fnv1a64"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_NODE_HEAD = struct.Struct("<QQQ")   # key, rid, next


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
        pairs = list(pairs)
        for i, (key, rid) in enumerate(pairs):
            if not (0 <= key <= _MASK64 and 0 <= rid <= _MASK64):
                raise ValueError(f"pairs[{i}] = ({key}, {rid}): key and rid "
                                 f"must lie in [0, 2**64)")
        index = cls(image, num_buckets)
        if not pairs:   # alloc(0, align=64) would still move the break
            return index
        size = cls.NODE_BYTES
        base = image.alloc(size * len(pairs), align=size)
        nodes = bytearray(size * len(pairs))
        heads = [MemoryImage.NULL] * num_buckets
        chains = index._chain_lengths
        mask = num_buckets - 1
        pack_into = _NODE_HEAD.pack_into
        for i, (key, rid) in enumerate(pairs):
            bucket = fnv1a64(key) & mask
            pack_into(nodes, size * i, key, rid, heads[bucket])
            heads[bucket] = base + size * i
            chains[bucket] = chains.get(bucket, 0) + 1
        image.write_block(base, nodes)
        image.write_block(index.table_addr,
                          struct.pack(f"<{num_buckets}Q", *heads))
        index.num_entries = len(pairs)
        return index

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
