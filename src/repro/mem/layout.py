"""Flat byte-addressable memory image.

The paper's walkers chase *real* pointers: a Widx bucket node holds the
global address of its successor, a CSR row is located through ``row_ptr``
offsets. To keep the reproduction honest, host data structures are laid
out into a flat :class:`MemoryImage` (a bump-allocated bytearray) and the
walkers compute and dereference real addresses inside it — exactly the
accesses an address-based cache would have to make.
"""

from __future__ import annotations

import struct

__all__ = ["MemoryImage", "OutOfMemoryError"]

_U_STRUCTS = {n: struct.Struct(f) for n, f in
              ((1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q"))}
_S_STRUCTS = {n: struct.Struct(f) for n, f in
              ((1, "<b"), (2, "<h"), (4, "<i"), (8, "<q"))}
_F64 = struct.Struct("<d")
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


class OutOfMemoryError(MemoryError):
    """Allocation beyond the configured image size."""


class MemoryImage:
    """A bump allocator over a flat little-endian byte array.

    Address 0 is reserved as the null pointer; allocation starts at
    ``base``. The image grows lazily up to ``size`` bytes.
    """

    NULL = 0

    def __init__(self, size: int = 1 << 26, base: int = 64) -> None:
        if base <= 0:
            raise ValueError("base must leave address 0 as NULL")
        self.size = size
        self._data = bytearray(min(size, 1 << 16))
        self._brk = base

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Reserve ``nbytes`` (aligned) and return the base address."""
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes}")
        if align & (align - 1):
            raise ValueError(f"alignment {align} is not a power of two")
        addr = (self._brk + align - 1) & ~(align - 1)
        end = addr + nbytes
        if end > self.size:
            raise OutOfMemoryError(
                f"image exhausted: want {nbytes}B at {addr:#x}, size {self.size:#x}"
            )
        self._ensure(end)
        self._brk = end
        return addr

    @property
    def used(self) -> int:
        """Bytes consumed so far (high-water mark)."""
        return self._brk

    def _ensure(self, end: int) -> None:
        if end > len(self._data):
            new_len = len(self._data)
            while new_len < end:
                new_len *= 2
            self._data.extend(b"\x00" * (min(new_len, self.size) - len(self._data)))

    def _check_range(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise IndexError(f"access [{addr:#x}, {addr + nbytes:#x}) outside image")
        self._ensure(addr + nbytes)

    # ------------------------------------------------------------------
    # scalar accessors. These and the block accessors make one bounds
    # test against the grown buffer (never longer than ``size``); only
    # past its end does _check_range raise (beyond ``size``) or grow it
    # ------------------------------------------------------------------
    def read_uint(self, addr: int, nbytes: int) -> int:
        if addr < 0 or addr + nbytes > len(self._data):
            self._check_range(addr, nbytes)
        return _U_STRUCTS[nbytes].unpack_from(self._data, addr)[0]

    def write_uint(self, addr: int, nbytes: int, value: int) -> None:
        if addr < 0 or addr + nbytes > len(self._data):
            self._check_range(addr, nbytes)
        _U_STRUCTS[nbytes].pack_into(self._data, addr,
                                     value & ((1 << (8 * nbytes)) - 1))

    def read_int(self, addr: int, nbytes: int) -> int:
        if addr < 0 or addr + nbytes > len(self._data):
            self._check_range(addr, nbytes)
        return _S_STRUCTS[nbytes].unpack_from(self._data, addr)[0]

    def write_int(self, addr: int, nbytes: int, value: int) -> None:
        if addr < 0 or addr + nbytes > len(self._data):
            self._check_range(addr, nbytes)
        _S_STRUCTS[nbytes].pack_into(self._data, addr, value)

    def read_u32(self, addr: int) -> int:
        return self.read_uint(addr, 4)

    def write_u32(self, addr: int, value: int) -> None:
        self.write_uint(addr, 4, value)

    def read_u64(self, addr: int) -> int:
        return self.read_uint(addr, 8)

    def write_u64(self, addr: int, value: int) -> None:
        self.write_uint(addr, 8, value)

    def read_f64(self, addr: int) -> float:
        if addr < 0 or addr + 8 > len(self._data):
            self._check_range(addr, 8)
        return _F64.unpack_from(self._data, addr)[0]

    def write_f64(self, addr: int, value: float) -> None:
        if addr < 0 or addr + 8 > len(self._data):
            self._check_range(addr, 8)
        _F64.pack_into(self._data, addr, value)

    # ------------------------------------------------------------------
    # block accessors (cache-line transfers)
    # ------------------------------------------------------------------
    def read_block(self, addr: int, nbytes: int) -> bytes:
        if addr < 0 or addr + nbytes > len(self._data):
            self._check_range(addr, nbytes)
        return bytes(self._data[addr:addr + nbytes])

    def write_block(self, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > len(self._data):
            self._check_range(addr, len(data))
        self._data[addr:addr + len(data)] = data

    # ------------------------------------------------------------------
    # array helpers used by the data-structure builders: one allocation
    # and one block write each, masked to width like write_u32/write_u64
    # ------------------------------------------------------------------
    def _alloc_array(self, code: str, width: int, items: list) -> int:
        addr = self.alloc(width * len(items), align=8)
        self.write_block(addr, struct.pack(f"<{len(items)}{code}", *items))
        return addr

    def alloc_u32_array(self, values) -> int:
        return self._alloc_array("I", 4, [int(v) & _MASK32 for v in values])

    def alloc_u64_array(self, values) -> int:
        return self._alloc_array("Q", 8, [int(v) & _MASK64 for v in values])

    def alloc_f64_array(self, values) -> int:
        return self._alloc_array("d", 8, [float(v) for v in values])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryImage(used={self._brk:#x}, size={self.size:#x})"
