"""Unit tests for the flat memory image."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import MemoryImage, OutOfMemoryError


def test_null_address_reserved():
    image = MemoryImage()
    addr = image.alloc(8)
    assert addr != 0
    assert MemoryImage.NULL == 0


def test_alloc_alignment():
    image = MemoryImage()
    image.alloc(3, align=1)
    addr = image.alloc(8, align=64)
    assert addr % 64 == 0


def test_alloc_bad_alignment_rejected():
    with pytest.raises(ValueError):
        MemoryImage().alloc(8, align=3)


def test_alloc_negative_rejected():
    with pytest.raises(ValueError):
        MemoryImage().alloc(-1)


def test_out_of_memory():
    image = MemoryImage(size=1024)
    with pytest.raises(OutOfMemoryError):
        image.alloc(2048)


def test_allocations_do_not_overlap():
    image = MemoryImage()
    spans = []
    for size in (8, 24, 64, 3, 100):
        addr = image.alloc(size)
        spans.append((addr, addr + size))
    spans.sort()
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_u32_roundtrip():
    image = MemoryImage()
    addr = image.alloc(4)
    image.write_u32(addr, 0xDEADBEEF)
    assert image.read_u32(addr) == 0xDEADBEEF


def test_u64_roundtrip():
    image = MemoryImage()
    addr = image.alloc(8)
    image.write_u64(addr, 0x0123456789ABCDEF)
    assert image.read_u64(addr) == 0x0123456789ABCDEF


def test_uint_wraps_to_width():
    image = MemoryImage()
    addr = image.alloc(2)
    image.write_uint(addr, 2, 0x12345)
    assert image.read_uint(addr, 2) == 0x2345


def test_signed_roundtrip():
    image = MemoryImage()
    addr = image.alloc(8)
    image.write_int(addr, 8, -42)
    assert image.read_int(addr, 8) == -42


def test_f64_roundtrip():
    image = MemoryImage()
    addr = image.alloc(8)
    image.write_f64(addr, 3.14159)
    assert image.read_f64(addr) == 3.14159


def test_little_endian_layout():
    image = MemoryImage()
    addr = image.alloc(4)
    image.write_u32(addr, 0x04030201)
    assert image.read_block(addr, 4) == b"\x01\x02\x03\x04"


def test_block_roundtrip():
    image = MemoryImage()
    addr = image.alloc(64, align=64)
    payload = bytes(range(64))
    image.write_block(addr, payload)
    assert image.read_block(addr, 64) == payload


def test_out_of_range_access_rejected():
    image = MemoryImage(size=256)
    with pytest.raises(IndexError):
        image.read_u64(250)


def test_arrays_helpers():
    image = MemoryImage()
    u32s = image.alloc_u32_array([1, 2, 3])
    u64s = image.alloc_u64_array([10, 20])
    f64s = image.alloc_f64_array([0.5, 1.5])
    assert image.read_u32(u32s + 4) == 2
    assert image.read_u64(u64s + 8) == 20
    assert image.read_f64(f64s) == 0.5


def test_lazy_growth_tracks_used():
    image = MemoryImage(size=1 << 20)
    before = image.used
    image.alloc(4096)
    assert image.used >= before + 4096


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_u64_roundtrip_property(value):
    image = MemoryImage()
    addr = image.alloc(8)
    image.write_u64(addr, value)
    assert image.read_u64(addr) == value


@given(st.binary(min_size=1, max_size=256))
def test_block_roundtrip_property(payload):
    image = MemoryImage()
    addr = image.alloc(len(payload))
    image.write_block(addr, payload)
    assert image.read_block(addr, len(payload)) == payload


@given(st.lists(st.integers(min_value=1, max_value=128), min_size=1,
                max_size=30))
def test_alloc_disjointness_property(sizes):
    image = MemoryImage()
    spans = sorted((image.alloc(s), s) for s in sizes)
    for (a1, s1), (a2, _s2) in zip(spans, spans[1:]):
        assert a1 + s1 <= a2


# ----------------------------------------------------------------------
# differential test against an eager bytearray reference
# ----------------------------------------------------------------------
# the image starts with a 64 KiB buffer and grows lazily up to SIZE, so
# the drawn addresses straddle the first growth edge and the size edge
SIZE = (1 << 17) + 40
EDGES = (0, 64, 1 << 16, 1 << 17, SIZE)


class ReferenceImage:
    """MemoryImage's interface over an eager bytearray: every byte of
    [0, size) exists up front and nothing else is legal."""

    def __init__(self, size, base=64):
        self.data, self.size, self.used = bytearray(size), size, base

    def alloc(self, nbytes, align=8):
        addr = -(-self.used // align) * align
        if addr + nbytes > self.size:
            raise OutOfMemoryError(nbytes)
        self.used = addr + nbytes
        return addr

    def read_block(self, addr, nbytes):
        if addr < 0 or addr + nbytes > self.size:
            raise IndexError(addr)
        return bytes(self.data[addr:addr + nbytes])

    def write_block(self, addr, raw):
        self.read_block(addr, len(raw))
        self.data[addr:addr + len(raw)] = raw

    def read_uint(self, addr, n, signed=False):
        return int.from_bytes(self.read_block(addr, n), "little",
                              signed=signed)

    def write_uint(self, addr, n, value, signed=False):
        if not signed:
            value %= 1 << 8 * n
        self.write_block(addr, value.to_bytes(n, "little", signed=signed))

    def read_int(self, addr, n):
        return self.read_uint(addr, n, signed=True)

    def write_int(self, addr, n, value):
        self.write_uint(addr, n, value, signed=True)

    def read_u32(self, addr):
        return self.read_uint(addr, 4)

    def read_u64(self, addr):
        return self.read_uint(addr, 8)

    def write_u32(self, addr, value):
        self.write_uint(addr, 4, value)

    def write_u64(self, addr, value):
        self.write_uint(addr, 8, value)

    def read_f64(self, addr):
        return struct.unpack("<d", self.read_block(addr, 8))[0]

    def write_f64(self, addr, value):
        self.write_block(addr, struct.pack("<d", value))

    def _array(self, width, write, values):
        addr = self.alloc(width * len(values))
        for i, value in enumerate(values):
            write(addr + width * i, value)
        return addr

    def alloc_u32_array(self, values):
        return self._array(4, self.write_u32, values)

    def alloc_u64_array(self, values):
        return self._array(8, self.write_u64, values)

    def alloc_f64_array(self, values):
        return self._array(8, self.write_f64, [float(v) for v in values])


near_edge = st.tuples(st.sampled_from(EDGES), st.integers(-12, 12)).map(sum)
addrs = st.one_of(near_edge, near_edge, st.integers(0, SIZE))
widths = st.sampled_from([1, 2, 4, 8])
anyint = st.integers(-(1 << 70), 1 << 70)
floats = st.floats(allow_nan=False)
signed = widths.flatmap(lambda n: st.tuples(
    addrs, st.just(n), st.integers(-(1 << 8 * n - 1), (1 << 8 * n - 1) - 1)))
ops = st.one_of(
    st.tuples(st.sampled_from(["read_uint", "read_int"]),
              st.tuples(addrs, widths)),
    st.tuples(st.just("write_uint"), st.tuples(addrs, widths, anyint)),
    st.tuples(st.just("write_int"), signed),
    st.tuples(st.sampled_from(["read_u32", "read_u64", "read_f64"]),
              st.tuples(addrs)),
    st.tuples(st.sampled_from(["write_u32", "write_u64"]),
              st.tuples(addrs, anyint)),
    st.tuples(st.just("write_f64"), st.tuples(addrs, floats)),
    st.tuples(st.just("read_block"), st.tuples(addrs, st.integers(0, 80))),
    st.tuples(st.just("write_block"), st.tuples(addrs, st.binary(max_size=80))),
    st.tuples(st.just("alloc"), st.tuples(
        st.one_of(st.integers(0, 300), st.integers(0, SIZE)),
        st.sampled_from([1, 8, 64]))),
    st.tuples(st.sampled_from(["alloc_u32_array", "alloc_u64_array"]),
              st.tuples(st.lists(anyint, max_size=20))),
    st.tuples(st.just("alloc_f64_array"),
              st.tuples(st.lists(floats, max_size=20))),
)


def outcome(call):
    try:
        result = call()
    except (IndexError, OutOfMemoryError) as exc:
        return type(exc)
    # floats compare by their bytes (a read may decode a NaN)
    return struct.pack("<d", result) if isinstance(result, float) else result


# fixed, derandomized profile: the same sequences on every run
@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(ops, min_size=10, max_size=60))
def test_image_matches_bytearray_reference(sequence):
    image, ref = MemoryImage(size=SIZE), ReferenceImage(SIZE)
    for op, args in sequence:
        assert outcome(lambda: getattr(image, op)(*args)) == \
            outcome(lambda: getattr(ref, op)(*args)), (op, args)
        assert image.used == ref.used
    assert image.read_block(0, SIZE) == bytes(ref.data)
