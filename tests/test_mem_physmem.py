"""Physical memory and the frame allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.errors import MemoryError_
from repro.util.units import PAGE_SIZE


class TestPhysicalMemory:
    def test_u32_roundtrip_little_endian(self):
        pm = PhysicalMemory(PAGE_SIZE)
        pm.write_u32(0, 0x12345678)
        assert pm.read_u32(0) == 0x12345678
        assert pm.read_u8(0) == 0x78
        assert pm.read_u8(3) == 0x12

    def test_u8_masking(self):
        pm = PhysicalMemory(PAGE_SIZE)
        pm.write_u8(5, 0x1FF)
        assert pm.read_u8(5) == 0xFF

    def test_u32_masking(self):
        pm = PhysicalMemory(PAGE_SIZE)
        pm.write_u32(8, 0x1_FFFF_FFFF)
        assert pm.read_u32(8) == 0xFFFFFFFF

    def test_bounds_checked(self):
        pm = PhysicalMemory(PAGE_SIZE)
        with pytest.raises(MemoryError_):
            pm.read_u32(PAGE_SIZE - 2)
        with pytest.raises(MemoryError_):
            pm.write_u8(-1, 0)
        with pytest.raises(MemoryError_):
            pm.read_bytes(PAGE_SIZE - 1, 2)

    def test_size_must_be_page_multiple(self):
        with pytest.raises(MemoryError_):
            PhysicalMemory(PAGE_SIZE + 1)
        with pytest.raises(MemoryError_):
            PhysicalMemory(0)

    def test_frame_accessors(self):
        pm = PhysicalMemory(4 * PAGE_SIZE)
        data = bytes(range(256)) * 16
        pm.write_frame(2, data)
        assert pm.read_frame(2) == data
        pm.zero_frame(2)
        assert pm.read_frame(2) == b"\x00" * PAGE_SIZE
        with pytest.raises(MemoryError_):
            pm.write_frame(0, b"short")

    def test_read_frame_groups_frames_by_content(self):
        # The sharing scan's grouping: one read per frame, keyed by bytes.
        pm = PhysicalMemory(4 * PAGE_SIZE)
        pm.write_frame(0, b"a" * PAGE_SIZE)
        pm.write_frame(1, b"a" * PAGE_SIZE)
        pm.write_frame(2, b"b" * PAGE_SIZE)
        groups = {}
        for pfn in range(pm.num_frames):
            groups.setdefault(pm.read_frame(pfn), []).append(pfn)
        assert list(groups.values()) == [[0, 1], [2], [3]]

    @given(st.integers(min_value=0, max_value=PAGE_SIZE - 4),
           st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_u32_roundtrip_everywhere(self, offset, value):
        pm = PhysicalMemory(PAGE_SIZE)
        pm.write_u32(offset, value)
        assert pm.read_u32(offset) == value

    @given(st.binary(min_size=0, max_size=64),
           st.integers(min_value=0, max_value=PAGE_SIZE - 64))
    def test_bytes_roundtrip(self, data, offset):
        pm = PhysicalMemory(PAGE_SIZE)
        pm.write_bytes(offset, data)
        assert pm.read_bytes(offset, len(data)) == data


class TestFrameAllocator:
    def test_reserved_frames_never_allocated(self):
        pm = PhysicalMemory(8 * PAGE_SIZE)
        alloc = FrameAllocator(pm, reserved_frames=3)
        seen = {alloc.alloc() for _ in range(alloc.free_frames)}
        assert all(pfn >= 3 for pfn in seen)
        assert len(seen) == 5

    def test_alloc_zeroes_by_default(self):
        pm = PhysicalMemory(4 * PAGE_SIZE)
        alloc = FrameAllocator(pm, 0)
        pfn = alloc.alloc()
        pm.write_frame(pfn, b"x" * PAGE_SIZE)
        alloc.free(pfn)
        pfn2 = alloc.alloc()
        assert pfn2 == pfn
        assert pm.read_frame(pfn2) == b"\x00" * PAGE_SIZE

    def test_alloc_no_zero(self):
        pm = PhysicalMemory(4 * PAGE_SIZE)
        alloc = FrameAllocator(pm, 0)
        pfn = alloc.alloc()
        pm.write_frame(pfn, b"x" * PAGE_SIZE)
        alloc.free(pfn)
        assert pm.read_frame(alloc.alloc(zero=False)) == b"x" * PAGE_SIZE

    def test_exhaustion(self):
        pm = PhysicalMemory(2 * PAGE_SIZE)
        alloc = FrameAllocator(pm, 0)
        alloc.alloc()
        alloc.alloc()
        with pytest.raises(MemoryError_):
            alloc.alloc()

    def test_double_free_detected(self):
        pm = PhysicalMemory(2 * PAGE_SIZE)
        alloc = FrameAllocator(pm, 0)
        pfn = alloc.alloc()
        alloc.free(pfn)
        with pytest.raises(MemoryError_):
            alloc.free(pfn)

    def test_foreign_free_detected(self):
        pm = PhysicalMemory(4 * PAGE_SIZE)
        alloc = FrameAllocator(pm, reserved_frames=1)
        with pytest.raises(MemoryError_):
            alloc.free(0)

    def test_counters(self):
        pm = PhysicalMemory(4 * PAGE_SIZE)
        alloc = FrameAllocator(pm, reserved_frames=1)
        assert alloc.free_frames == 3
        pfn = alloc.alloc()
        assert alloc.free_frames == 2
        alloc.free(pfn)
        assert alloc.free_frames == 3

    def test_invalid_reserved(self):
        pm = PhysicalMemory(2 * PAGE_SIZE)
        with pytest.raises(MemoryError_):
            FrameAllocator(pm, reserved_frames=3)
