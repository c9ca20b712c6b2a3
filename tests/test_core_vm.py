"""GuestConfig validation and GuestMemory semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.core.modes import MMUVirtMode, VirtMode
from repro.core.vm import GuestConfig, GuestMemory
from repro.mem.physmem import PhysicalMemory
from repro.util.errors import ConfigError, MemoryError_
from repro.util.units import MIB, PAGE_SIZE


class TestGuestConfig:
    def test_defaults_validate(self):
        GuestConfig().validate()

    def test_unaligned_memory_rejected(self):
        with pytest.raises(ConfigError):
            GuestConfig(memory_bytes=PAGE_SIZE + 1).validate()

    def test_native_mode_rejected(self):
        with pytest.raises(ConfigError):
            GuestConfig(virt_mode=VirtMode.NATIVE).validate()

    @pytest.mark.parametrize("mode", [
        VirtMode.TRAP_EMULATE,
        VirtMode.BINARY_TRANSLATION,
        VirtMode.PARAVIRT,
    ])
    def test_nested_requires_hw_assist(self, mode):
        with pytest.raises(ConfigError):
            GuestConfig(virt_mode=mode, mmu_mode=MMUVirtMode.NESTED).validate()

    def test_demand_paging_requires_nested(self):
        with pytest.raises(ConfigError):
            GuestConfig(
                virt_mode=VirtMode.HW_ASSIST,
                mmu_mode=MMUVirtMode.SHADOW,
                prealloc=False,
            ).validate()


class TestGuestMemory:
    @pytest.fixture
    def gm(self):
        pm = PhysicalMemory(2 * MIB)
        gm = GuestMemory(pm, num_pages=16)
        for gfn in range(16):
            gm.map_page(gfn, gfn + 100)
        return gm

    def test_translation(self, gm):
        assert gm.gpa_to_hpa(0) == 100 * PAGE_SIZE
        assert gm.gpa_to_hpa(3 * PAGE_SIZE + 17) == 103 * PAGE_SIZE + 17

    def test_unmapped_raises(self, gm):
        gm.unmap_page(5)
        with pytest.raises(MemoryError_):
            gm.gpa_to_hpa(5 * PAGE_SIZE)
        with pytest.raises(MemoryError_):
            gm.unmap_page(5)

    def test_gfn_bounds(self, gm):
        with pytest.raises(MemoryError_):
            gm.map_page(16, 1)
        with pytest.raises(MemoryError_):
            gm.map_page(-1, 1)

    def test_scalar_roundtrip(self, gm):
        gm.write_u32(0x100, 0xABCD1234)
        assert gm.read_u32(0x100) == 0xABCD1234
        gm.write_u8(0x104, 0x7F)
        assert gm.read_u8(0x104) == 0x7F

    def test_page_crossing_bulk_access(self, gm):
        data = bytes(range(200)) * 30  # 6000 bytes, crosses pages
        gm.write_bytes(PAGE_SIZE - 100, data)
        assert gm.read_bytes(PAGE_SIZE - 100, len(data)) == data
        # And the underlying host frames really are discontiguous.
        assert gm.map[0] + 1 == gm.map[1]  # adjacency is incidental here

    def test_noncontiguous_backing(self):
        pm = PhysicalMemory(1 * MIB)
        gm = GuestMemory(pm, num_pages=2)
        gm.map_page(0, 50)
        gm.map_page(1, 10)  # backwards on purpose
        data = b"x" * 100 + b"y" * 100
        gm.write_bytes(PAGE_SIZE - 100, data)
        assert gm.read_bytes(PAGE_SIZE - 100, 200) == data
        assert pm.read_bytes(50 * PAGE_SIZE + PAGE_SIZE - 100, 100) == b"x" * 100
        assert pm.read_bytes(10 * PAGE_SIZE, 100) == b"y" * 100

    def test_read_bytes_walks_pages(self):
        pm = PhysicalMemory(1 * MIB)
        gm = GuestMemory(pm, num_pages=7)
        for gfn, hfn in enumerate([10, 11, 12, 20, 21, 5, 6]):
            gm.map_page(gfn, hfn)
        P = PAGE_SIZE
        for hfn in gm.map.values():
            pm.write_frame(hfn, bytes([hfn]) * P)
        whole = b"".join(gm.read_gfn(gfn) for gfn in range(7))
        assert gm.read_bytes(0, 7 * P) == whole
        # Unaligned at both ends, ending inside a page.
        assert gm.read_bytes(P + 5, 3 * P) == whole[P + 5:4 * P + 5]
        assert gm.read_bytes(2 * P + 8, 16) == whole[2 * P + 8:2 * P + 24]
        assert gm.read_bytes(3 * P, 0) == b""
        # A hole raises when reached, not before.
        gm.unmap_page(4)
        assert gm.read_bytes(0, 4 * P) == whole[:4 * P]
        with pytest.raises(MemoryError_, match="gfn 4"):
            gm.read_bytes(0, 5 * P)

    def test_fault_runs_per_protected_write_and_unbacked_page(self, gm):
        seen = []

        def fault(gfn, write):  # what the hypervisor's routine leaves
            seen.append((gfn, write))
            gm.write_protected.discard(gfn)
            if gfn not in gm.map:
                gm.map_page(gfn, gfn + 100)

        gm.fault = fault
        gm.write_protected.update({0, 1, 2, 5})
        gm.write_bytes(PAGE_SIZE - 4, b"12345678")  # spans pages 0 and 1
        assert seen == [(0, True), (1, True)]
        seen.clear()
        gm.write_u32(5 * PAGE_SIZE, 1)
        gm.write_u32(5 * PAGE_SIZE, 2)  # unprotected by the first
        assert seen == [(5, True)]
        # reads of a protected page and writes of an unprotected one
        # take the fast path
        seen.clear()
        gm.read_bytes(0, 3 * PAGE_SIZE)
        gm.write_u8(3 * PAGE_SIZE, 1)
        assert seen == []
        gm.unmap_page(6)
        assert gm.read_gfn(6) == bytes(PAGE_SIZE)
        assert seen == [(6, False)] and gm.map[6] == 106
        # beyond guest RAM there is nothing to ask
        with pytest.raises(MemoryError_, match="not backed"):
            gm.read_u8(16 * PAGE_SIZE)
        assert seen == [(6, False)]

    def test_gfn_page_accessors(self, gm):
        gm.write_gfn(2, b"q" * PAGE_SIZE)
        assert gm.read_gfn(2) == b"q" * PAGE_SIZE
        with pytest.raises(MemoryError_):
            gm.write_gfn(2, b"short")

    @given(st.integers(min_value=0, max_value=16 * PAGE_SIZE - 256),
           st.binary(min_size=1, max_size=256))
    def test_bulk_roundtrip_property(self, offset, data):
        pm = PhysicalMemory(2 * MIB)
        gm = GuestMemory(pm, num_pages=16)
        # scatter the mapping to stress page-crossing logic
        for gfn in range(16):
            gm.map_page(gfn, 200 + (gfn * 7) % 16)
        gm.write_bytes(offset, data)
        assert gm.read_bytes(offset, len(data)) == data
