"""Page-table entries, the walker, and AddressSpace."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.paging import (
    AccessType,
    AddressSpace,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_NOEXEC,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
    PageTableWalker,
    make_pte,
    pte_frame,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.errors import MemoryError_
from repro.util.units import MIB, PAGE_SIZE
from tests.conftest import lookup, mappings, split_vaddr


@pytest.fixture
def env():
    pm = PhysicalMemory(1 * MIB)
    alloc = FrameAllocator(pm, reserved_frames=1)
    return pm, alloc


class TestEntryFormat:
    def test_make_and_extract(self):
        pte = make_pte(0x123, PTE_PRESENT | PTE_WRITABLE)
        assert pte_frame(pte) == 0x123
        assert pte & PTE_PRESENT and pte & PTE_WRITABLE

    def test_flag_overlap_rejected(self):
        with pytest.raises(MemoryError_):
            make_pte(1, 0x1000)

    def test_pfn_range_checked(self):
        with pytest.raises(MemoryError_):
            make_pte(1 << 20, 0)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_split_vaddr_reassembles(self, va):
        d, t, o = split_vaddr(va)
        assert 0 <= d < 1024 and 0 <= t < 1024 and 0 <= o < 4096
        assert (d << 22) | (t << 12) | o == va & 0xFFFFFFFF


class TestAddressSpace:
    def test_map_and_lookup(self, env):
        pm, alloc = env
        space = AddressSpace(pm, alloc)
        frame = alloc.alloc()
        space.map(0x400000, frame * PAGE_SIZE, PTE_WRITABLE)
        pte = lookup(space, 0x400000)
        assert pte is not None
        assert pte_frame(pte) == frame
        assert lookup(space, 0x401000) is None
        assert space.mapped_pages == 1

    def test_unaligned_rejected(self, env):
        pm, alloc = env
        space = AddressSpace(pm, alloc)
        with pytest.raises(MemoryError_):
            space.map(0x100, 0, PTE_WRITABLE)
        with pytest.raises(MemoryError_):
            space.map(0, 0x100, PTE_WRITABLE)

    def test_unmap(self, env):
        pm, alloc = env
        space = AddressSpace(pm, alloc)
        space.map(0x1000, 0x2000, 0)
        space.unmap(0x1000)
        assert lookup(space, 0x1000) is None
        assert space.mapped_pages == 0
        space.unmap(0x999000)  # unmapping nothing is fine

    def test_remap_does_not_double_count(self, env):
        pm, alloc = env
        space = AddressSpace(pm, alloc)
        space.map(0x1000, 0x2000, 0)
        space.map(0x1000, 0x3000, 0)
        assert space.mapped_pages == 1
        assert pte_frame(lookup(space, 0x1000)) == 3

    def test_rewrite_leaf_changes_flags(self, env):
        pm, alloc = env
        space = AddressSpace(pm, alloc)
        space.map(0x1000, 0x2000, PTE_WRITABLE | PTE_USER)
        space.rewrite_leaves(~PTE_WRITABLE, {0x1: 0})  # a write-protect
        pte = lookup(space, 0x1000)
        assert not pte & PTE_WRITABLE and pte & PTE_USER
        assert pte_frame(pte) == 2
        # An absent leaf stays absent: nothing is mapped or allocated.
        frames = alloc.free_frames
        assert space.rewrite_leaves(~PTE_WRITABLE, {0x5: 0, 0x800: 0}) == {}
        assert lookup(space, 0x5000) is None and alloc.free_frames == frames

    def test_mappings_iterates_all(self, env):
        pm, alloc = env
        space = AddressSpace(pm, alloc)
        vas = [0x1000, 0x400000, 0x7FC00000]
        for i, va in enumerate(vas):
            space.map(va, (i + 1) * PAGE_SIZE, PTE_USER)
        found = dict(mappings(space))
        assert sorted(found) == sorted(vas)

    def test_clear_pde_drops_subtree_and_frees_table(self, env):
        pm, alloc = env
        space = AddressSpace(pm, alloc)
        space.map(0x400000, 0x1000, 0)
        space.map(0x400000 + PAGE_SIZE, 0x2000, 0)
        before = alloc.free_frames
        space.clear_pde(1)  # 0x400000 >> 22 == 1
        assert lookup(space, 0x400000) is None
        assert space.mapped_pages == 0
        assert alloc.free_frames == before + 1  # PT page returned

    def test_rollback_undoes_walker_writes_only(self, env):
        pm, alloc = env
        space = AddressSpace(pm, alloc)
        assert space.rollback() is False  # nothing checkpointed yet
        space.map(0x1000, 0x2000, PTE_WRITABLE)
        space.map(0x400000, 0x3000, PTE_WRITABLE)
        space.checkpoint()
        as_built = dict(mappings(space))
        # A hardware walk sets accessed / dirty behind the space's back.
        PageTableWalker(pm).walk(space.root_pa, 0x1000, AccessType.WRITE, False)
        assert dict(mappings(space)) != as_built
        assert space.rollback() is True
        assert dict(mappings(space)) == as_built
        assert space.rollback() is True  # the checkpoint stands
        # An edit through the space is its owner's intent: it discards
        # the checkpoint rather than be undone by a later rollback.
        for edit in (lambda: space.map(0x5000, 0x6000, 0),
                     lambda: space.unmap(0x1000),
                     lambda: space.rewrite_leaves(~PTE_WRITABLE, {0x400: 0}),
                     lambda: space.clear_pde(1)):
            space.checkpoint()
            edit()
            after_edit = dict(mappings(space))
            assert space.rollback() is False
            assert dict(mappings(space)) == after_edit

    def test_destroy_frees_table_frames(self, env):
        pm, alloc = env
        before = alloc.free_frames
        space = AddressSpace(pm, alloc)
        space.map(0x1000, 0x2000, 0)
        space.map(0x40000000, 0x3000, 0)
        space.destroy()
        assert alloc.free_frames == before


class TestWalker:
    def _space(self, env, va=0x1000, flags=PTE_WRITABLE | PTE_USER):
        pm, alloc = env
        space = AddressSpace(pm, alloc)
        frame = alloc.alloc()
        pm.write_u32(frame * PAGE_SIZE, 0xCAFEBABE)
        space.map(va, frame * PAGE_SIZE, flags)
        return pm, space, frame

    def test_successful_walk(self, env):
        pm, space, frame = self._space(env)
        walker = PageTableWalker(pm)
        pde, pte = walker.walk(space.root_pa, 0x1004, AccessType.READ, user=True)
        assert pte == lookup(space, 0x1000)  # the leaf, accessed bit set
        assert pde == pm.read_u32(space.root_pa) and pde & PTE_ACCESSED
        assert pte_frame(pte) == frame and pte & PTE_ACCESSED
        assert walker.walks == 1 and walker.faults == 0

    def test_not_present_faults(self, env):
        pm, space, _ = self._space(env)
        walker = PageTableWalker(pm)
        with pytest.raises(PageFault) as info:
            walker.walk(space.root_pa, 0x2000, AccessType.READ, user=False)
        assert not info.value.present
        assert walker.faults == 1

    def test_user_cannot_touch_kernel_page(self, env):
        pm, space, _ = self._space(env, flags=PTE_WRITABLE)  # no USER bit
        walker = PageTableWalker(pm)
        with pytest.raises(PageFault) as info:
            walker.walk(space.root_pa, 0x1000, AccessType.READ, user=True)
        assert info.value.present  # protection, not absence
        # kernel access is fine
        walker.walk(space.root_pa, 0x1000, AccessType.READ, user=False)

    def test_write_to_readonly_faults(self, env):
        pm, space, _ = self._space(env, flags=PTE_USER)  # read-only
        walker = PageTableWalker(pm)
        with pytest.raises(PageFault):
            walker.walk(space.root_pa, 0x1000, AccessType.WRITE, user=True)

    def test_noexec_blocks_fetch(self, env):
        pm, space, _ = self._space(env, flags=PTE_USER | PTE_NOEXEC)
        walker = PageTableWalker(pm)
        with pytest.raises(PageFault):
            walker.walk(space.root_pa, 0x1000, AccessType.EXEC, user=True)
        walker.walk(space.root_pa, 0x1000, AccessType.READ, user=True)

    def test_accessed_and_dirty_bits_set(self, env):
        pm, space, _ = self._space(env)
        walker = PageTableWalker(pm)
        walker.walk(space.root_pa, 0x1000, AccessType.READ, user=False)
        pte = lookup(space, 0x1000)
        assert pte & PTE_ACCESSED and not pte & PTE_DIRTY
        walker.walk(space.root_pa, 0x1000, AccessType.WRITE, user=False)
        pte = lookup(space, 0x1000)
        assert pte & PTE_DIRTY

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1),
                    min_size=1, max_size=24, unique=True))
    def test_walk_agrees_with_lookup(self, vpns):
        pm = PhysicalMemory(2 * MIB)
        alloc = FrameAllocator(pm, reserved_frames=1)
        space = AddressSpace(pm, alloc)
        mapping = {}
        for i, vpn in enumerate(vpns):
            # map each vpn to a distinct (fake) frame number
            space.map(vpn * PAGE_SIZE, (i + 100) * PAGE_SIZE,
                      PTE_WRITABLE | PTE_USER)
            mapping[vpn] = i + 100
        walker = PageTableWalker(pm)
        for vpn, frame in mapping.items():
            _pde, pte = walker.walk(space.root_pa, vpn * PAGE_SIZE,
                                    AccessType.READ, user=True)
            assert pte_frame(pte) == frame
