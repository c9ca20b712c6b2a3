"""BareMMU: TLB-fronted native translation."""

import pytest

from repro.cpu.mmu import BareMMU
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AccessType,
    AddressSpace,
    PTE_WRITABLE,
    PageFault,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.units import MIB, PAGE_SIZE


@pytest.fixture
def env():
    pm = PhysicalMemory(1 * MIB)
    alloc = FrameAllocator(pm, reserved_frames=8)
    mmu = BareMMU(pm, CostModel())
    space = AddressSpace(pm, alloc)
    return pm, alloc, mmu, space


def test_paging_disabled_is_identity(env):
    _, _, mmu, _ = env
    pa, cycles = mmu.translate(0x1234, AccessType.READ, user=False)
    assert pa == 0x1234 and cycles == 0


def test_walk_cost_then_tlb_hit(env):
    pm, alloc, mmu, space = env
    frame = alloc.alloc()
    space.map(0x5000, frame * PAGE_SIZE, PTE_WRITABLE)
    mmu.set_root(space.root_pa)
    costs = mmu.costs
    pa1, c1 = mmu.translate(0x5008, AccessType.READ, user=False)
    assert pa1 == frame * PAGE_SIZE + 8
    assert c1 == costs.tlb_hit_cycles + 2 * costs.mem_ref_cycles
    pa2, c2 = mmu.translate(0x5010, AccessType.READ, user=False)
    assert pa2 == frame * PAGE_SIZE + 0x10
    assert c2 == costs.tlb_hit_cycles  # cached


def test_set_root_flushes_tlb(env):
    pm, alloc, mmu, space = env
    frame = alloc.alloc()
    space.map(0x5000, frame * PAGE_SIZE, PTE_WRITABLE)
    mmu.set_root(space.root_pa)
    mmu.translate(0x5000, AccessType.READ, user=False)
    assert len(mmu.tlb) == 1
    mmu.set_root(space.root_pa)
    assert len(mmu.tlb) == 0


def test_invlpg_drops_single_translation(env):
    pm, alloc, mmu, space = env
    f1, f2 = alloc.alloc(), alloc.alloc()
    space.map(0x5000, f1 * PAGE_SIZE, PTE_WRITABLE)
    space.map(0x6000, f2 * PAGE_SIZE, PTE_WRITABLE)
    mmu.set_root(space.root_pa)
    mmu.translate(0x5000, AccessType.READ, user=False)
    mmu.translate(0x6000, AccessType.READ, user=False)
    mmu.invlpg(0x5000)
    assert 0x5 not in mmu.tlb and 0x6 in mmu.tlb


def test_fault_propagates(env):
    _, _, mmu, space = env
    mmu.set_root(space.root_pa)
    with pytest.raises(PageFault):
        mmu.translate(0x9000, AccessType.READ, user=False)


def test_stale_tlb_after_pte_change_until_invlpg(env):
    # Architectural behaviour: changing a PTE without INVLPG leaves the
    # stale translation visible -- exactly like hardware.
    pm, alloc, mmu, space = env
    f1, f2 = alloc.alloc(), alloc.alloc()
    space.map(0x5000, f1 * PAGE_SIZE, PTE_WRITABLE)
    mmu.set_root(space.root_pa)
    pa_before, _ = mmu.translate(0x5000, AccessType.READ, user=False)
    space.map(0x5000, f2 * PAGE_SIZE, PTE_WRITABLE)  # remap
    pa_stale, _ = mmu.translate(0x5000, AccessType.READ, user=False)
    assert pa_stale == pa_before  # still the old frame
    mmu.invlpg(0x5000)
    pa_fresh, _ = mmu.translate(0x5000, AccessType.READ, user=False)
    assert pa_fresh == f2 * PAGE_SIZE
