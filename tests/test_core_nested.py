"""Two-stage MMU: 2-D walks, EPT violations, dirty logging, walk costs.

The module-level tests run under ``TwoStageMMU(hmode=False)``
(``NestedMMU`` here); ``TestHModeBinding`` runs every one of them again
under ``hmode=True`` (``HModeMMU``).
"""


import pytest

from repro.core.vm import GuestMemory
from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.mmu import TwoStageMMU
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AccessType,
    AddressSpace,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
    make_pte,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.units import MIB
from tests.conftest import lookup, split_vaddr

def _two_stage(hmode):
    def make(physmem, allocator, guest_mem, costs):
        return TwoStageMMU(physmem, allocator, guest_mem, costs, hmode=hmode,
                           ept=AddressSpace(physmem, allocator))
    return make


NestedMMU = _two_stage(False)
HModeMMU = _two_stage(True)

GUEST_PAGES = 64
ROOT_GPA = 0x10000
PT_GPA = 0x11000


class NestedEnv:
    def __init__(self, make_mmu, prealloc=True, costs=None):
        self.pm = PhysicalMemory(4 * MIB)
        self.alloc = FrameAllocator(self.pm, reserved_frames=8)
        self.gm = GuestMemory(self.pm, GUEST_PAGES)
        self.mmu = make_mmu(self.pm, self.alloc, self.gm, costs or CostModel())
        if prealloc:
            for gfn in range(GUEST_PAGES):
                hfn = self.alloc.alloc()
                self.gm.map_page(gfn, hfn)
                self.mmu.map_gfns({gfn: hfn})

    def guest_map(self, va, gfn, flags):
        dir_idx, tbl_idx, _ = split_vaddr(va)
        pde_gpa = ROOT_GPA + dir_idx * 4
        pde = self.gm.read_u32(pde_gpa)
        if not pde & PTE_PRESENT:
            self.gm.write_u32(
                pde_gpa,
                make_pte(PT_GPA >> 12, PTE_PRESENT | PTE_WRITABLE | PTE_USER),
            )
        self.gm.write_u32(PT_GPA + tbl_idx * 4,
                          make_pte(gfn, flags | PTE_PRESENT))


@pytest.fixture
def make_mmu():
    return NestedMMU


def test_real_mode_goes_through_ept(make_mmu):
    env = NestedEnv(make_mmu)
    pa, cycles = env.mmu.translate(0x2000, AccessType.READ, user=False)
    assert pa == env.gm.gpa_to_hpa(0x2000)
    assert cycles > 0  # one EPT walk


def test_two_dimensional_walk_cost(make_mmu):
    env = NestedEnv(make_mmu)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    costs = env.mmu.costs
    pa, cycles = env.mmu.translate(0x40000050, AccessType.READ, user=True)
    assert pa == (env.gm.map[5] << 12) | 0x50
    # 2 guest levels x (2 EPT + 1 entry read) + final 2 EPT refs = 8,
    # plus A-bit write-backs go through 2-ref EPT walks each (PDE+PTE).
    base_refs = 8
    ad_refs = 4  # first touch sets A on both guest levels
    assert cycles == costs.tlb_hit_cycles + (base_refs + ad_refs) * costs.mem_ref_cycles
    # Second access hits the TLB.
    _, c2 = env.mmu.translate(0x40000054, AccessType.READ, user=True)
    assert c2 == costs.tlb_hit_cycles


def test_guest_ad_bits_maintained(make_mmu):
    env = NestedEnv(make_mmu)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    env.mmu.translate(0x40000000, AccessType.READ, user=True)
    _d, tbl_idx, _ = split_vaddr(0x40000000)
    pte = env.gm.read_u32(PT_GPA + tbl_idx * 4)
    assert pte & PTE_ACCESSED and not pte & PTE_DIRTY
    env.mmu.translate(0x40000000, AccessType.WRITE, user=True)
    pte = env.gm.read_u32(PT_GPA + tbl_idx * 4)
    assert pte & PTE_DIRTY


def test_guest_fault_is_guest_visible(make_mmu):
    env = NestedEnv(make_mmu)
    env.mmu.set_root(ROOT_GPA)
    with pytest.raises(PageFault):
        env.mmu.translate(0x40000000, AccessType.READ, user=True)


def test_guest_permission_checks(make_mmu):
    env = NestedEnv(make_mmu)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE)  # kernel only
    env.mmu.set_root(ROOT_GPA)
    with pytest.raises(PageFault):
        env.mmu.translate(0x40000000, AccessType.READ, user=True)
    env.mmu.translate(0x40000000, AccessType.READ, user=False)


def test_ept_violation_on_unmapped_gfn(make_mmu):
    env = NestedEnv(make_mmu, prealloc=False)
    with pytest.raises(VMExit) as info:
        env.mmu.translate(0x3000, AccessType.READ, user=False)
    assert info.value.reason is ExitReason.PAGE_FAULT
    assert info.value.qual("kind") == "ept_violation"
    assert info.value.qual("gpa") == 0x3000


def test_dirty_log_protect_and_unprotect(make_mmu):
    env = NestedEnv(make_mmu)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    env.mmu.translate(0x40000000, AccessType.WRITE, user=True)
    env.mmu.write_protect_gfns({5})
    with pytest.raises(VMExit) as info:
        env.mmu.translate(0x40000000, AccessType.WRITE, user=True)
    assert info.value.qual("kind") == "dirty_log"
    assert info.value.qual("gfn") == 5
    # reads still fine
    env.mmu.translate(0x40000000, AccessType.READ, user=True)
    env.mmu.unprotect_gfns({5})
    env.mmu.translate(0x40000000, AccessType.WRITE, user=True)


def test_dirty_logging_catches_guest_pt_pages_via_ad_writes(make_mmu):
    # Setting the guest A bit writes guest PT memory, which must respect
    # EPT write protection -- PT pages get dirty-logged automatically.
    env = NestedEnv(make_mmu)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    pt_gfn = PT_GPA >> 12
    env.mmu.write_protect_gfns({pt_gfn})
    with pytest.raises(VMExit) as info:
        env.mmu.translate(0x40000000, AccessType.READ, user=True)
    assert info.value.qual("kind") == "dirty_log"
    assert info.value.qual("gfn") == pt_gfn


def test_ept_unmap_forces_refault(make_mmu):
    env = NestedEnv(make_mmu)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    env.mmu.translate(0x40000000, AccessType.READ, user=True)
    env.mmu.drop_gfns({5})
    with pytest.raises(VMExit):
        env.mmu.translate(0x40000000, AccessType.READ, user=True)


def test_set_root_flushes_tlb(make_mmu):
    env = NestedEnv(make_mmu)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    env.mmu.translate(0x40000000, AccessType.READ, user=True)
    assert len(env.mmu.tlb) > 0
    env.mmu.set_root(ROOT_GPA)
    assert len(env.mmu.tlb) == 0


def test_lazy_write_caching_after_dirty_round(make_mmu):
    # After a read fill, the TLB entry is not write-permitting, so the
    # next write re-walks (and can be caught by dirty logging).
    env = NestedEnv(make_mmu)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    env.mmu.translate(0x40000000, AccessType.READ, user=True)
    env.mmu.write_protect_gfns({5})
    with pytest.raises(VMExit):
        env.mmu.translate(0x40000000, AccessType.WRITE, user=True)


class TestHModeBinding:
    """Every test above again, under the H-mode binding."""

    @pytest.fixture
    def make_mmu(self):
        return HModeMMU


for _name, _test in list(globals().items()):
    if _name.startswith("test_"):
        setattr(TestHModeBinding, _name, staticmethod(_test))


def test_hmode_prices_gstage_refs_separately():
    costs = CostModel(mem_ref_cycles=30, gstage_ref_cycles=7)
    env = NestedEnv(HModeMMU, costs=costs)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    _, cycles = env.mmu.translate(0x2000, AccessType.READ, user=False)
    assert cycles == costs.tlb_hit_cycles + 2 * 7  # real mode: one G-stage walk
    env.mmu.set_root(ROOT_GPA)
    _, cycles = env.mmu.translate(0x40000050, AccessType.READ, user=True)
    # 2 guest entry reads; 3 G-stage walks + 2 A-bit write-back walks.
    assert cycles == costs.tlb_hit_cycles + 2 * 30 + 10 * 7
    # The nested binding prices the same 12 references uniformly.
    env = NestedEnv(NestedMMU, costs=costs)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    _, cycles = env.mmu.translate(0x40000050, AccessType.READ, user=True)
    assert cycles == costs.tlb_hit_cycles + 12 * 30


def test_walk_charge_is_6_8_or_10_second_stage_references():
    """A miss pays for 2 guest entry reads plus 6 second-stage
    references, and 2 more for each guest entry whose A/D bits it had
    to write back: 10 cold, 8 when only the leaf changes (first write
    to a page already read), 6 once both entries carry their bits."""
    costs = CostModel(mem_ref_cycles=30, gstage_ref_cycles=7)
    for make_mmu, expected in ((HModeMMU, (130, 116, 102)),
                               (NestedMMU, (360, 300, 240))):
        env = NestedEnv(make_mmu, costs=costs)
        env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
        env.mmu.set_root(ROOT_GPA)
        charged = []
        for access in (AccessType.READ, AccessType.WRITE, AccessType.WRITE):
            env.mmu.flush()
            _, cycles = env.mmu.translate(0x40000050, access, user=True)
            charged.append(cycles)
        assert tuple(charged) == expected
        assert env.mmu.walker.walks == 3 and env.mmu.walker.faults == 0


def test_gstage_ad_bits_only_under_hmode():
    for make_mmu, expect_ad in ((NestedMMU, False), (HModeMMU, True)):
        env = NestedEnv(make_mmu)
        env.mmu.translate(0x2000, AccessType.WRITE, user=False)
        pte = lookup(env.mmu.ept, 0x2000)
        assert bool(pte & PTE_ACCESSED) is expect_ad
        assert bool(pte & PTE_DIRTY) is expect_ad
