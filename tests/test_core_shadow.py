"""Shadow MMU: fills, guest faults, PT write protection, views."""

import pytest

from repro.core.shadow import ShadowMMU
from repro.core.vm import GuestMemory
from repro.cpu.exits import ExitReason, VMExit
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AccessType,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
    make_pte,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.units import MIB, PAGE_SIZE
from tests.conftest import split_vaddr

GUEST_PAGES = 64
ROOT_GPA = 0x10000  # gfn 16
PT_GPA = 0x11000  # gfn 17


class GuestEnv:
    """A tiny guest-physical world with hand-built guest page tables."""

    def __init__(self, ring_compression=True, trap_pt_writes=True):
        self.pm = PhysicalMemory(4 * MIB)
        self.alloc = FrameAllocator(self.pm, reserved_frames=8)
        self.gm = GuestMemory(self.pm, GUEST_PAGES)
        for gfn in range(GUEST_PAGES):
            self.gm.map_page(gfn, self.alloc.alloc())
        self.mmu = ShadowMMU(
            self.pm, self.alloc, self.gm, CostModel(),
            ring_compression=ring_compression,
            trap_pt_writes=trap_pt_writes,
        )
        self._next_pt_gpa = PT_GPA

    def guest_map(self, va, gfn, flags):
        """Install a guest PTE for va -> guest frame gfn."""
        dir_idx, tbl_idx, _ = split_vaddr(va)
        pde_gpa = ROOT_GPA + dir_idx * 4
        pde = self.gm.read_u32(pde_gpa)
        if not pde & PTE_PRESENT:
            pt_gpa = self._next_pt_gpa
            self._next_pt_gpa += PAGE_SIZE
            self.gm.write_u32(
                pde_gpa,
                make_pte(pt_gpa >> 12, PTE_PRESENT | PTE_WRITABLE | PTE_USER),
            )
            pde = self.gm.read_u32(pde_gpa)
        pt_gpa = (pde >> 12) << 12
        self.gm.write_u32(pt_gpa + tbl_idx * 4,
                          make_pte(gfn, flags | PTE_PRESENT))

    def enable(self):
        self.mmu.switch_guest_root(ROOT_GPA)

    def translate_with_fill(self, va, access, user=True):
        """Translate, servicing shadow-fill exits like the VMM would."""
        for _ in range(4):
            try:
                return self.mmu.translate(va, access, user)
            except VMExit as exit_:
                assert exit_.reason is ExitReason.PAGE_FAULT
                assert exit_.qual("kind") == "shadow_fill"
                self.mmu.fill(exit_.qual("va"), exit_.qual("access"))
        raise AssertionError("fill did not converge")


def test_real_mode_passthrough():
    env = GuestEnv()
    pa, cycles = env.mmu.translate(0x2000, AccessType.READ, user=False)
    assert pa == env.gm.gpa_to_hpa(0x2000)
    assert cycles == 0


def test_fill_then_hit_translates_to_host_frame():
    env = GuestEnv()
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.enable()
    pa, _ = env.translate_with_fill(0x40000123, AccessType.READ)
    assert pa == (env.gm.map[5] << 12) | 0x123
    # subsequent access needs no exit
    pa2, cycles = env.mmu.translate(0x40000200, AccessType.READ, user=True)
    assert pa2 == (env.gm.map[5] << 12) | 0x200
    assert env.mmu.fills == 1


def test_guest_fault_propagates_as_page_fault():
    env = GuestEnv()
    env.enable()
    with pytest.raises(PageFault) as info:
        env.mmu.translate(0x50000000, AccessType.READ, user=True)
    assert not info.value.present


def test_guest_protection_fault_respects_virtual_privilege():
    env = GuestEnv()
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE)  # kernel-only
    env.enable()
    # virtually in kernel mode: allowed (despite real user mode)
    env.mmu.set_view(kernel=True)
    env.translate_with_fill(0x40000000, AccessType.READ, user=True)
    # virtually in user mode: guest PTE forbids
    env.mmu.set_view(kernel=False)
    with pytest.raises(PageFault) as info:
        env.mmu.translate(0x40000000, AccessType.READ, user=True)
    assert info.value.present and info.value.user


def test_lazy_dirty_write_upgrade_sets_guest_dirty_bit():
    env = GuestEnv()
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.enable()
    env.translate_with_fill(0x40000000, AccessType.READ)
    # Guest PTE has A but not D yet.
    dir_idx, tbl_idx, _ = split_vaddr(0x40000000)
    pte_gpa = PT_GPA + tbl_idx * 4
    pte = env.gm.read_u32(pte_gpa)
    assert pte & PTE_ACCESSED and not pte & PTE_DIRTY
    # First write faults again (shadow was read-only), then sets D.
    env.translate_with_fill(0x40000000, AccessType.WRITE)
    assert env.gm.read_u32(pte_gpa) & PTE_DIRTY


def test_pt_write_exit_kind():
    env = GuestEnv()
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    # Map the guest PT page itself into guest VA space (as a kernel
    # would) and try to write it.
    env.guest_map(0x00011000, gfn=17, flags=PTE_WRITABLE | PTE_USER)
    env.enable()
    env.translate_with_fill(0x40000000, AccessType.READ)  # registers PT gfn
    with pytest.raises(VMExit) as info:
        env.mmu.translate(0x00011000, AccessType.WRITE, user=True)
    assert info.value.qual("kind") == "pt_write"


def test_pv_mode_does_not_trap_pt_writes():
    env = GuestEnv(trap_pt_writes=False)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.guest_map(0x00011000, gfn=17, flags=PTE_WRITABLE | PTE_USER)
    env.enable()
    env.translate_with_fill(0x40000000, AccessType.READ)
    # Writing the PT page is a normal write under the PV contract.
    env.translate_with_fill(0x00011000, AccessType.WRITE)


def test_dirty_log_exit_kind():
    env = GuestEnv()
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.enable()
    env.translate_with_fill(0x40000000, AccessType.WRITE)
    env.mmu.write_protect_gfn(5)
    with pytest.raises(VMExit) as info:
        env.mmu.translate(0x40000000, AccessType.WRITE, user=True)
    assert info.value.qual("kind") == "dirty_log"
    assert info.value.qual("gfn") == 5
    # after unprotecting, the write goes through (via a fill)
    env.mmu.unprotect_gfn(5)
    env.translate_with_fill(0x40000000, AccessType.WRITE)


def test_view_switch_flushes_and_separates_spaces():
    env = GuestEnv()
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE)  # kernel-only
    env.enable()
    env.mmu.set_view(kernel=True)
    env.translate_with_fill(0x40000000, AccessType.READ)
    assert env.mmu.view_switches >= 0
    switches_before = env.mmu.view_switches
    env.mmu.set_view(kernel=False)
    assert env.mmu.view_switches == switches_before + 1
    assert len(env.mmu.tlb) == 0  # flushed


def test_handle_guest_pt_write_invalidates_leaf():
    env = GuestEnv()
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.enable()
    env.translate_with_fill(0x40000000, AccessType.READ)
    # The VMM applies a guest PTE update: remap va to gfn 6.
    dir_idx, tbl_idx, _ = split_vaddr(0x40000000)
    pte_gpa = PT_GPA + tbl_idx * 4
    env.gm.write_u32(pte_gpa, make_pte(6, PTE_PRESENT | PTE_WRITABLE | PTE_USER))
    env.mmu.handle_guest_pt_write(pte_gpa)
    pa, _ = env.translate_with_fill(0x40000000, AccessType.READ)
    assert pa == env.gm.map[6] << 12


def test_handle_guest_root_write_clears_subtree():
    env = GuestEnv()
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.enable()
    env.translate_with_fill(0x40000000, AccessType.READ)
    # Zap the PDE: the whole 4 MiB range must revert to guest faults.
    dir_idx, _, _ = split_vaddr(0x40000000)
    pde_gpa = ROOT_GPA + dir_idx * 4
    env.gm.write_u32(pde_gpa, 0)
    env.mmu.handle_guest_pt_write(pde_gpa)
    with pytest.raises(PageFault):
        env.mmu.translate(0x40000000, AccessType.READ, user=True)


def test_drop_gfn_removes_mappings():
    env = GuestEnv()
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.enable()
    env.translate_with_fill(0x40000000, AccessType.WRITE)
    env.mmu.drop_gfn(5)
    # Next access must fault back to the VMM (fill), not use stale maps.
    with pytest.raises(VMExit):
        env.mmu.translate(0x40000000, AccessType.READ, user=True)


def test_invlpg_unmaps_shadow_entry():
    env = GuestEnv()
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.enable()
    env.translate_with_fill(0x40000000, AccessType.READ)
    env.mmu.invlpg(0x40000000)
    with pytest.raises(VMExit):
        env.mmu.translate(0x40000000, AccessType.READ, user=True)


def test_destroy_returns_table_frames():
    env = GuestEnv()
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.enable()
    env.translate_with_fill(0x40000000, AccessType.READ)
    free_before = env.alloc.free_frames
    env.mmu.destroy()
    assert env.alloc.free_frames > free_before
