"""Property: shadow and nested MMUs implement the same guest semantics.

For randomly generated guest page tables and access sequences, both
MMU implementations must (a) fault exactly when a software walk of the
guest's own tables says the access is illegal, and (b) otherwise map
the address to the same guest frame. This is the core contract of
memory virtualization: the guest cannot tell which MMU it runs on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.mmu import TwoStageMMU
from repro.core.shadow import ShadowMMU
from repro.core.vm import GuestMemory
from repro.cpu.exits import VMExit
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AccessType,
    AddressSpace,
    PTE_NOEXEC,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
    make_pte,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.units import MIB, PAGE_SHIFT, PAGE_SIZE

GUEST_PAGES = 64
ROOT_GPA = 0x10000
PT0_GPA = 0x11000  # leaf tables for up to 4 directory slots
DATA_GFNS = list(range(32, 56))

_ACCESS = st.sampled_from(list(AccessType))
_FLAGS = st.integers(min_value=0, max_value=7)  # W/U/NX combinations


@st.composite
def guest_layout(draw):
    """(mappings, accesses): random guest PTs and an access sequence."""
    dir_slots = [0, 1]  # two 4 MiB regions
    mappings = {}
    count = draw(st.integers(min_value=1, max_value=10))
    for _ in range(count):
        dir_idx = draw(st.sampled_from(dir_slots))
        tbl_idx = draw(st.integers(min_value=0, max_value=15))
        gfn = draw(st.sampled_from(DATA_GFNS))
        bits = draw(_FLAGS)
        flags = PTE_PRESENT
        if bits & 1:
            flags |= PTE_WRITABLE
        if bits & 2:
            flags |= PTE_USER
        if bits & 4:
            flags |= PTE_NOEXEC
        mappings[(dir_idx, tbl_idx)] = (gfn, flags)
    accesses = draw(st.lists(
        st.tuples(
            st.sampled_from(dir_slots),
            st.integers(min_value=0, max_value=16),  # 16 = unmapped slot
            st.integers(min_value=0, max_value=PAGE_SIZE - 4),
            _ACCESS,
            st.booleans(),
        ),
        min_size=1, max_size=12,
    ))
    return mappings, accesses


def build_guest(mappings):
    pm = PhysicalMemory(4 * MIB)
    alloc = FrameAllocator(pm, reserved_frames=8)
    gm = GuestMemory(pm, GUEST_PAGES)
    for gfn in range(GUEST_PAGES):
        gm.map_page(gfn, alloc.alloc())
    # Guest page tables: one leaf table per used directory slot.
    used_dirs = sorted({d for d, _t in mappings})
    for i, dir_idx in enumerate(used_dirs):
        pt_gpa = PT0_GPA + i * PAGE_SIZE
        gm.write_u32(ROOT_GPA + dir_idx * 4,
                     make_pte(pt_gpa >> PAGE_SHIFT,
                              PTE_PRESENT | PTE_WRITABLE | PTE_USER))
        for (d, tbl_idx), (gfn, flags) in mappings.items():
            if d == dir_idx:
                gm.write_u32(pt_gpa + tbl_idx * 4, make_pte(gfn, flags))
    return pm, alloc, gm


def oracle(mappings, dir_idx, tbl_idx, access, user):
    """The architectural answer: gfn, or None for a guest fault."""
    entry = mappings.get((dir_idx, tbl_idx))
    if entry is None:
        return None
    gfn, flags = entry
    if user and not flags & PTE_USER:
        return None
    if access is AccessType.WRITE and not flags & PTE_WRITABLE:
        return None
    if access is AccessType.EXEC and flags & PTE_NOEXEC:
        return None
    return gfn


def translate_fully(mmu, va, access, user):
    """Translate, servicing VMM-side faults; return hpa or PageFault."""
    for _ in range(6):
        try:
            hpa, _cycles = mmu.translate(va, access, user)
            return hpa
        except VMExit as exit_:
            kind = exit_.qual("kind")
            if kind == "shadow_fill":
                mmu.fill(exit_.qual("va"), exit_.qual("access"))
            else:
                raise AssertionError(f"unexpected VMM fault {kind}")
    raise AssertionError("fill loop did not converge")


class TestShadowNestedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(guest_layout())
    def test_same_faults_same_frames(self, layout):
        mappings, accesses = layout

        pm_s, alloc_s, gm_s = build_guest(mappings)
        shadow = ShadowMMU(pm_s, alloc_s, gm_s, CostModel(),
                           ring_compression=False, trap_pt_writes=False)
        shadow.switch_guest_root(ROOT_GPA)

        two_stage = []
        for name, hmode in (("nested", False), ("hmode", True)):
            pm_n, alloc_n, gm_n = build_guest(mappings)
            mmu = TwoStageMMU(pm_n, alloc_n, gm_n, CostModel(), hmode=hmode,
                              ept=AddressSpace(pm_n, alloc_n))
            for gfn, hfn in gm_n.map.items():
                mmu.map_gfn(gfn, hfn)
            mmu.set_root(ROOT_GPA)
            two_stage.append((name, mmu, gm_n))

        for dir_idx, tbl_idx, offset, access, user in accesses:
            va = (dir_idx << 22) | (tbl_idx << 12) | offset
            expected_gfn = oracle(mappings, dir_idx, tbl_idx, access, user)
            for name, mmu, gm in [("shadow", shadow, gm_s)] + two_stage:
                if expected_gfn is None:
                    with pytest.raises(PageFault):
                        translate_fully(mmu, va, access, user)
                else:
                    hpa = translate_fully(mmu, va, access, user)
                    assert hpa == (gm.map[expected_gfn] << PAGE_SHIFT) | offset, (
                        name, hex(va), access, user)
