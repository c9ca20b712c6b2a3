"""MMU interface between the interpreter and the memory system.

The CPU probes ``mmu.tlb`` itself and calls :meth:`MMUBase.translate`
on a TLB miss of a fetch, load, or store. Swapping the MMU object is how
the hypervisor interposes on address translation:

* :class:`BareMMU` -- native execution: walks the tables named by PTBR
  directly.
* ``ShadowMMU`` (in :mod:`repro.core.shadow`) -- software MMU
  virtualization: the hardware only ever sees VMM-built shadow tables.
* :class:`TwoStageMMU` -- hardware MMU virtualization (EPT/NPT, the
  H-mode G-stage): one implementation behind both
  ``MMUVirtMode.NESTED`` and ``MMUVirtMode.HMODE``. It lives in the CPU
  package because two-stage translation is part of the architecture,
  not a VMM construction.

``translate`` returns ``(physical_address, extra_cycles)``; it raises
:class:`repro.mem.paging.PageFault` for guest-visible faults and may
raise :class:`repro.cpu.exits.VMExit` for faults the VMM must service.

The two virtualized MMUs also share one **host memory-control surface**,
so the hypervisor, overcommit and migration code call the MMU instead
of branching on its class:

* ``map_gfns({gfn: hfn})`` -- the host backed guest frames (eager
  under two-stage paging; a no-op under shadow, which refills lazily);
* ``rebind_gfns({gfn: hfn}, writable)`` -- each ``gfn`` is now backed
  by its ``hfn``, whatever backed it before, and a write to it does or
  does not raise a ``dirty_log`` exit (sharing: merge and copy-on-write);
* ``drop_gfns(gfns)`` -- forget every translation of guest frames
  before the host takes their backing away (balloon, swap, restore);
* ``write_protect_gfns(gfns)`` / ``unprotect_gfns(gfns)`` -- dirty
  logging and copy-on-write (the next write raises a ``dirty_log``
  exit); both MMUs keep the guest's one set,
  ``GuestMemory.write_protected``, which each gfn joins or leaves.

Each call takes a set (one gfn is a set of one) and edits the second
stage in one :meth:`~repro.mem.paging.AddressSpace.rewrite_leaves`. It
flushes the TLB at most once: a rebind, a shadow drop, and a two-stage
drop or write-protect that found a leaf; a shadow write-protect drops
only the entries it made read-only. ``tests/test_memory_control_sets.py``
holds each call to the same calls made one gfn at a time.

Teardown is where they differ: shadow tables are derived from the
guest's and die with the MMU (``ShadowMMU.destroy()``); the second-stage
table is the host's own record of the guest's backing, so the
hypervisor frees -- or, recycling a VM, keeps -- ``TwoStageMMU.ept``.
"""

from typing import Callable, Collection, Dict, Optional, Tuple

from repro.cpu.exits import ExitReason, VMExit
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AccessType,
    AddressSpace,
    GStageFault,
    GStageWalker,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_NOEXEC,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageTableWalker,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.mem.tlb import TLB, TLB_ENTRIES
from repro.util.units import PAGE_SHIFT

#: Bound once: an enum member is a metaclass lookup on every use.
_WRITE = AccessType.WRITE

#: Second-stage entry flags of a guest frame the host has backed.
GSTAGE_BACKED = PTE_PRESENT | PTE_USER | PTE_WRITABLE

#: The most a ``TwoStageMMU.stall_fn`` may charge for one walk, in
#: G-stage references (``translate_bound`` counts on it).
GSTAGE_STALL_REFS = 8


class MMUBase:
    """What :class:`CPUCore` and the block compiler's dispatcher ask of
    an MMU. Every subclass provides all of it:

    * ``tlb``, which the CPU probes itself; ``translate`` inserts only
      after a walk with ``tlb_active`` True, so while it is False the TLB
      is empty.
    * ``translate(va, access, user) -> (pa, cycles)`` on a TLB miss of a
      fetch, load or store; it may raise PageFault or VMExit.
    * ``set_root(root_pa)`` (CSRW PTBR), ``invlpg(va)`` (INVLPG) and
      ``flush()`` (the whole TLB).
    * ``tlb_active``: is the TLB in front of instruction fetches right
      now? True: a fetch probes ``tlb``, and a compiled block is valid
      only while the entry it was dispatched under is still cached.
      False ("real mode"): fetches bypass the TLB, and ``real_pa(pc)``
      names the code's physical address (side-effect free; it raises
      where a fetch would).
    * ``translate_bound``: an upper bound on the cycles one successful
      ``translate`` returns. The dispatcher admits a block under a cycle
      budget only when every access in it could be this slow and still
      fit.
    """

    tlb: TLB


class BareMMU(MMUBase):
    """Directly walks the page tables named by the current root.

    This is "the hardware MMU": a TLB in front of a 2-level walker.
    With ``tlb_active`` False (reset state, before the kernel loads
    PTBR) addresses pass through untranslated, which is how boot code
    runs before enabling paging.
    """

    def __init__(self, physmem: PhysicalMemory, costs: CostModel):
        self.physmem = physmem
        self.costs = costs
        self.walker = PageTableWalker(physmem)
        self.tlb = TLB(TLB_ENTRIES)
        self.root_pa = 0
        #: Paging is on (a plain attribute: the dispatcher reads it at
        #: every block dispatch).
        self.tlb_active = False

    def translate(self, va: int, access: AccessType, user: bool) -> Tuple[int, int]:
        if not self.tlb_active:
            return va & 0xFFFFFFFF, 0
        va &= 0xFFFFFFFF
        vpn = va >> PAGE_SHIFT
        pte = self.tlb.lookup(vpn, access, user)
        if pte is not None:
            return (pte >> PAGE_SHIFT << PAGE_SHIFT) | (va & 0xFFF), self.costs.tlb_hit_cycles
        pte = self.walker.walk(self.root_pa, va, access, user)[1]
        self.tlb.insert(vpn, pte)
        return (pte >> PAGE_SHIFT << PAGE_SHIFT) | (va & 0xFFF), self.costs.tlb_miss_cycles

    def real_pa(self, pc: int) -> int:
        return pc & 0xFFFFFFFF

    @property
    def translate_bound(self) -> int:
        return self.costs.tlb_miss_cycles

    def set_root(self, root_pa: int) -> None:
        self.root_pa = root_pa & ~0xFFF
        self.tlb_active = True
        self.tlb.flush()

    def invlpg(self, va: int) -> None:
        self.tlb.invalidate((va & 0xFFFFFFFF) >> PAGE_SHIFT)

    def flush(self) -> None:
        self.tlb.flush()


class TwoStageMMU(MMUBase):
    """Two-dimensional translation: guest tables over a host-owned EPT.

    Guest VA -> guest PA through the guest's own tables, guest PA ->
    host PA through the second-stage table (``ept``; the G-stage of the
    H-mode extension): the one walk, :class:`~repro.mem.paging.
    PageTableWalker`, with :meth:`~repro.mem.paging.GStageWalker.walk`
    as its table-access step; combined translations are cached in one
    TLB. The guest keeps PTBR/INVLPG native (no MMU exits). For 2-level
    tables on both sides a cold walk is

        2 guest levels x (2 EPT refs + 1 entry read) + 2 final EPT refs = 8

    entry references versus 2 for shadow/native -- the classic
    (n+1)(m+1)-1 amplification measured in experiment E3.

    EPT permissions double as the host-control plane: an unmapped guest
    frame raises an ``ept_violation`` exit (demand allocation, post-copy
    migration, swap-in), and a write to a write-protected entry raises a
    ``dirty_log`` exit (pre-copy round tracking, copy-on-write).

    ``hmode`` selects the two things the hw-nested and hw-hmode engines
    really differ in: False prices every reference at
    ``mem_ref_cycles`` and leaves the EPT's own A/D bits alone
    (VT-x-style nested paging); True prices second-stage references at
    ``gstage_ref_cycles``, maintains A/D at both stages and consults
    ``stall_fn`` (the architected H-mode walker).
    """

    def __init__(
        self,
        host_physmem: PhysicalMemory,
        host_allocator: FrameAllocator,
        guest_mem,
        costs: CostModel,
        *,
        hmode: bool,
        ept: AddressSpace,
    ):
        self.physmem = host_physmem
        self.costs = costs
        self.guest_mem = guest_mem
        self.hmode = hmode
        self.tlb = TLB(TLB_ENTRIES)
        #: The second-stage table (gPA -> hPA), host-owned: it outlives
        #: this MMU when a VM is recycled.
        self.ept = ept
        self.gstage = GStageWalker(host_physmem, ept.root_pa, ad=hmode)
        self.walker = PageTableWalker(host_physmem, self.gstage.walk)
        self.guest_root: Optional[int] = None
        #: Optional fault-injection hook (``hmode.gstage_stall``):
        #: called once per two-stage TLB miss, returns extra cycles (at
        #: most ``GSTAGE_STALL_REFS`` G-stage references' worth).
        self.stall_fn: Optional[Callable[[], int]] = None

    # -- host memory control ---------------------------------------------------

    def map_gfns(self, hfns: Dict[int, int]) -> None:
        """Back each guest frame ``gfn`` of ``hfns`` with host frame
        ``hfns[gfn]`` in the EPT."""
        self.guest_mem.write_protected.difference_update(hfns)
        leaves = {}
        for gfn, hfn in hfns.items():
            leaves[gfn] = (hfn << PAGE_SHIFT) | GSTAGE_BACKED
        self.ept.rewrite_leaves(0, leaves)

    def rebind_gfns(self, hfns: Dict[int, int], writable: bool) -> None:
        """Each ``gfn`` of ``hfns`` is now backed by ``hfns[gfn]``,
        whatever backed it before."""
        if not hfns:
            return
        flags = GSTAGE_BACKED
        if writable:
            self.guest_mem.write_protected.difference_update(hfns)
        else:
            self.guest_mem.write_protected.update(hfns)
            flags &= ~PTE_WRITABLE
        leaves = {}
        for gfn, hfn in hfns.items():
            leaves[gfn] = (hfn << PAGE_SHIFT) | flags
        self.ept.rewrite_leaves(0, leaves)
        self.tlb.flush()  # conservatively drop combined translations

    def drop_gfns(self, gfns: Collection[int]) -> None:
        """Unmap ``gfns`` from the EPT; the next access of each is an EPT
        violation."""
        if self.ept.rewrite_leaves(0, dict.fromkeys(gfns, 0)):
            self.tlb.flush()  # conservatively drop combined translations

    def write_protect_gfns(self, gfns: Collection[int]) -> None:
        self.guest_mem.write_protected.update(gfns)
        if self.ept.rewrite_leaves(~PTE_WRITABLE, dict.fromkeys(gfns, 0)):
            self.tlb.flush()

    def unprotect_gfns(self, gfns: Collection[int]) -> None:
        self.guest_mem.write_protected.difference_update(gfns)
        self.ept.rewrite_leaves(-1, dict.fromkeys(gfns, PTE_WRITABLE))

    # -- MMUBase interface ----------------------------------------------------

    def translate(self, va: int, access: AccessType, user: bool) -> Tuple[int, int]:
        va &= 0xFFFFFFFF
        vpn = va >> PAGE_SHIFT
        pte = self.tlb.lookup(vpn, access, user)
        if pte is not None:
            return (
                (pte >> PAGE_SHIFT << PAGE_SHIFT) | (va & 0xFFF),
                self.costs.tlb_hit_cycles,
            )
        stall = self.stall_fn() if self.stall_fn is not None else 0
        costs = self.costs
        ept_ref_cycles = (
            costs.gstage_ref_cycles if self.hmode else costs.mem_ref_cycles
        )
        flags = PTE_PRESENT | PTE_ACCESSED
        if access is _WRITE:
            # Lazy-W: cache write permission only once D is set, so the
            # next write after a dirty-log round re-walks.
            flags |= PTE_WRITABLE | PTE_DIRTY
        gstage = self.gstage
        gstage_walks = gstage.walks
        try:
            if self.guest_root is None:
                # Guest paging off: VA is a gPA; one EPT walk.
                hpa = gstage.walk(va, access)
                flags |= PTE_USER
                walk_cycles = 0
            else:
                # Every guest entry read and A/D write-back is a G-stage
                # walk, and so is the data's gPA: 6, 8 or 10 references.
                pde, pte = self.walker.walk(self.guest_root, va, access, user)
                hpa = gstage.walk((pte >> PAGE_SHIFT << PAGE_SHIFT) | (va & 0xFFF), access)
                flags |= (pde & pte & PTE_USER) | (pte & PTE_NOEXEC)
                walk_cycles = 2 * costs.mem_ref_cycles
        except GStageFault as fault:
            raise self._ept_exit(fault) from None
        walk_cycles += 2 * (gstage.walks - gstage_walks) * ept_ref_cycles
        self.tlb.insert(vpn, (hpa >> PAGE_SHIFT << PAGE_SHIFT) | flags)
        return hpa, costs.tlb_hit_cycles + walk_cycles + stall

    #: Guest paging off still walks the EPT through the TLB.
    tlb_active = True

    @property
    def translate_bound(self) -> int:
        # Cold walk with every A/D write-back: 2 guest entry reads,
        # 5 G-stage walks of 2 references each, one walker stall.
        costs = self.costs
        ept_ref_cycles = (
            costs.gstage_ref_cycles if self.hmode else costs.mem_ref_cycles
        )
        return (
            costs.tlb_hit_cycles
            + 2 * costs.mem_ref_cycles
            + 10 * ept_ref_cycles
            + GSTAGE_STALL_REFS * costs.gstage_ref_cycles
        )

    def set_root(self, root_pa: int) -> None:
        """Guest PTBR write: entirely guest-local under two-stage paging."""
        self.guest_root = root_pa & ~0xFFF
        self.tlb.flush()

    def invlpg(self, va: int) -> None:
        self.tlb.invalidate((va & 0xFFFFFFFF) >> PAGE_SHIFT)

    def flush(self) -> None:
        self.tlb.flush()

    # -- internals -------------------------------------------------------------

    def _ept_exit(self, fault: GStageFault) -> VMExit:
        """Map a second-stage fault onto the architected exit kinds."""
        gfn = fault.gpa >> PAGE_SHIFT
        kind = (
            "dirty_log"
            if fault.present and gfn in self.guest_mem.write_protected
            else "ept_violation"
        )
        return VMExit(
            ExitReason.PAGE_FAULT, kind=kind,
            gpa=fault.gpa, gfn=gfn, access=fault.access,
        )
