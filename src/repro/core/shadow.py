"""Shadow page tables.

The VMM maintains, per (guest page-table root, privilege view), a
*shadow* page table mapping guest virtual addresses directly to host
physical addresses. The hardware (our TLB + walker) only ever sees
shadow tables. Coherence with the guest's own tables is maintained by:

* **demand fill** -- shadow entries are created lazily on the first
  access (a "shadow fill" VM exit);
* **write protection of guest page tables** -- frames discovered to hold
  guest page tables are mapped read-only in the shadow, so guest PT
  updates trap and the VMM applies them (the "PT-update tax" of
  experiment E2). Paravirtual guests disable this
  (``trap_pt_writes=False``) and instead write their tables through
  batched hypercalls; their own stores to a table are not seen (the
  PV contract);
* **one invalidation route** -- every write the host makes into a
  table gfn through :class:`~repro.core.vm.GuestMemory` (the emulated
  store, the ``mmu_batch`` hypercall, device DMA) calls
  :meth:`ShadowMMU.tables_written`, which drops the shadow entries the
  written words fed;
* **lazy dirty bits** -- shadow entries are first mapped read-only even
  for guest-writable pages; the first write faults, the VMM sets the
  guest PTE's D bit and upgrades the shadow entry. ``GuestMemory.
  write_protected`` gfns (dirty logging, COW) are never mapped writable.

**Ring compression**: under deprivileged execution the guest kernel runs
in real user mode, so its kernel-only pages must be user-accessible in
the shadow -- but only while the guest is virtually in kernel mode. The
VMM therefore keeps *two* shadow views per guest root (kernel view:
everything user-accessible; user view: guest U bits honored) and
switches on virtual privilege transitions, flushing the TLB each time --
a real, measured cost of software virtualization.
"""

from typing import Collection, Dict, Optional, Set, Tuple

from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.mmu import MMUBase
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AccessType,
    AddressSpace,
    PTE_DIRTY,
    PTE_NOEXEC,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
    PageTableWalker,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.mem.tlb import TLB, TLB_ENTRIES
from repro.util.units import PAGE_SHIFT

_WRITE, _EXEC = AccessType.WRITE, AccessType.EXEC  # bound once: enum lookups


class ShadowMMU(MMUBase):
    """Shadow-paging MMU installed on a vCPU's core."""

    def __init__(
        self,
        host_physmem: PhysicalMemory,
        host_allocator: FrameAllocator,
        guest_mem,
        costs: CostModel,
        ring_compression: bool = True,
        trap_pt_writes: bool = True,
    ):
        self.physmem = host_physmem  # CPUCore reads/writes through this
        self.allocator = host_allocator
        self.guest_mem = guest_mem
        self.costs = costs
        self.walker = PageTableWalker(host_physmem)
        #: The same walk of the guest's own tables, in guest-physical
        #: space (no one reads its counters): each entry is reached
        #: through ``gpa_to_hpa``, which faults an unbacked table in, and
        #: each leaf table is registered as the walk reaches it.
        self.guest_walker = PageTableWalker(host_physmem, guest_mem.gpa_to_hpa,
                                            self._register_pt_gfn)
        #: And with no side effect at all (BT's re-check of a block): an
        #: unbacked table raises KeyError, and nothing is registered.
        gmap = guest_mem.map
        self.peek_walker = PageTableWalker(
            host_physmem,
            lambda gpa, _access: (gmap[gpa >> PAGE_SHIFT] << PAGE_SHIFT) | (gpa & 0xFFF))
        self.tlb = TLB(TLB_ENTRIES)
        self.ring_compression = ring_compression
        self.trap_pt_writes = trap_pt_writes

        self.guest_root: Optional[int] = None  # guest-physical PD address
        self.kernel_view = True
        #: Virtual privilege of the currently-running guest context;
        #: maintained by the VMM on virtual mode switches. Only
        #: meaningful when ring_compression is on.
        self.guest_user_mode = False

        self._spaces: Dict[Tuple[int, bool], AddressSpace] = {}
        self.pt_gfns: Set[int] = set()

        #: gfn -> every (space key, page va) a fill mapped it at; what
        #: drop / rebind / write-protect of a guest frame has to visit.
        self._fills: Dict[int, Set[Tuple[Tuple[int, bool], int]]] = {}
        self._pt_backrefs: Dict[int, Set[Tuple[Tuple[int, bool], int]]] = {}

        self.fills = 0
        self.view_switches = 0
        self.root_switches = 0

    # -- MMUBase interface ----------------------------------------------------

    def translate(self, va: int, access: AccessType, user: bool) -> Tuple[int, int]:
        va &= 0xFFFFFFFF
        if self.guest_root is None:
            # Guest paging off ("real mode"): VA == gPA, direct map.
            mem = self.guest_mem
            gfn = va >> PAGE_SHIFT
            hfn = mem.map.get(gfn)
            if hfn is None or access is _WRITE and gfn in mem.write_protected:
                raise VMExit(ExitReason.PAGE_FAULT, gpa=va, gfn=gfn, access=access,
                             kind="ept_violation" if hfn is None else "dirty_log")
            return (hfn << PAGE_SHIFT) | (va & 0xFFF), 0
        vpn = va >> PAGE_SHIFT
        pte = self.tlb.lookup(vpn, access, user)
        if pte is not None:
            return (pte >> PAGE_SHIFT << PAGE_SHIFT) | (va & 0xFFF), self.costs.tlb_hit_cycles
        space = self._current_space()
        try:
            pte = self.walker.walk(space.root_pa, va, access, user)[1]
        except PageFault:
            self._miss(va, access, user)  # always raises
            raise AssertionError("unreachable")
        self.tlb.insert(vpn, pte)
        return (
            (pte >> PAGE_SHIFT << PAGE_SHIFT) | (va & 0xFFF),
            self.costs.tlb_hit_cycles + 2 * self.costs.mem_ref_cycles,
        )

    @property
    def tlb_active(self) -> bool:
        return self.guest_root is not None

    def real_pa(self, pc: int) -> int:
        """Guest paging off: :meth:`translate`'s real-mode arm for a fetch."""
        pc &= 0xFFFFFFFF
        hfn = self.guest_mem.map.get(pc >> PAGE_SHIFT)
        if hfn is None:
            raise VMExit(ExitReason.PAGE_FAULT, gpa=pc, gfn=pc >> PAGE_SHIFT,
                         access=_EXEC, kind="ept_violation")
        return (hfn << PAGE_SHIFT) | (pc & 0xFFF)

    @property
    def translate_bound(self) -> int:
        return self.costs.tlb_hit_cycles + 2 * self.costs.mem_ref_cycles

    def set_root(self, root_pa: int) -> None:
        """CSRW PTBR reached the MMU: the operand is a *guest* PA."""
        self.switch_guest_root(root_pa)

    def invlpg(self, va: int) -> None:
        """Drop one translation from TLB and current shadow."""
        va &= 0xFFFFFFFF
        self.tlb.invalidate(va >> PAGE_SHIFT)
        if self.guest_root is not None:
            self._current_space().unmap(va & ~0xFFF)

    def flush(self) -> None:
        self.tlb.flush()

    # -- VMM-facing operations -----------------------------------------------

    def switch_guest_root(self, root_gpa: int) -> None:
        self.guest_root = root_gpa & ~0xFFF
        self._register_pt_gfn(self.guest_root >> PAGE_SHIFT)
        self._ensure_space()
        self.tlb.flush()
        self.root_switches += 1

    def set_view(self, kernel: bool) -> None:
        """Ring-compression view switch on virtual privilege change."""
        if not self.ring_compression:
            return
        self.guest_user_mode = not kernel
        if kernel == self.kernel_view:
            return
        self.kernel_view = kernel
        if self.guest_root is not None:
            self._ensure_space()
        self.tlb.flush()
        self.view_switches += 1

    def fill(self, va: int, access: AccessType) -> None:
        """Service a shadow-fill exit: create/upgrade the shadow entry.

        The guest walk writes accessed (and on writes, dirty) back into
        the *guest's* entries, as hardware would were the guest running
        bare -- past GuestMemory's table route: A/D bits invalidate
        nothing."""
        va &= 0xFFFFFFFF
        pde, pte = self.guest_walker.walk(self.guest_root, va, access,
                                          self.guest_user_mode, True)
        gfn = pte >> PAGE_SHIFT
        mem = self.guest_mem

        flags = PTE_PRESENT | (pte & PTE_NOEXEC) | (
            PTE_USER if self.ring_compression and self.kernel_view else pde & pte & PTE_USER)
        # Lazy dirty technique: map read-only until the first write.
        if access is _WRITE:
            if gfn in self.pt_gfns and self.trap_pt_writes:
                raise AssertionError(
                    "fill(WRITE) on a guest PT page must go through "
                    "the pt_write handler"
                )
            if gfn not in mem.write_protected:
                flags |= PTE_WRITABLE | PTE_DIRTY
        # Shadow A/D set by the hardware walker as it goes.

        space = self._current_space()
        space_key = self._space_key()
        page_va = va & ~0xFFF
        # Resolved last: the write-backs above may have re-pointed it (COW
        # break of a page table that maps itself); an unbacked one comes in.
        space.map(page_va, mem.backing(gfn) << PAGE_SHIFT, flags)
        self.tlb.invalidate(va >> PAGE_SHIFT)
        self._fills.setdefault(gfn, set()).add((space_key, page_va))
        self._pt_backrefs.setdefault(pde >> PAGE_SHIFT, set()).add(
            (space_key, va >> 22))
        self.fills += 1

    def tables_written(self, gpa: int, length: int) -> None:
        """``[gpa, gpa + length)`` of guest page tables was written:
        drop what every written entry of a table in use fed."""
        entry, end = gpa & ~3, gpa + length
        pt_gfns = self.pt_gfns
        while entry < end:
            if entry >> PAGE_SHIFT in pt_gfns:
                self.handle_guest_pt_write(entry)
            entry += 4

    def handle_guest_pt_write(self, gpa: int) -> None:
        """The guest PT entry at ``gpa`` changed; invalidate shadows."""
        gfn = gpa >> PAGE_SHIFT
        entry_index = (gpa & 0xFFF) >> 2
        if self.guest_root is not None and gfn == self.guest_root >> PAGE_SHIFT:
            # Page-directory update: drop the whole 4 MiB subtree in
            # every view of this root.
            for view in (True, False):
                space = self._spaces.get((self.guest_root, view))
                if space is not None:
                    space.clear_pde(entry_index)
            self.tlb.flush()
            return
        for space_key, dir_idx in self._pt_backrefs.get(gfn, ()):
            space = self._spaces.get(space_key)
            if space is None:
                continue
            va = (dir_idx << 22) | (entry_index << 12)
            space.unmap(va)
            self.tlb.invalidate(va >> PAGE_SHIFT)

    def write_protect_gfns(self, gfns: Collection[int]) -> None:
        """Start dirty-logging ``gfns`` (live migration, sharing): each
        shadow entry made writable goes from the TLB, nothing else."""
        self.guest_mem.write_protected.update(gfns)
        self._downgrade_writable(gfns)

    def unprotect_gfns(self, gfns: Collection[int]) -> None:
        self.guest_mem.write_protected.difference_update(gfns)

    def map_gfns(self, hfns: Dict[int, int]) -> None:
        """The host backed ``hfns``: shadows fill lazily."""

    def drop_gfns(self, gfns: Collection[int]) -> None:
        """Remove every shadow mapping of guest frames (balloon, swap,
        restore, sharing)."""
        if gfns:
            for space, vpns in self._filled(gfns, self._fills.pop).items():
                space.rewrite_leaves(0, vpns)
            self.tlb.flush()

    def rebind_gfns(self, hfns: Dict[int, int], writable: bool) -> None:
        """Each gfn of ``hfns`` is now backed by its hfn: refill from
        there, lazily."""
        self.drop_gfns(hfns)
        if writable:
            self.guest_mem.write_protected.difference_update(hfns)
        else:
            self.guest_mem.write_protected.update(hfns)

    def destroy(self) -> None:
        for space in self._spaces.values():
            space.destroy()
        self._spaces.clear()
        self.tlb.flush()

    # -- internals ---------------------------------------------------------

    def _miss(self, va: int, access: AccessType, real_user: bool) -> None:
        """Shadow walk failed: classify into guest fault or VMM work."""
        user = self.guest_user_mode if self.ring_compression else real_user
        # May raise PageFault, with the *virtual* privilege.
        pte = self.guest_walker.walk(self.guest_root, va, access, user, False)[1]
        gfn_written = pte >> PAGE_SHIFT
        if access is _WRITE:
            if gfn_written in self.pt_gfns and self.trap_pt_writes:
                raise VMExit(
                    ExitReason.PAGE_FAULT,
                    kind="pt_write",
                    va=va,
                    gpa=(gfn_written << PAGE_SHIFT) | (va & 0xFFF),
                    access=access,
                )
            if gfn_written in self.guest_mem.write_protected:
                raise VMExit(
                    ExitReason.PAGE_FAULT,
                    kind="dirty_log",
                    va=va,
                    gfn=gfn_written,
                    access=access,
                )
        raise VMExit(
            ExitReason.PAGE_FAULT, kind="shadow_fill", va=va, access=access
        )

    def _register_pt_gfn(self, gfn: int) -> None:
        if gfn in self.pt_gfns:
            return
        self.pt_gfns.add(gfn)
        if self.trap_pt_writes and gfn in self._fills:
            self._downgrade_writable((gfn,))

    def _downgrade_writable(self, gfns: Collection[int]) -> None:
        """Make every existing writable shadow mapping of ``gfns``
        read-only."""
        for space, vpns in self._filled(gfns, self._fills.get).items():
            for vpn, old in space.rewrite_leaves(~PTE_WRITABLE, vpns).items():
                if old & PTE_WRITABLE:
                    self.tlb.invalidate(vpn)

    def _filled(self, gfns: Collection[int], fills) -> Dict[AddressSpace, Dict[int, int]]:
        """``{shadow space: {vpn: 0}}`` of every entry a fill of ``gfns``
        made, each gfn's fills taken by ``fills(gfn, ())``."""
        spaces: Dict[AddressSpace, Dict[int, int]] = {}
        for gfn in gfns:
            for space_key, page_va in fills(gfn, ()):
                space = self._spaces.get(space_key)
                if space is not None:
                    spaces.setdefault(space, {})[page_va >> PAGE_SHIFT] = 0
        return spaces

    def _space_key(self) -> Tuple[int, bool]:
        view = self.kernel_view if self.ring_compression else True
        return (self.guest_root, view)

    def _ensure_space(self) -> AddressSpace:
        key = self._space_key()
        space = self._spaces.get(key)
        if space is None:
            space = AddressSpace(self.physmem, self.allocator)
            self._spaces[key] = space
        return space

    def _current_space(self) -> AddressSpace:
        return self._ensure_space()
