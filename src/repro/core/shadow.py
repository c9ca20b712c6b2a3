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

from typing import Dict, Optional, Set, Tuple

from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.mmu import MMUBase
from repro.mem.costs import CostModel
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
    pte_frame,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.mem.tlb import TLB, TLB_ENTRIES
from repro.util.units import PAGE_SHIFT

_WRITE, _EXEC = AccessType.WRITE, AccessType.EXEC  # bound once: enum lookups


class _GuestWalk:
    """Result of a software walk of the guest's own page tables."""

    __slots__ = ("pde_gpa", "pte_gpa", "pde", "pte", "gfn", "pt_gfn")

    def __init__(self, pde_gpa, pte_gpa, pde, pte, gfn, pt_gfn):
        self.pde_gpa = pde_gpa
        self.pte_gpa = pte_gpa
        self.pde = pde
        self.pte = pte
        self.gfn = gfn  # target guest frame
        self.pt_gfn = pt_gfn  # guest frame holding the leaf page table


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
            pte = self.walker.walk(space.root_pa, va, access, user)
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
        return self.translate(pc, _EXEC, False)[0]  # guest paging off

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
        """Service a shadow-fill exit: create/upgrade the shadow entry."""
        va &= 0xFFFFFFFF
        walk = self._guest_walk(va, access)
        gfn = walk.gfn
        mem = self.guest_mem

        # Propagate accessed (and on writes, dirty) into the *guest* PTE,
        # as hardware would have done were the guest running bare. Past
        # GuestMemory's table route: A/D bits invalidate nothing.
        new_pte = walk.pte | PTE_ACCESSED
        writable = False
        if access is AccessType.WRITE:
            new_pte |= PTE_DIRTY
            writable = True
        if new_pte != walk.pte:
            self.physmem.write_u32(mem.gpa_to_hpa(walk.pte_gpa, True), new_pte)
        if walk.pde & PTE_ACCESSED == 0:
            self.physmem.write_u32(mem.gpa_to_hpa(walk.pde_gpa, True),
                                   walk.pde | PTE_ACCESSED)

        flags = PTE_PRESENT
        if walk.pte & PTE_NOEXEC:
            flags |= PTE_NOEXEC
        if self.ring_compression:
            flags |= PTE_USER if self.kernel_view else (walk.pde & walk.pte & PTE_USER)
        else:
            flags |= walk.pde & walk.pte & PTE_USER
        # Lazy dirty technique: map read-only until the first write.
        if writable:
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
        self._pt_backrefs.setdefault(walk.pt_gfn, set()).add(
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

    def write_protect_gfn(self, gfn: int) -> None:
        """Start dirty-logging ``gfn`` (live migration)."""
        self.guest_mem.write_protected.add(gfn)
        self._downgrade_writable(gfn)

    def unprotect_gfn(self, gfn: int) -> None:
        self.guest_mem.write_protected.discard(gfn)

    def map_gfn(self, gfn: int, hfn: int) -> None:
        """The host backed ``gfn``: shadows fill lazily."""

    def drop_gfn(self, gfn: int) -> None:
        """Remove every shadow mapping of a guest frame (balloon, swap,
        sharing break)."""
        for space_key, page_va in self._fills.pop(gfn, ()):
            space = self._spaces.get(space_key)
            if space is not None:
                space.unmap(page_va)
        self.tlb.flush()

    def rebind_gfn(self, gfn: int, hfn: int, writable: bool) -> None:
        """``gfn`` is now backed by ``hfn``: refill from there, lazily."""
        self.drop_gfn(gfn)
        if writable:
            self.guest_mem.write_protected.discard(gfn)
        else:
            self.guest_mem.write_protected.add(gfn)

    def destroy(self) -> None:
        for space in self._spaces.values():
            space.destroy()
        self._spaces.clear()
        self.tlb.flush()

    # -- internals ---------------------------------------------------------

    def _effective_user(self, real_user: bool) -> bool:
        if self.ring_compression:
            return self.guest_user_mode
        return real_user

    def _miss(self, va: int, access: AccessType, real_user: bool) -> None:
        """Shadow walk failed: classify into guest fault or VMM work."""
        effective_user = self._effective_user(real_user)
        walk = self._guest_walk(va, access, effective_user)  # may raise PageFault
        gfn_written = walk.gfn
        if access is AccessType.WRITE:
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

    def _guest_walk(
        self, va: int, access: AccessType, effective_user: Optional[bool] = None
    ) -> _GuestWalk:
        """Software walk of the guest's tables in guest-physical space.

        Raises :class:`PageFault` (guest-visible, with the *virtual*
        privilege) when the guest's own tables forbid the access.
        """
        if effective_user is None:
            effective_user = self.guest_user_mode if self.ring_compression else False
        assert self.guest_root is not None
        pde_gpa = self.guest_root + (va >> 22) * 4
        pde = self.guest_mem.read_u32(pde_gpa)
        if not pde & PTE_PRESENT:
            raise PageFault(va, access, effective_user, present=False)
        pt_gfn = pte_frame(pde)
        self._register_pt_gfn(pt_gfn)
        pte_gpa = (pt_gfn << PAGE_SHIFT) + ((va >> 12) & 0x3FF) * 4
        pte = self.guest_mem.read_u32(pte_gpa)
        if not pte & PTE_PRESENT:
            raise PageFault(va, access, effective_user, present=False)
        combined = pde & pte
        if effective_user and not combined & PTE_USER:
            raise PageFault(va, access, effective_user, present=True)
        if access is AccessType.WRITE and not combined & PTE_WRITABLE:
            raise PageFault(va, access, effective_user, present=True)
        if access is AccessType.EXEC and pte & PTE_NOEXEC:
            raise PageFault(va, access, effective_user, present=True)
        return _GuestWalk(pde_gpa, pte_gpa, pde, pte, pte_frame(pte), pt_gfn)

    def kernel_fetch_gfn(self, va: int) -> Optional[Tuple[int, int]]:
        """``(gfn, pt_gfn)`` of a virtual-kernel fetch of ``va``, or None
        where it would fault: ``_guest_walk`` without its side effects
        (no page table registered, no unbacked table faulted in -- None
        then too). The binary translator re-checks a cached block with it."""
        mem = self.guest_mem
        table = self.guest_root >> PAGE_SHIFT
        for index in (va >> 22, (va >> 12) & 0x3FF):
            hfn = mem.map.get(table)
            if hfn is None:
                return None
            pt_gfn = table
            entry = self.physmem.read_u32((hfn << PAGE_SHIFT) + index * 4)
            if not entry & PTE_PRESENT:
                return None
            table = pte_frame(entry)
        return None if entry & PTE_NOEXEC else (table, pt_gfn)

    def _register_pt_gfn(self, gfn: int) -> None:
        if gfn in self.pt_gfns:
            return
        self.pt_gfns.add(gfn)
        if self.trap_pt_writes:
            self._downgrade_writable(gfn)

    def _downgrade_writable(self, gfn: int) -> None:
        """Make every existing writable shadow mapping of gfn read-only."""
        for space_key, page_va in self._fills.get(gfn, ()):
            space = self._spaces.get(space_key)
            if space is not None and (
                space.rewrite_leaf(page_va, ~PTE_WRITABLE, 0) & PTE_WRITABLE
            ):
                self.tlb.invalidate(page_va >> PAGE_SHIFT)

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
