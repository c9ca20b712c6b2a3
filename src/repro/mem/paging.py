"""Two-level page tables: entry format, the one walk, address-space builder.

The PTE/PDE format (one 32-bit word)::

    31                    12 11      6  5   4   3   2   1   0
    +-----------------------+---------+----+---+---+---+---+---+
    |      frame number     | (unused)| NX | D | A | U | W | P |
    +-----------------------+---------+----+---+---+---+---+---+

Permissions combine across levels the way modern x86 does: an access is
allowed only if *both* the PDE and the PTE allow it (W for writes, U for
user-mode accesses). Accessed bits are set at both levels on a
successful walk; the dirty bit is set at the leaf on writes.

That rule is :class:`PageTableWalker`, and every MMU walks guest or host
tables with it: the bare MMU and the shadow tables directly, the guest
stage of two-stage paging through :class:`GStageWalker` (whose own rule
is the second stage's), the shadow MMU's walk of the guest's tables
through the guest's gpa -> hpa map. ``tests/test_mem_walk_reference.py``
holds every one of those walks to a reference written out separately.
"""

import enum
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.errors import MemoryError_
from repro.util.units import PAGE_SHIFT

PTE_PRESENT = 1 << 0
PTE_WRITABLE = 1 << 1
PTE_USER = 1 << 2
PTE_ACCESSED = 1 << 3
PTE_DIRTY = 1 << 4
PTE_NOEXEC = 1 << 5

_FLAGS_MASK = (1 << PAGE_SHIFT) - 1
_FRAME_MASK = ~_FLAGS_MASK

_U32 = struct.Struct("<I")

#: Entries per page-table page (4096 / 4).
ENTRIES_PER_TABLE = 1024


class AccessType(enum.Enum):
    """The three access kinds a walk can be performed for."""

    READ = "read"
    WRITE = "write"
    EXEC = "exec"


#: Bound once: an enum member is a metaclass lookup on every use.
_READ, _WRITE, _EXEC = AccessType.READ, AccessType.WRITE, AccessType.EXEC

@dataclass
class PageFault(Exception):
    """Raised by the walker/TLB when a translation cannot be completed.

    ``present`` distinguishes protection faults (True: the mapping exists
    but forbids this access) from not-present faults (False).
    """

    vaddr: int
    access: AccessType
    user: bool
    present: bool

    def __str__(self) -> str:
        kind = "protection" if self.present else "not-present"
        mode = "user" if self.user else "kernel"
        return (
            f"page fault: {kind} on {self.access.value} of "
            f"{self.vaddr:#010x} in {mode} mode"
        )


def make_pte(pfn: int, flags: int) -> int:
    """Build an entry from a frame number and flag bits."""
    if pfn < 0 or pfn >= (1 << (32 - PAGE_SHIFT)):
        raise MemoryError_(f"PFN {pfn} out of range")
    if flags & ~_FLAGS_MASK:
        raise MemoryError_(f"flags {flags:#x} overlap the frame field")
    return (pfn << PAGE_SHIFT) | flags


def pte_frame(pte: int) -> int:
    """Extract the frame number from an entry."""
    return pte >> PAGE_SHIFT


class PageTableWalker:
    """VISA's page-table rule, written once: every walk of a 2-level tree.

    The PDE, then the PTE, must be present; then a user access needs
    USER in PDE & PTE, a write WRITABLE in PDE & PTE, a fetch a PTE
    without NOEXEC. The first test that fails raises :class:`PageFault`.
    A successful walk may write ACCESSED back into both entries, PDE
    first, and DIRTY into the leaf of a write.

    Walks differ only in how a table entry is reached: ``step(addr,
    access)`` turns an entry's address into a host address, with
    ``access`` READ for an entry read and WRITE for an A/D write-back.
    ``step`` is None (the identity, inline) for tables in host-physical
    memory: the bare MMU's, the shadow tables. Under two-stage paging it
    is :meth:`GStageWalker.walk`; for the shadow MMU's walk of the
    guest's own tables, the guest's gpa -> hpa map. ``tables``, if set,
    is called with the leaf table's frame after the PDE admits it and
    before the PTE is read (the shadow MMU registers guest tables there).
    """

    def __init__(self, physmem: PhysicalMemory, step=None, tables=None):
        self.physmem = physmem
        self.step = step
        self.tables = tables
        self.walks = 0
        self.faults = 0

    def walk(self, root: int, va: int, access: AccessType, user: bool,
             ad: bool = True) -> Tuple[int, int]:
        """``(pde, pte)`` of ``va`` under the directory at ``root``, as
        they stand after the walk; A/D is written back only with ``ad``.

        ``user`` is the privilege of the access (True = user mode); the
        translation is the leaf's frame plus ``va``'s page offset.
        Entries are read straight from the backing buffer (out of RAM
        raises through ``read_u32``); A/D updates go through
        ``write_u32`` so write watchers (SMC invalidation, dirty
        tracking) observe them.
        """
        self.walks += 1
        pm = self.physmem
        size = pm.size
        step = self.step
        pde_pa = root + ((va >> 20) & 0xFFC)
        pde_at = pde_pa if step is None else step(pde_pa, _READ)
        if pde_at + 4 > size:
            pm.read_u32(pde_at)  # out of RAM: raise the canonical error
        pde = _U32.unpack_from(pm._data, pde_at)[0]
        if not pde & PTE_PRESENT:
            self.faults += 1
            raise PageFault(va, access, user, present=False)
        if self.tables is not None:
            self.tables(pde >> PAGE_SHIFT)
        pte_pa = (pde & _FRAME_MASK) + ((va >> 10) & 0xFFC)
        pte_at = pte_pa if step is None else step(pte_pa, _READ)
        if pte_at + 4 > size:
            pm.read_u32(pte_at)
        pte = _U32.unpack_from(pm._data, pte_at)[0]
        if not pte & PTE_PRESENT:
            self.faults += 1
            raise PageFault(va, access, user, present=False)
        combined = pde & pte
        if (user and not combined & PTE_USER
                or access is _WRITE and not combined & PTE_WRITABLE
                or access is _EXEC and pte & PTE_NOEXEC):
            self.faults += 1
            raise PageFault(va, access, user, present=True)
        if ad:
            if not pde & PTE_ACCESSED:
                pde |= PTE_ACCESSED
                pm.write_u32(pde_pa if step is None else step(pde_pa, _WRITE), pde)
            new_pte = pte | PTE_ACCESSED
            if access is _WRITE:
                new_pte |= PTE_DIRTY
            if new_pte != pte:
                pte = new_pte
                pm.write_u32(pte_pa if step is None else step(pte_pa, _WRITE), pte)
        return pde, pte


@dataclass
class GStageFault(Exception):
    """Raised by the G-stage walker when a guest-physical address cannot
    be translated to a host-physical one.

    This is the memory-layer analogue of an EPT violation: ``present``
    distinguishes a write denied by a read-only G-stage entry (True,
    e.g. dirty logging) from an unmapped guest frame (False). The
    two-stage MMU maps it onto a :class:`~repro.cpu.exits.VMExit`; the
    memory layer itself stays free of CPU-package imports.
    """

    gpa: int
    access: AccessType
    present: bool

    def __str__(self) -> str:
        kind = "write-protected" if self.present else "unmapped"
        return (
            f"G-stage fault: {kind} on {self.access.value} of "
            f"guest-physical {self.gpa:#010x}"
        )


class GStageWalker:
    """The second stage (G-stage, EPT) of two-stage translation: gPA -> hPA.

    Its tables are ordinary 2-level tables at ``root_pa`` in host
    memory, but its rule is its own: present, and WRITABLE in PDE & PTE
    for a write -- no USER, no NOEXEC -- else :class:`GStageFault`; A/D
    are maintained only with ``ad`` (the H-mode walker), not under
    VT-x-style nested paging. :meth:`walk` is also the guest stage's
    table-access step (a :class:`PageTableWalker` with ``step=walk``), so
    with 2-level tables on both sides a cold walk costs ``2 x (2 + 1) +
    2 = 8`` entry references -- the (n+1)(m+1)-1 amplification of nested
    paging -- walked "in hardware": no exits.
    """

    def __init__(self, physmem: PhysicalMemory, root_pa: int, ad: bool):
        self.physmem = physmem
        self.root_pa = root_pa
        self.ad = ad
        self.walks = 0  # two entry references each
        self.faults = 0

    def walk(self, gpa: int, access: AccessType) -> int:
        """The host address of ``gpa``, read and written the way
        :meth:`PageTableWalker.walk` does; under ``ad``, ACCESSED set at
        both levels and DIRTY at the leaf of a write."""
        self.walks += 1
        pm = self.physmem
        buf = pm._data
        size = pm.size
        pde_pa = self.root_pa + ((gpa >> 20) & 0xFFC)
        if pde_pa + 4 > size:
            pm.read_u32(pde_pa)  # out of RAM: raise the canonical error
        pde = _U32.unpack_from(buf, pde_pa)[0]
        if not pde & PTE_PRESENT:
            self.faults += 1
            raise GStageFault(gpa, access, present=False)
        pte_pa = (pde & _FRAME_MASK) + ((gpa >> 10) & 0xFFC)
        if pte_pa + 4 > size:
            pm.read_u32(pte_pa)
        pte = _U32.unpack_from(buf, pte_pa)[0]
        if not pte & PTE_PRESENT:
            self.faults += 1
            raise GStageFault(gpa, access, present=False)
        if access is _WRITE and not pde & pte & PTE_WRITABLE:
            self.faults += 1
            raise GStageFault(gpa, access, present=True)
        if self.ad:
            new_pde = pde | PTE_ACCESSED
            if new_pde != pde:
                pm.write_u32(pde_pa, new_pde)
            new_pte = pte | PTE_ACCESSED
            if access is _WRITE:
                new_pte |= PTE_DIRTY
            if new_pte != pte:
                pm.write_u32(pte_pa, new_pte)
                pte = new_pte
        return (pte & _FRAME_MASK) | (gpa & 0xFFF)


def _store_leaves(pm: PhysicalMemory, pa: int, leaves: List[int]) -> None:
    """Write adjacent leaf words from ``pa`` on, in one store."""
    if len(leaves) == 1:
        pm.write_u32(pa, leaves[0])
    else:
        pm.write_bytes(pa, struct.pack(f"<{len(leaves)}I", *leaves))


class AddressSpace:
    """Owns one page-table tree and provides map/unmap.

    Used by the guest kernel builder (to construct guest page tables in
    guest-physical memory) and by the VMM (to construct shadow and nested
    tables in host-physical memory). Page-table pages are allocated from
    the supplied :class:`FrameAllocator` and returned on teardown.
    """

    def __init__(self, physmem: PhysicalMemory, allocator: FrameAllocator):
        self.physmem = physmem
        self.allocator = allocator
        self.root_pfn = allocator.alloc(zero=True)
        self._table_frames = [self.root_pfn]
        self.mapped_pages = 0
        #: Table bytes as of :meth:`checkpoint`, one per table frame;
        #: None once map / unmap / rewrite_leaves / clear_pde edits the tree.
        self._checkpoint: Optional[List[bytes]] = None

    @property
    def root_pa(self) -> int:
        return self.root_pfn << PAGE_SHIFT

    def rewrite_leaves(self, keep: int, puts: Dict[int, int]) -> Dict[int, int]:
        """Store ``(leaf & keep) | puts[vpn]`` into the leaf of each page
        number ``vpn`` in ``puts``.

        The one edit under :meth:`map`, :meth:`unmap` and the MMUs' host
        memory control. The page numbers go in order, so each leaf
        table's directory entry is read once, and each run of adjacent
        leaves that change is stored in one write. An absent leaf reads
        as 0 and one absent before and after is not written; a table a
        present leaf needs is allocated. Returns ``{vpn: leaf}`` of the
        edited leaves that were present, as they were: a ``keep`` of -1
        and puts of 0 only read them.
        """
        pm = self.physmem
        data = pm._data
        olds = {}
        dir_idx = None
        bulk = len(puts) > 1
        run_pa, run = 0, ()
        for vpn in sorted(puts) if bulk else puts:
            put = puts[vpn]
            if vpn >> 10 != dir_idx:
                dir_idx = vpn >> 10
                pde_pa = (self.root_pfn << PAGE_SHIFT) + 4 * dir_idx
                pde = _U32.unpack_from(data, pde_pa)[0]
            if not pde & PTE_PRESENT:
                if not put & PTE_PRESENT:
                    continue
                table_pfn = self.allocator.alloc(zero=True)
                self._table_frames.append(table_pfn)
                # Directory entries carry the union of permissions; leaf
                # PTEs then restrict. Granting W|U matches common kernels.
                pde = make_pte(table_pfn, PTE_PRESENT | PTE_WRITABLE | PTE_USER)
                pm.write_u32(pde_pa, pde)
            pte_pa = (pde & _FRAME_MASK) + 4 * (vpn & 0x3FF)
            old = _U32.unpack_from(data, pte_pa)[0]
            if old & PTE_PRESENT:
                olds[vpn] = old
            else:
                old = 0
            new = (old & keep) | put
            if not new & PTE_PRESENT:
                new = 0
            if new != old:
                self._checkpoint = None
                self.mapped_pages += (new & PTE_PRESENT) - (old & PTE_PRESENT)
                if not bulk:
                    pm.write_u32(pte_pa, new)
                elif run and pte_pa == run_pa + 4 * len(run):
                    run.append(new)
                else:
                    if run:
                        _store_leaves(pm, run_pa, run)
                    run_pa, run = pte_pa, [new]
        if run:
            _store_leaves(pm, run_pa, run)
        return olds

    def map(self, va: int, pa: int, flags: int) -> None:
        """Install a 4 KiB mapping; allocates an inner table if needed."""
        if pa & _FLAGS_MASK:
            raise MemoryError_(f"physical address {pa:#x} not page-aligned")
        if va & _FLAGS_MASK:
            raise MemoryError_(f"virtual address {va:#x} not page-aligned")
        self.rewrite_leaves(0, {va >> PAGE_SHIFT: make_pte(pa >> PAGE_SHIFT,
                                                            flags | PTE_PRESENT)})

    def unmap(self, va: int) -> None:
        """Remove a mapping (leaves inner tables in place)."""
        self.rewrite_leaves(0, {va >> PAGE_SHIFT: 0})

    def clear_pde(self, dir_idx: int) -> None:
        """Drop one directory entry and its whole 4 MiB leaf table.

        Used by shadow paging to invalidate a subtree after the guest
        rewrites a page-directory entry.
        """
        if not 0 <= dir_idx < ENTRIES_PER_TABLE:
            raise MemoryError_(f"directory index {dir_idx} out of range")
        pde_pa = self.root_pa + dir_idx * 4
        pde = self.physmem.read_u32(pde_pa)
        if not pde & PTE_PRESENT:
            return
        self._checkpoint = None
        table_pfn = pte_frame(pde)
        table_pa = table_pfn << PAGE_SHIFT
        for tbl_idx in range(ENTRIES_PER_TABLE):
            if self.physmem.read_u32(table_pa + tbl_idx * 4) & PTE_PRESENT:
                self.mapped_pages -= 1
        self.physmem.write_u32(pde_pa, 0)
        if table_pfn in self._table_frames:
            self._table_frames.remove(table_pfn)
            self.allocator.free(table_pfn)

    def checkpoint(self) -> None:
        """Remember the tables' bytes as they are now (:meth:`rollback`)."""
        self._checkpoint = [self.physmem.read_frame(pfn)
                            for pfn in self._table_frames]

    def rollback(self) -> bool:
        """Rewrite the tables to their checkpointed bytes.

        Undoes what a hardware walker wrote into them (accessed / dirty
        bits), which is all that can differ: any edit made through this
        object since the checkpoint discarded it, and then nothing is
        written and the answer is False -- those edits are the owner's
        intent, not to be undone behind its back.
        """
        if self._checkpoint is None:
            return False
        for pfn, data in zip(self._table_frames, self._checkpoint):
            self.physmem.write_frame(pfn, data)
        return True

    def destroy(self) -> None:
        """Free every page-table page this space allocated."""
        for pfn in self._table_frames:
            self.allocator.free(pfn)
        self._table_frames = []
        self.mapped_pages = 0
        self._checkpoint = None
