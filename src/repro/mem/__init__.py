"""Memory subsystem: physical frames, page tables, TLB, cost model.

Layout of the 32-bit virtual address space (4 KiB pages, 2-level tables,
exactly the classic x86 non-PAE split):

* bits 31..22 -- page-directory index (1024 entries)
* bits 21..12 -- page-table index (1024 entries)
* bits 11..0  -- page offset

Page-table entries (PTEs) and page-directory entries (PDEs) share one
32-bit format: frame number in bits 31..12, flag bits below (present,
writable, user, accessed, dirty, no-execute).
"""

from repro.mem.costs import CostModel
from repro.mem.physmem import PhysicalMemory, FrameAllocator
from repro.mem.paging import (
    PTE_PRESENT,
    PTE_WRITABLE,
    PTE_USER,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_NOEXEC,
    make_pte,
    pte_frame,
    AccessType,
    PageFault,
    PageTableWalker,
    AddressSpace,
)
from repro.mem.tlb import TLB, TLBStats

__all__ = [
    "CostModel",
    "PhysicalMemory",
    "FrameAllocator",
    "PTE_PRESENT",
    "PTE_WRITABLE",
    "PTE_USER",
    "PTE_ACCESSED",
    "PTE_DIRTY",
    "PTE_NOEXEC",
    "make_pte",
    "pte_frame",
    "AccessType",
    "PageFault",
    "PageTableWalker",
    "AddressSpace",
    "TLB",
    "TLBStats",
]
