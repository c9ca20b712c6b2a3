"""Working-set estimation by access-bit sampling.

The host periodically clears the ACCESSED bits in the guest's own page
tables (through guest-physical memory), lets the guest run, and counts
how many bits came back -- the classic sampling estimator VMware's
resource manager uses (statistically, over random samples; we scan
exhaustively since our guests are small).

Works against *real* guest page tables: the walker reads the guest page
directory named by the vCPU's (virtual) PTBR.
"""

from typing import Iterator, List, Set, Tuple

from repro.core.hypervisor import Hypervisor
from repro.core.vm import VirtualMachine
from repro.cpu.isa import CSR
from repro.mem.paging import (
    ENTRIES_PER_TABLE,
    PTE_ACCESSED,
    PTE_PRESENT,
    pte_frame,
)
from repro.util.errors import GuestError
from repro.util.units import PAGE_SHIFT


def _guest_root(vm: VirtualMachine) -> int:
    root = vm.vcpus[0].csr[CSR.PTBR]
    if root == 0:
        raise GuestError(f"VM {vm.name} has not enabled paging yet")
    return root & ~0xFFF


def _iter_leaf_ptes(vm: VirtualMachine) -> Iterator[Tuple[int, int, int]]:
    """Yield (va, pte_gpa, pte) for present leaf entries."""
    root = _guest_root(vm)
    mem = vm.guest_mem
    for dir_idx in range(ENTRIES_PER_TABLE):
        pde = mem.read_u32(root + dir_idx * 4)
        if not pde & PTE_PRESENT:
            continue
        table_gpa = pte_frame(pde) << PAGE_SHIFT
        for tbl_idx in range(ENTRIES_PER_TABLE):
            pte_gpa = table_gpa + tbl_idx * 4
            pte = mem.read_u32(pte_gpa)
            if pte & PTE_PRESENT:
                yield ((dir_idx << 22) | (tbl_idx << 12), pte_gpa, pte)


def clear_access_bits(vm: VirtualMachine) -> int:
    """Clear A bits in every present guest PTE; returns entries cleared.

    Flushes the vCPU's TLB so subsequent touches re-walk and set A
    again (hardware would need the same shootdown).
    """
    cleared = 0
    for _va, pte_gpa, pte in _iter_leaf_ptes(vm):
        if pte & PTE_ACCESSED:
            vm.guest_mem.write_u32(pte_gpa, pte & ~PTE_ACCESSED)
            cleared += 1
    vm.vcpus[0].cpu.mmu.flush()
    return cleared


def count_accessed(vm: VirtualMachine) -> int:
    """Count present guest PTEs with the A bit set."""
    return sum(
        1 for _va, _gpa, pte in _iter_leaf_ptes(vm) if pte & PTE_ACCESSED
    )


def accessed_gfns(vm: VirtualMachine) -> Set[int]:
    """Guest frames whose PTE has the A bit set since the last clear.

    The complement (mapped frames *not* here) is the cold set a
    pressure controller prefers as balloon / eviction victims.
    """
    return {
        pte_frame(pte)
        for _va, _gpa, pte in _iter_leaf_ptes(vm)
        if pte & PTE_ACCESSED
    }


def estimate_wss(
    hypervisor: Hypervisor,
    vm: VirtualMachine,
) -> List[int]:
    """Run three sampling intervals of 20,000 guest instructions each;
    returns pages touched in each.

    The max (or a high percentile) of the returned list is the
    working-set estimate the balloon policy consumes.
    """
    touched: List[int] = []
    for _ in range(3):
        clear_access_bits(vm)
        hypervisor.run(vm, max_guest_instructions=20_000)
        touched.append(count_accessed(vm))
    return touched
