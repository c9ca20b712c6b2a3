"""Functional post-copy migration (Hines & Gopalan, VEE'09).

The destination VM is created with **no** backing frames
(``prealloc=False``): the vCPU and device state move immediately (the
only downtime), the guest resumes on the destination, and every first
touch of a page raises an EPT violation that the migrator services by
fetching the page from the source ("demand fetch"). A background
"pusher" proactively transfers the remaining pages between execution
quanta so the degradation window is bounded.

Requires nested paging on the destination (the EPT violation is the
fetch trigger); that matches reality — production post-copy (userfaultd
/ KVM) relies on second-level translation faults.
"""

from dataclasses import dataclass, replace
from typing import Set

from repro.core.hypervisor import Hypervisor, RunOutcome
from repro.core.modes import MMUVirtMode, VirtMode
from repro.core.snapshot import apply_state, capture_state
from repro.core.vm import VirtualMachine
from repro.mem.physmem import ZERO_PAGE
from repro.util.errors import MigrationError
from repro.util.units import PAGE_SIZE

from repro.migration.live import CPU_STATE_BYTES


@dataclass
class PostCopyResult:
    """Outcome of a functional post-copy migration."""

    dest_vm: VirtualMachine
    downtime_cycles: int
    remote_faults: int
    pushed_pages: int
    total_pages: int
    outcome: RunOutcome
    #: cycles of guest progress made while pages were still remote.
    degraded_cycles: int


#: A remote page fault's round trip to the source.
FETCH_LATENCY_CYCLES = 3000
#: The background push: pages per batch, between guest quanta of this
#: many instructions.
PUSH_BATCH_PAGES = 64
PUSH_QUANTUM_INSTRUCTIONS = 5000
#: The destination run's instruction budget.
MAX_GUEST_INSTRUCTIONS = 50_000_000


class PostCopyMigrator:
    """Move a VM by resuming first and fetching memory on demand."""

    def __init__(
        self,
        source: Hypervisor,
        destination: Hypervisor,
        bytes_per_cycle: float = 1.0,
    ):
        if bytes_per_cycle <= 0:
            raise MigrationError("bytes_per_cycle must be positive")
        self.source = source
        self.destination = destination
        self.bytes_per_cycle = bytes_per_cycle
        #: ``migration.*`` scope shared with pre-copy; post-copy specific
        #: counters live one level down under ``migration.postcopy.*``.
        self.metrics = source.registry.scope("migration")

    def migrate_and_run(self, vm: VirtualMachine) -> PostCopyResult:
        """Switch execution to the destination and run to completion.

        Unlike pre-copy, post-copy cannot hand back a paused VM and
        walk away -- the destination needs the migrator alive to
        service remote faults -- so this call owns the whole run.
        """
        if vm.config.virt_mode is not VirtMode.HW_ASSIST:
            raise MigrationError(
                "functional post-copy requires HW_ASSIST on the source "
                "(vCPU state must be architectural)"
            )
        src_mem = vm.guest_mem
        dst_vm = self.destination.create_vm(replace(
            vm.config, name=f"{vm.name}-dst",
            virt_mode=VirtMode.HW_ASSIST, mmu_mode=MMUVirtMode.NESTED,
            prealloc=False))

        remaining: Set[int] = set(src_mem.map)
        total_pages = len(remaining)
        stats = {"faults": 0, "pushed": 0}

        def fetch(gfn: int) -> None:
            """Copy one page from source into fresh destination backing
            (a page of zeros: a frame that reads zero, and no copy)."""
            page = src_mem.read_gfn(gfn)
            hfn = self.destination.allocator.alloc(zero=page == ZERO_PAGE)
            if page != ZERO_PAGE:
                self.destination.physmem.write_frame(hfn, page)
            dst_vm.guest_mem.map_page(gfn, hfn)
            remaining.discard(gfn)

        def on_ept_fault(fault_vm, gfn, _access) -> bool:
            if fault_vm is not dst_vm or gfn not in remaining:
                # Not ours (another VM, a ballooned page): decline and
                # let the rest of the chain -- host swap, demand zero
                # -- service it.
                return False
            fetch(gfn)
            stats["faults"] += 1
            # A remote fault stalls the vCPU for a network round trip.
            fault_vm.stats.vmm_cycles += (
                FETCH_LATENCY_CYCLES
                + int(PAGE_SIZE / self.bytes_per_cycle)
            )
            return True

        self.destination.register_ept_fault_handler(
            on_ept_fault, name="postcopy_fetch"
        )
        try:
            # Downtime: vCPU + device state only.
            apply_state(dst_vm, capture_state(vm))
            downtime = int(CPU_STATE_BYTES / self.bytes_per_cycle)
            dst_vm.stats.vmm_cycles += downtime

            # Interleave execution with background pushing until either
            # the guest finishes or every page has arrived.
            degraded_start = self._vm_cycles(dst_vm)
            dst_cpu = dst_vm.vcpus[0].cpu
            outcome = RunOutcome.INSTR_LIMIT
            executed = 0
            while executed < MAX_GUEST_INSTRUCTIONS:
                quantum = min(PUSH_QUANTUM_INSTRUCTIONS,
                              MAX_GUEST_INSTRUCTIONS - executed)
                retired_before = dst_cpu.instret
                outcome = self.destination.run(
                    dst_vm, max_guest_instructions=quantum
                )
                # Charge what actually retired; a guest halting
                # mid-quantum must not burn the whole slice of budget.
                executed += dst_cpu.instret - retired_before
                if outcome in (RunOutcome.SHUTDOWN, RunOutcome.HALTED,
                               RunOutcome.HUNG):
                    break
                if remaining:
                    batch = [remaining.pop() for _ in
                             range(min(PUSH_BATCH_PAGES, len(remaining)))]
                    for gfn in batch:
                        remaining.add(gfn)  # fetch() discards
                        fetch(gfn)
                        stats["pushed"] += 1
                    dst_vm.stats.vmm_cycles += int(
                        len(batch) * PAGE_SIZE / self.bytes_per_cycle
                    )
            degraded = self._vm_cycles(dst_vm) - degraded_start

            # Finish the background push if the guest ended early.
            while remaining:
                gfn = next(iter(remaining))
                fetch(gfn)
                stats["pushed"] += 1
        finally:
            # Always retire the fetch handler: a destination run that
            # raises (triple fault, MigrationError) must not leak a
            # chain entry bound to a dead migrator.
            self.destination.unregister_ept_fault_handler(on_ept_fault)
        m = self.metrics
        m.counter("migrations").inc()
        pc = m.scope("postcopy")
        pc.counter("remote_faults").inc(stats["faults"])
        pc.counter("pushed_pages").inc(stats["pushed"])
        pc.counter("pages_total").inc(total_pages)
        pc.observe("downtime_cycles", downtime)
        return PostCopyResult(
            dest_vm=dst_vm,
            downtime_cycles=downtime,
            remote_faults=stats["faults"],
            pushed_pages=stats["pushed"],
            total_pages=total_pages,
            outcome=outcome,
            degraded_cycles=degraded,
        )

    @staticmethod
    def _vm_cycles(vm: VirtualMachine) -> int:
        return vm.vcpus[0].cpu.cycles + vm.stats.vmm_cycles
