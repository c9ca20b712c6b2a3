"""Functional live migration of instruction-engine VMs.

This is real pre-copy over real state: dirty logging is the
hypervisor's write protection, which guest stores and VMM-mediated
writes (PT updates, hypercall batches, device DMA) both fault on,
rounds interleave with actual guest execution, and the destination VM
resumes from copied vCPU + device state. Transfer *timing* is modeled
(cycles per byte); transfer *content* is exact.

Failure handling: every page batch streams through a pending queue, so
an injected link drop (``migration.xfer_drop``) leaves exactly the
undelivered suffix queued. The migrator retries under a capped
exponential backoff (:class:`~repro.faults.recovery.RetryPolicy`) and
resumes from that suffix plus whatever the dirty bitmap has since
accumulated -- never from scratch. Pages corrupted on the wire
(``migration.page_corrupt``) are caught by a CRC check against the
source page and resent (an untouched copy is not checksummed). Only an
exhausted retry budget escalates to
:class:`~repro.util.errors.MigrationError`, chained (``raise ... from``)
to the final :class:`~repro.util.errors.LinkError`.
"""

import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Set

from repro.core.hypervisor import Hypervisor, RunOutcome
from repro.core.snapshot import apply_state, capture_state
from repro.core.vm import VirtualMachine
from repro.faults.recovery import RetryPolicy
from repro.mem.physmem import ZERO_PAGE
from repro.util.errors import LinkError, MemoryError_, MigrationError
from repro.util.units import PAGE_SIZE

#: Serialized vCPU + device state, charged to downtime.
CPU_STATE_BYTES = 4096


@dataclass
class LiveMigrationResult:
    """Outcome of one functional migration."""

    dest_vm: VirtualMachine
    rounds: int
    pages_copied: int
    final_round_pages: int
    downtime_cycles: int
    total_transfer_cycles: int
    guest_instructions_during: int
    round_sizes: List[int] = field(default_factory=list)
    source_outcome: Optional[RunOutcome] = None
    retries: int = 0
    backoff_cycles: int = 0
    corrupt_pages_detected: int = 0
    #: ``migrate.round_stall`` firings (source hiccups between rounds)
    #: and the cycles they burned.
    stalls: int = 0
    stall_cycles: int = 0


class LiveMigrator:
    """Pre-copy migrator between two hypervisors."""

    def __init__(
        self,
        source: Hypervisor,
        destination: Hypervisor,
        bytes_per_cycle: float = 1.0,
        injector=None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if bytes_per_cycle <= 0:
            raise MigrationError("bytes_per_cycle must be positive")
        self.source = source
        self.destination = destination
        self.bytes_per_cycle = bytes_per_cycle
        self.injector = injector
        self.retry_policy = retry_policy or RetryPolicy()
        #: ``migration.*`` in the source hypervisor's registry.
        self.metrics = source.registry.scope("migration")

    def migrate(
        self,
        vm: VirtualMachine,
        quantum_instructions: int = 20000,
        max_rounds: int = 12,
        threshold_pages: int = 8,
    ) -> LiveMigrationResult:
        """Migrate ``vm``; returns the (paused) destination VM.

        The source VM keeps executing between copy rounds, exactly as in
        real pre-copy; call ``destination.run(result.dest_vm)`` to
        continue the guest on the target host.
        """
        src = self.source
        vcpu = vm.vcpus[0]
        mmu = vcpu.cpu.mmu

        dst_vm = self.destination.create_vm(replace(
            vm.config, name=f"{vm.name}-dst", prealloc=True))

        dirty: Set[int] = set()
        #: Destination gfns written so far; the rest still read zero.
        written: Set[int] = set()
        vm.dirty_log = dirty

        def protect(gfns):
            mmu.write_protect_gfns([gfn for gfn in gfns
                                    if gfn in vm.guest_mem.map])
            mmu.flush()

        all_gfns = sorted(vm.guest_mem.map)
        protect(all_gfns)

        transfer_cycles = 0
        pages_copied = 0
        round_sizes: List[int] = []
        instructions_before = vcpu.cpu.instret
        source_outcome = None
        stats: Dict[str, int] = {
            "retries": 0, "backoff_cycles": 0, "corrupt_pages": 0,
            "stalls": 0, "stall_cycles": 0,
        }

        try:
            # Round 0: full copy while logging.
            sent = self._send_with_retry(vm, dst_vm, deque(all_gfns), stats,
                                         written)
            transfer_cycles += self._cycles(sent * PAGE_SIZE)
            pages_copied += sent
            round_sizes.append(sent)
            rounds = 1

            while rounds < max_rounds:
                dirty.clear()
                source_outcome = src.run(
                    vm, max_guest_instructions=quantum_instructions
                )
                if source_outcome in (RunOutcome.SHUTDOWN, RunOutcome.HALTED):
                    break  # guest finished/idle: nothing more will dirty
                if len(dirty) <= threshold_pages:
                    break
                if self.injector is not None and self.injector.fires(
                    "migrate.round_stall"
                ):
                    # Source hiccup: the round stalls for one backoff
                    # quantum; time burns, the guest keeps dirtying.
                    stall = self.retry_policy.backoff_cycles(1)
                    stats["stalls"] += 1
                    stats["stall_cycles"] += stall
                    transfer_cycles += stall
                batch = sorted(g for g in dirty if vm.guest_mem.is_mapped(g))
                sent = self._send_with_retry(vm, dst_vm, deque(batch), stats,
                                             written)
                transfer_cycles += self._cycles(sent * PAGE_SIZE)
                pages_copied += sent
                round_sizes.append(sent)
                protect(batch)
                rounds += 1

            # Stop-and-copy the residue plus machine state: the downtime.
            final_batch = sorted(g for g in dirty if vm.guest_mem.is_mapped(g))
            # What the host holds elsewhere (swap) comes in as it is read:
            # making room for one page may evict another, sent by then.
            absent = [g for g in range(vm.num_pages)
                      if not (vm.guest_mem.is_mapped(g)
                              or g in vm.ballooned_gfns)]
            pending = deque(final_batch + absent)
            try:
                sent = self._send_with_retry(vm, dst_vm, pending, stats,
                                             written)
            except MemoryError_ as err:
                raise MigrationError(
                    f"migration of {vm.name} abandoned: gfn {pending[0]} "
                    f"cannot be made resident to be sent") from err
            downtime = self._cycles(sent * PAGE_SIZE + CPU_STATE_BYTES)
            transfer_cycles += downtime
            pages_copied += sent
            round_sizes.append(sent)

            apply_state(dst_vm, capture_state(vm))
        finally:
            # Detach logging from the source -- on success (the source
            # is now dead) and on an abandoned migration alike, so the
            # still-running source never keeps logging.
            vm.dirty_log = None

        m = self.metrics
        m.counter("migrations").inc()
        m.counter("rounds").inc(rounds)
        m.counter("pages_copied").inc(pages_copied)
        m.counter("retries").inc(stats["retries"])
        m.counter("backoff_cycles").inc(stats["backoff_cycles"])
        m.counter("corrupt_pages").inc(stats["corrupt_pages"])
        if stats["stalls"]:
            m.counter("stalls").inc(stats["stalls"])
        m.observe("downtime_cycles", downtime)

        return LiveMigrationResult(
            dest_vm=dst_vm,
            rounds=rounds,
            pages_copied=pages_copied,
            final_round_pages=len(final_batch) + len(absent),
            downtime_cycles=downtime,
            total_transfer_cycles=transfer_cycles,
            guest_instructions_during=vcpu.cpu.instret - instructions_before,
            round_sizes=round_sizes,
            source_outcome=source_outcome,
            retries=stats["retries"],
            backoff_cycles=stats["backoff_cycles"],
            corrupt_pages_detected=stats["corrupt_pages"],
            stalls=stats["stalls"],
            stall_cycles=stats["stall_cycles"],
        )

    # -- internals ----------------------------------------------------------

    def _cycles(self, nbytes: int) -> int:
        return int(nbytes / self.bytes_per_cycle)

    def _send_with_retry(
        self,
        vm: VirtualMachine,
        dst_vm: VirtualMachine,
        pending: Deque[int],
        stats: Dict[str, int],
        written: Set[int],
    ) -> int:
        """Stream ``pending`` to the destination, retrying on link drops.

        ``pending`` is consumed in place, so each retry resumes from the
        undelivered suffix (plus corrupt-page resends) -- pages already
        on the destination are never re-sent. Returns the number of
        pages that crossed the wire (resends included). Raises
        :class:`MigrationError` chained to the last :class:`LinkError`
        once :class:`RetryPolicy.max_retries` is exhausted.
        """
        sent = attempt = 0
        while pending:
            if self.injector is not None and (
                self.injector.fires("migration.xfer_drop")
            ):
                drop = LinkError(f"migration stream for {vm.name} dropped "
                                 f"with {len(pending)} pages pending")
                attempt += 1
                if attempt > self.retry_policy.max_retries:
                    raise MigrationError(
                        f"migration of {vm.name} abandoned: transfer "
                        f"dropped {attempt} times with {len(pending)} "
                        f"pages still pending"
                    ) from drop
                stats["retries"] += 1
                stats["backoff_cycles"] += self.retry_policy.backoff_cycles(
                    attempt
                )
                continue
            gfn = pending[0]
            intact = self._send_page(vm, dst_vm, gfn, written)
            pending.popleft()
            sent += 1
            if not intact:
                # The per-page CRC caught wire corruption: queue a
                # resend. The corrupt copy never reaches guest-visible
                # state uncorrected.
                stats["corrupt_pages"] += 1
                pending.append(gfn)
        return sent

    def _send_page(
        self, vm: VirtualMachine, dst_vm: VirtualMachine, gfn: int,
        written: Set[int],
    ) -> bool:
        """Copy one page; returns False when it was corrupted in flight.
        Zeros are not stored over a gfn not yet ``written``: it reads zero."""
        data = vm.guest_mem.read_gfn(gfn)
        wire = data
        if self.injector is not None and (
            self.injector.fires("migration.page_corrupt")
        ):
            pos = int(
                self.injector.uniform("migration.page_corrupt") * len(data)
            ) % len(data)
            corrupted = bytearray(data)
            corrupted[pos] ^= 0xFF
            wire = bytes(corrupted)
        if gfn in written or wire != ZERO_PAGE:
            dst_vm.guest_mem.write_gfn(gfn, wire)
            written.add(gfn)
        return wire is data or zlib.crc32(wire) == zlib.crc32(data)
