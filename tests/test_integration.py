"""Cross-subsystem integration: the mechanisms compose on real VMs.

These are the scenarios a real platform lives through: overcommitted
hosts running deduplicated, partially swapped guests that then get
live-migrated or snapshotted -- all while the guests keep computing
correct results.
"""

from repro.core import (
    GuestConfig,
    Hypervisor,
    MMUVirtMode,
    VirtMode,
    restore_vm,
    snapshot_vm,
)
from repro.core.hypervisor import RunOutcome
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.migration import LiveMigrator, PostCopyMigrator
from repro.overcommit import HostSwap, PageSharer
from repro.util.units import MIB
from tests.conftest import round_robin

GUEST_MEM = 16 * MIB
PAGES, PASSES = 20, 2500
EXPECTED = expected_memtouch(PAGES, PASSES)


def start(hv, name, warmup=100_000, mmu=MMUVirtMode.NESTED):
    vm = hv.create_vm(GuestConfig(name=name, memory_bytes=GUEST_MEM,
                                  virt_mode=VirtMode.HW_ASSIST,
                                  mmu_mode=mmu))
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM))
    hv.load_program(vm, kernel)
    hv.load_program(vm, workloads.memtouch(PAGES, PASSES))
    hv.reset_vcpu(vm, kernel.entry)
    hv.run(vm, max_guest_instructions=warmup)
    return vm


def finish_ok(hv, vm):
    outcome = hv.run(vm, max_guest_instructions=80_000_000)
    diag = read_diag(vm.guest_mem)
    assert outcome is RunOutcome.SHUTDOWN, (vm.name, outcome)
    assert diag.user_result == EXPECTED, (vm.name, diag.user_result)
    assert diag.fault_cause == 0


def test_sharing_plus_swap_on_the_same_guests():
    hv = Hypervisor(memory_bytes=96 * MIB)
    vms = [start(hv, f"g{i}") for i in range(2)]
    sharer = PageSharer(hv)
    scan = sharer.scan()
    assert scan.pages_merged > 1000
    swap = HostSwap(hv)
    for vm in vms:
        swap.install(vm)
    # Everything is shared right after the scan, so nothing is
    # evictable -- the swap layer must refuse rather than corrupt.
    assert swap.evict_some(50) == 0
    # Let the guests break some COWs, giving swap private pages to take.
    for vm in vms:
        hv.run(vm, max_guest_instructions=40_000)
    assert sharer.cow_breaks > 0
    evicted = swap.evict_some(20)
    assert evicted > 0
    for vm in vms:
        finish_ok(hv, vm)


def test_migrate_a_guest_with_shared_pages():
    src = Hypervisor(memory_bytes=96 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    a = start(src, "a")
    b = start(src, "b")
    PageSharer(src).scan()
    # Migrate one of the sharers away; the destination gets private
    # copies (page contents travel, sharing does not).
    result = LiveMigrator(src, dst, bytes_per_cycle=4.0).migrate(
        a, quantum_instructions=30_000
    )
    finish_ok(dst, result.dest_vm)
    finish_ok(src, b)


def test_snapshot_a_partially_swapped_guest_fails_loudly_or_works():
    # Snapshotting requires all pages resident; swap them back first.
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = start(hv, "s")
    swap = HostSwap(hv)
    swap.install(vm)
    swap.swap_out(vm, 2000)
    # swapped page is absent from the snapshot's mapped set
    snap = snapshot_vm(vm)
    assert 2000 not in snap.mapped_gfns
    swap.swap_in(vm, 2000)
    snap_full = snapshot_vm(vm)
    assert 2000 in snap_full.mapped_gfns
    clone = restore_vm(hv, snap_full, name="sc")
    finish_ok(hv, clone)
    finish_ok(hv, vm)


def test_snapshot_then_migrate_the_clone():
    hv1 = Hypervisor(memory_bytes=96 * MIB)
    hv2 = Hypervisor(memory_bytes=64 * MIB)
    vm = start(hv1, "orig")
    clone = restore_vm(hv1, snapshot_vm(vm), name="clone")
    result = LiveMigrator(hv1, hv2, bytes_per_cycle=4.0).migrate(
        clone, quantum_instructions=30_000
    )
    finish_ok(hv2, result.dest_vm)
    finish_ok(hv1, vm)


def test_postcopy_into_a_scheduled_host():
    # Destination host is already running another guest; the
    # post-copied arrival joins and both finish.
    src = Hypervisor(memory_bytes=64 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    resident = start(dst, "resident", warmup=50_000)
    traveler = start(src, "traveler")
    post = PostCopyMigrator(src, dst, bytes_per_cycle=4.0)
    result = post.migrate_and_run(traveler)
    assert result.outcome is RunOutcome.SHUTDOWN
    assert read_diag(result.dest_vm.guest_mem).user_result == EXPECTED
    finish_ok(dst, resident)


def test_scheduler_runs_shared_guests():
    hv = Hypervisor(memory_bytes=96 * MIB)
    vms = [start(hv, f"g{i}", warmup=60_000) for i in range(2)]
    PageSharer(hv).scan()
    outcomes, _dispatches, _finished = round_robin(hv, vms, 30_000)
    for vm in vms:
        assert outcomes[vm.name] is RunOutcome.SHUTDOWN
        assert read_diag(vm.guest_mem).user_result == EXPECTED
