"""Functional post-copy migration."""

import pytest

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.devices.console import CONS_STATUS, CONS_TX
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.mem.physmem import ZERO_PAGE
from repro.migration import LiveMigrator, PostCopyMigrator
from repro.util.errors import MigrationError
from repro.util.units import MIB

GUEST_MEM = 16 * MIB
PAGES, PASSES = 28, 2500


def start_guest(mmu_mode=MMUVirtMode.NESTED):
    src = Hypervisor(memory_bytes=64 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    vm = src.create_vm(GuestConfig(name="pc", memory_bytes=GUEST_MEM,
                                   virt_mode=VirtMode.HW_ASSIST,
                                   mmu_mode=mmu_mode))
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM))
    src.load_program(vm, kernel)
    src.load_program(vm, workloads.memtouch(PAGES, PASSES))
    src.reset_vcpu(vm, kernel.entry)
    src.run(vm, max_guest_instructions=100_000)
    return src, dst, vm


def test_guest_resumes_remotely_and_finishes_correctly():
    src, dst, vm = start_guest()
    migrator = PostCopyMigrator(src, dst, bytes_per_cycle=4.0)
    result = migrator.migrate_and_run(vm)
    diag = read_diag(result.dest_vm.guest_mem)
    assert result.outcome is RunOutcome.SHUTDOWN
    assert diag.user_result == expected_memtouch(PAGES, PASSES)
    assert diag.fault_cause == 0


def test_unread_console_input_survives_postcopy():
    src, dst, vm = start_guest()
    vm.devices["console"].push_input(0x41)
    migrator = PostCopyMigrator(src, dst, bytes_per_cycle=4.0)
    result = migrator.migrate_and_run(vm)
    console = result.dest_vm.devices["console"]
    assert result.outcome is RunOutcome.SHUTDOWN
    assert console.port_read(CONS_STATUS) & 2
    assert console.port_read(CONS_TX) == 0x41


def test_every_page_arrives_exactly_once():
    src, dst, vm = start_guest()
    migrator = PostCopyMigrator(src, dst, bytes_per_cycle=4.0)
    result = migrator.migrate_and_run(vm)
    assert result.remote_faults + result.pushed_pages == result.total_pages
    assert result.dest_vm.guest_mem.map.keys() == vm.guest_mem.map.keys()


def test_downtime_is_tiny_compared_to_precopy():
    src, dst, vm = start_guest()
    post = PostCopyMigrator(src, dst, bytes_per_cycle=4.0).migrate_and_run(vm)

    src2, dst2, vm2 = start_guest()
    pre = LiveMigrator(src2, dst2, bytes_per_cycle=4.0).migrate(
        vm2, quantum_instructions=30_000
    )
    # Post-copy downtime is CPU-state only; pre-copy ships the residual
    # working set while paused.
    assert post.downtime_cycles < pre.downtime_cycles / 10


def test_demand_faults_hit_the_working_set_first():
    src, dst, vm = start_guest()
    migrator = PostCopyMigrator(src, dst, bytes_per_cycle=4.0)
    result = migrator.migrate_and_run(vm)
    # Only the touched working set (plus kernel pages) demand-faults;
    # the bulk arrives via background push.
    assert 0 < result.remote_faults < 150
    assert result.pushed_pages > result.remote_faults
    assert result.remote_faults / result.total_pages < 0.05


def test_memory_identity_after_migration(monkeypatch):
    from repro.migration import postcopy

    # One instruction on the destination: almost every page then
    # arrives by the push that finishes after the run, not by a fault.
    monkeypatch.setattr(postcopy, "MAX_GUEST_INSTRUCTIONS", 1)
    src, dst, vm = start_guest()
    marker_gpa = 0x9000 + 64
    vm.guest_mem.write_u32(marker_gpa, 0x5117_BEEF & 0xFFFFFFFF)
    migrator = PostCopyMigrator(src, dst, bytes_per_cycle=4.0)
    result = migrator.migrate_and_run(vm)
    assert result.pushed_pages > result.total_pages - 8
    # Even pages the guest never touched must be identical once the
    # background push completes.
    for gfn in vm.guest_mem.map:
        assert (result.dest_vm.guest_mem.read_gfn(gfn)
                == vm.guest_mem.read_gfn(gfn)), gfn


def test_a_recycled_frame_behind_a_zero_page_reads_zero(monkeypatch):
    from repro.migration import postcopy

    monkeypatch.setattr(postcopy, "MAX_GUEST_INSTRUCTIONS", 1)
    src, dst, vm = start_guest()
    # Leave the destination host a free list of frames holding data:
    # the pages fetched next get them back, zeros and data alike.
    old = dst.create_vm(GuestConfig(name="old", memory_bytes=GUEST_MEM))
    for gfn in old.guest_mem.map:
        old.guest_mem.write_gfn(gfn, b"\xa5" * 4096)
    recycled = set(old.guest_mem.map.values())
    dst.destroy_vm(old)
    result = PostCopyMigrator(src, dst, bytes_per_cycle=4.0).migrate_and_run(vm)
    dest = result.dest_vm.guest_mem
    zero_on_recycled = [gfn for gfn, hfn in dest.map.items()
                        if hfn in recycled
                        and vm.guest_mem.read_gfn(gfn) == ZERO_PAGE]
    assert len(zero_on_recycled) > 1000
    for gfn in vm.guest_mem.map:
        assert dest.read_gfn(gfn) == vm.guest_mem.read_gfn(gfn), gfn


def test_requires_hw_assist():
    src = Hypervisor(memory_bytes=64 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    vm = src.create_vm(GuestConfig(name="te", memory_bytes=GUEST_MEM,
                                   virt_mode=VirtMode.TRAP_EMULATE,
                                   mmu_mode=MMUVirtMode.SHADOW))
    migrator = PostCopyMigrator(src, dst)
    with pytest.raises(MigrationError):
        migrator.migrate_and_run(vm)


def test_parameter_validation():
    src = Hypervisor(memory_bytes=64 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    with pytest.raises(MigrationError):
        PostCopyMigrator(src, dst, bytes_per_cycle=0)


def _ept_chain_names(hv):
    return [name for name, _ in hv._ept_fault_handlers]


class TestFaultHandlerLifecycle:
    def test_fetch_handler_retired_after_migration(self):
        src, dst, vm = start_guest()
        PostCopyMigrator(src, dst, bytes_per_cycle=4.0).migrate_and_run(vm)
        assert "postcopy_fetch" not in _ept_chain_names(dst)

    def test_fetch_handler_retired_when_run_raises(self):
        src, dst, vm = start_guest()
        migrator = PostCopyMigrator(src, dst, bytes_per_cycle=4.0)

        def dying_run(*args, **kwargs):
            raise MigrationError("destination host died mid-run")

        dst.run = dying_run
        with pytest.raises(MigrationError):
            migrator.migrate_and_run(vm)
        # The failed migration must not leak its fetch handler into the
        # destination's dispatch chain (it would shadow later owners).
        assert "postcopy_fetch" not in _ept_chain_names(dst)

    def test_two_sequential_migrations_share_a_destination(self):
        src, dst, vm = start_guest()
        first = PostCopyMigrator(src, dst, bytes_per_cycle=4.0)
        r1 = first.migrate_and_run(vm)
        assert r1.outcome is RunOutcome.SHUTDOWN

        src2 = Hypervisor(memory_bytes=64 * MIB)
        vm2 = src2.create_vm(GuestConfig(name="pc2", memory_bytes=GUEST_MEM,
                                         virt_mode=VirtMode.HW_ASSIST,
                                         mmu_mode=MMUVirtMode.NESTED))
        kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM))
        src2.load_program(vm2, kernel)
        src2.load_program(vm2, workloads.memtouch(PAGES, PASSES))
        src2.reset_vcpu(vm2, kernel.entry)
        src2.run(vm2, max_guest_instructions=100_000)
        r2 = PostCopyMigrator(src2, dst, bytes_per_cycle=4.0).migrate_and_run(vm2)
        assert r2.outcome is RunOutcome.SHUTDOWN
        diag = read_diag(r2.dest_vm.guest_mem)
        assert diag.user_result == expected_memtouch(PAGES, PASSES)


def test_budget_counts_actual_retired_instructions(monkeypatch):
    """A guest exiting early each entry must not burn whole quanta."""
    from repro.migration import postcopy

    monkeypatch.setattr(postcopy, "MAX_GUEST_INSTRUCTIONS", 10_000)
    src, dst, vm = start_guest()
    migrator = PostCopyMigrator(src, dst, bytes_per_cycle=4.0)
    real_run = dst.run
    retired = []

    def stingy_run(vm_, max_guest_instructions=None, **kwargs):
        # Each entry retires at most a fifth of the requested quantum.
        before = vm_.vcpus[0].cpu.instret
        outcome = real_run(
            vm_,
            max_guest_instructions=min(1000, max_guest_instructions or 1000),
            **kwargs,
        )
        retired.append(vm_.vcpus[0].cpu.instret - before)
        return outcome

    dst.run = stingy_run
    migrator.migrate_and_run(vm)
    # Charging full quanta regardless of retirement would stop the loop
    # after ~2 entries (~2k retired); accurate accounting keeps running
    # the guest until the budget is genuinely consumed.
    assert sum(retired) >= 9_000
