"""Functional live migration of real VMs."""

import pytest

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.devices.console import CONS_STATUS, CONS_TX
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.migration import LiveMigrator
from repro.util.errors import MigrationError
from repro.util.units import MIB

GUEST_MEM = 16 * MIB
PAGES, PASSES = 32, 2500


def start_guest(virt_mode, mmu_mode, warmup=100_000):
    src = Hypervisor(memory_bytes=64 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    vm = src.create_vm(GuestConfig(name="m", memory_bytes=GUEST_MEM,
                                   virt_mode=virt_mode, mmu_mode=mmu_mode))
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM))
    src.load_program(vm, kernel)
    src.load_program(vm, workloads.memtouch(PAGES, PASSES))
    src.reset_vcpu(vm, kernel.entry)
    src.run(vm, max_guest_instructions=warmup)
    return src, dst, vm


@pytest.mark.parametrize("vmode,mmode", [
    (VirtMode.HW_ASSIST, MMUVirtMode.NESTED),
    (VirtMode.HW_ASSIST, MMUVirtMode.SHADOW),
    (VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW),
    (VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW),
])
def test_migrated_guest_finishes_correctly(vmode, mmode):
    src, dst, vm = start_guest(vmode, mmode)
    migrator = LiveMigrator(src, dst, bytes_per_cycle=4.0)
    result = migrator.migrate(vm, quantum_instructions=30_000, max_rounds=5,
                              threshold_pages=4)
    outcome = dst.run(result.dest_vm, max_guest_instructions=60_000_000)
    diag = read_diag(result.dest_vm.guest_mem)
    assert outcome is RunOutcome.SHUTDOWN
    assert diag.user_result == expected_memtouch(PAGES, PASSES)
    assert diag.fault_cause == 0


@pytest.mark.parametrize("vmode,mmode", [
    (VirtMode.HW_ASSIST, MMUVirtMode.NESTED),
    (VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW),
])
def test_unread_console_input_survives_migration(vmode, mmode):
    # The RX byte's IRQ line was always copied (pic.pending); the byte
    # itself used to be dropped, so a guest handler running on the
    # destination would have read an empty status.
    src, dst, vm = start_guest(vmode, mmode)
    vm.devices["console"].push_input(0x41)
    migrator = LiveMigrator(src, dst, bytes_per_cycle=4.0)
    result = migrator.migrate(vm, quantum_instructions=30_000, max_rounds=3)
    console = result.dest_vm.devices["console"]
    assert result.dest_vm.pic.pending == vm.pic.pending
    assert console.port_read(CONS_STATUS) & 2
    assert console.port_read(CONS_TX) == 0x41
    assert console.chars_received == vm.devices["console"].chars_received + 1


def test_rounds_track_working_set():
    src, dst, vm = start_guest(VirtMode.HW_ASSIST, MMUVirtMode.NESTED)
    migrator = LiveMigrator(src, dst, bytes_per_cycle=4.0)
    result = migrator.migrate(vm, quantum_instructions=30_000, max_rounds=5,
                              threshold_pages=4)
    assert result.rounds == 5  # never converges below the working set
    assert result.round_sizes[0] == vm.num_pages
    # Steady-state rounds carry roughly the touched working set
    # (32 heap pages plus a few kernel/diag pages).
    for size in result.round_sizes[1:-1]:
        assert PAGES - 5 <= size <= PAGES + 16


def test_downtime_scales_with_final_round():
    src, dst, vm = start_guest(VirtMode.HW_ASSIST, MMUVirtMode.NESTED)
    migrator = LiveMigrator(src, dst, bytes_per_cycle=4.0)
    result = migrator.migrate(vm, quantum_instructions=30_000)
    expected = int(
        (result.final_round_pages * 4096 + 4096) / 4.0
    )
    assert result.downtime_cycles == expected


def test_console_and_disk_state_travel():
    src, dst, vm = start_guest(VirtMode.HW_ASSIST, MMUVirtMode.NESTED)
    vm.devices["virtio_blk"].data[0:4] = b"DATA"
    migrator = LiveMigrator(src, dst, bytes_per_cycle=4.0)
    result = migrator.migrate(vm)
    assert result.dest_vm.devices["console"].text == vm.devices["console"].text
    assert bytes(result.dest_vm.devices["virtio_blk"].data[0:4]) == b"DATA"


def test_guest_runs_during_migration():
    src, dst, vm = start_guest(VirtMode.HW_ASSIST, MMUVirtMode.NESTED)
    migrator = LiveMigrator(src, dst, bytes_per_cycle=4.0)
    result = migrator.migrate(vm, quantum_instructions=25_000, max_rounds=6)
    assert result.guest_instructions_during >= 25_000 * 4


def test_source_dirty_tracking_is_detached_after():
    src, dst, vm = start_guest(VirtMode.HW_ASSIST, MMUVirtMode.NESTED)
    migrator = LiveMigrator(src, dst, bytes_per_cycle=4.0)
    migrator.migrate(vm)
    assert vm.name not in src.dirty_handlers
    assert vm.guest_mem.write_hook is None


def test_invalid_bandwidth_rejected():
    src = Hypervisor(memory_bytes=64 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    with pytest.raises(MigrationError):
        LiveMigrator(src, dst, bytes_per_cycle=0)
