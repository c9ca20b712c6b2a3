"""Functional live migration of real VMs."""

import pytest

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.core.vm import GuestMemory
from repro.cpu.assembler import Assembler
from repro.devices.console import CONS_STATUS, CONS_TX
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.mem.physmem import ZERO_PAGE
from repro.migration import LiveMigrator
from repro.overcommit.swap import HostSwap
from repro.util.errors import MemoryError_, MigrationError
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


@pytest.mark.parametrize("mmode", [MMUVirtMode.NESTED, MMUVirtMode.HMODE,
                                   MMUVirtMode.SHADOW])
def test_host_swapped_pages_reach_the_destination(mmode):
    # Pages the host swap holds are not in guest_mem.map: round 0 used
    # to skip them and the destination triple-faulted on its first
    # touch of one. Some come back mid-round (the guest touches them,
    # and their new backing has to be logged), the rest are still out
    # at stop-and-copy (and have to be brought in to be sent).
    src, dst, vm = start_guest(VirtMode.HW_ASSIST, mmode, warmup=12_000)
    swap = HostSwap(src)
    swap.install(vm)
    content = {g: vm.guest_mem.read_gfn(g) for g in sorted(vm.guest_mem.map)}
    victims = [g for g, page in content.items() if any(page)][:40]
    for gfn in victims:
        swap.swap_out(vm, gfn)
    cpu, swap_in, came_in_at = vm.vcpus[0].cpu, swap.swap_in, []
    swap.swap_in = lambda vm_, gfn: (came_in_at.append(cpu.instret),
                                     swap_in(vm_, gfn))
    result = LiveMigrator(src, dst, bytes_per_cycle=4.0).migrate(
        vm, quantum_instructions=3_000, max_rounds=4)
    assert result.round_sizes[0] == vm.num_pages - len(victims)
    while_running = [at for at in came_in_at if at < cpu.instret]
    assert 0 < len(while_running) < len(came_in_at) == len(victims)
    assert swap.swap_ins == swap.swap_outs  # nothing left swapped
    assert (result.dest_vm.guest_mem.read_bytes(0, vm.guest_mem.size)
            == vm.guest_mem.read_bytes(0, vm.guest_mem.size))
    outcome = dst.run(result.dest_vm, max_guest_instructions=60_000_000)
    diag = read_diag(result.dest_vm.guest_mem)
    assert outcome is RunOutcome.SHUTDOWN
    assert diag.user_result == expected_memtouch(PAGES, PASSES)
    assert diag.fault_cause == 0


def test_unbackable_page_abandons_the_migration():
    # A demand-paged guest on a host with no frame left: the pages it
    # never touched cannot be made resident, and the migration says so
    # instead of handing over a destination that differs.
    src = Hypervisor(memory_bytes=64 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    vm = src.create_vm(GuestConfig(
        name="m", memory_bytes=GUEST_MEM, virt_mode=VirtMode.HW_ASSIST,
        mmu_mode=MMUVirtMode.NESTED, prealloc=False))
    for gfn in range(8):
        vm.guest_mem.map_page(gfn, src.allocator.alloc())
    while src.allocator.free_frames:
        src.allocator.alloc()
    with pytest.raises(MigrationError) as info:
        LiveMigrator(src, dst, bytes_per_cycle=4.0).migrate(vm, max_rounds=1)
    assert isinstance(info.value.__cause__, MemoryError_)
    assert vm.dirty_log is None


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
    assert vm.dirty_log is None


def test_invalid_bandwidth_rejected():
    src = Hypervisor(memory_bytes=64 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    with pytest.raises(MigrationError):
        LiveMigrator(src, dst, bytes_per_cycle=0)


# -- one copy per page that holds data ----------------------------------------


@pytest.fixture
def page_writes(monkeypatch):
    """Every ``GuestMemory.write_gfn`` made: ``(memory, gfn, all zeros)``."""
    log = []
    write_gfn = GuestMemory.write_gfn

    def logged(mem, gfn, data):
        log.append((mem, gfn, data == ZERO_PAGE))
        write_gfn(mem, gfn, data)

    monkeypatch.setattr(GuestMemory, "write_gfn", logged)
    return log


def assert_moved(vm, result, page_writes):
    """The destination holds the source's bytes on every gfn, and a page
    of zeros was written only over a gfn written before."""
    dest = result.dest_vm.guest_mem
    for gfn in sorted(vm.guest_mem.map):
        assert dest.read_gfn(gfn) == vm.guest_mem.read_gfn(gfn), gfn
    seen = set()
    for mem, gfn, zero in page_writes:
        if mem is dest:
            assert not zero or gfn in seen, gfn
            seen.add(gfn)
    return [(gfn, zero) for mem, gfn, zero in page_writes if mem is dest]


def _injector(spec):
    return FaultInjector(FaultPlan(seed=3, specs=[spec]))


@pytest.mark.parametrize("mmode", [MMUVirtMode.NESTED, MMUVirtMode.SHADOW])
def test_a_zero_page_corrupted_on_the_wire_is_written_then_resent(
        mmode, page_writes):
    src, dst, vm = start_guest(VirtMode.HW_ASSIST, mmode)
    order = sorted(vm.guest_mem.map)
    zero_gfn = next(g for g in order[len(order) // 2:]
                    if vm.guest_mem.read_gfn(g) == ZERO_PAGE)
    spec = FaultSpec("migration.page_corrupt", rate=1.0,
                     after=order.index(zero_gfn), count=1)
    result = LiveMigrator(src, dst, bytes_per_cycle=4.0,
                          injector=_injector(spec)).migrate(
        vm, quantum_instructions=30_000, max_rounds=3)
    assert result.corrupt_pages_detected == 1
    writes = assert_moved(vm, result, page_writes)
    # The corrupt copy landed, then the resend put the zeros back.
    assert [w for w in writes if w[0] == zero_gfn] == [
        (zero_gfn, False), (zero_gfn, True)]


def test_a_page_the_guest_zeroes_after_round_0_is_zero_on_arrival(
        page_writes):
    src = Hypervisor(memory_bytes=64 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    vm = src.create_vm(GuestConfig(name="z", memory_bytes=1 * MIB))
    src.load_program(vm, Assembler().assemble("""
.org 0x1000
    li a0, 0x20000
    li a1, 0
    st [a0+0], a1
spin: jmp spin
"""))
    src.reset_vcpu(vm, 0x1000)
    vm.guest_mem.write_u32(0x20000, 0x11223344)  # round 0 sends this
    result = LiveMigrator(src, dst, bytes_per_cycle=4.0).migrate(
        vm, quantum_instructions=500, max_rounds=3)
    writes = assert_moved(vm, result, page_writes)
    assert [w for w in writes if w[0] == 0x20] == [(0x20, False), (0x20, True)]
    assert result.dest_vm.guest_mem.read_gfn(0x20) == ZERO_PAGE


@pytest.mark.parametrize("after", [0, 100, 4000])
def test_a_dropped_stream_resumes_to_identical_memory(after, page_writes):
    src, dst, vm = start_guest(VirtMode.HW_ASSIST, MMUVirtMode.NESTED)
    spec = FaultSpec("migration.xfer_drop", rate=1.0, after=after, count=2)
    result = LiveMigrator(src, dst, bytes_per_cycle=4.0,
                          injector=_injector(spec)).migrate(
        vm, quantum_instructions=30_000, max_rounds=3)
    assert result.retries == 2
    writes = assert_moved(vm, result, page_writes)
    # Round 0's pages of zeros were not written at all.
    assert len(writes) < result.pages_copied
