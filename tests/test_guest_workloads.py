"""Workload programs: every syscall and driver path, with oracles."""

import pytest

from repro.core import GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode
from repro.guest import (
    KernelOptions,
    boot_native,
    boot_vm,
    build_kernel,
    workloads,
)
from repro.guest.workloads import expected_cpu_bound, expected_memtouch
from repro.util.units import MIB
from tests.conftest import inject_rx, map_batch, net_echo

GUEST_MEM = 16 * MIB


@pytest.fixture(scope="module")
def kernel():
    return build_kernel(KernelOptions(memory_bytes=GUEST_MEM))


def run_native(kernel, workload, max_instructions=8_000_000):
    machine = Machine(memory_bytes=GUEST_MEM)
    diag = boot_native(machine, kernel, workload, max_instructions)
    return machine, diag


def run_hv(kernel, workload, max_instructions=8_000_000):
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = hv.create_vm(GuestConfig(name="w", memory_bytes=GUEST_MEM,
                                  virt_mode=VirtMode.HW_ASSIST,
                                  mmu_mode=MMUVirtMode.NESTED))
    diag = boot_vm(hv, vm, kernel, workload, max_instructions)
    return vm, diag


class TestCpuBound:
    def test_checksum_matches_oracle(self, kernel):
        _, diag = run_native(kernel, workloads.cpu_bound(500))
        assert diag.user_result == expected_cpu_bound(500)

    def test_oracle_is_nontrivial(self):
        assert expected_cpu_bound(10) != expected_cpu_bound(11)


class TestMemtouch:
    def test_result_and_demand_faults(self, kernel):
        machine, diag = run_native(kernel, workloads.memtouch(20, 3))
        assert diag.user_result == expected_memtouch(20, 3)
        assert diag.demand_faults == 20  # one per page, first pass only

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            workloads.memtouch(pages=0)
        with pytest.raises(ValueError):
            workloads.memtouch(pages=5000)


class TestRandomWalk:
    def test_runs_and_touches_working_set(self, kernel):
        machine, diag = run_native(kernel, workloads.random_walk(16, 500))
        assert diag.fault_cause == 0
        assert diag.demand_faults == 16

    def test_pages_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            workloads.random_walk(pages=100)


class TestSyscalls:
    def test_storm_counts_syscalls(self, kernel):
        _, diag = run_native(kernel, workloads.syscall_storm(250))
        # 250 yields + 1 exit
        assert diag.syscalls == 251
        assert diag.user_result == 250


class TestPtStress:
    def test_map_unmap_cycles(self, kernel):
        _, diag = run_native(kernel, workloads.pt_stress(40))
        assert diag.user_result == 40
        # 40 maps + 40 unmaps + 1 exit = 81 syscalls
        assert diag.syscalls == 81


class TestMapBatch:
    def test_batches(self, kernel):
        _, diag = run_native(kernel, map_batch(8, 4))
        assert diag.user_result == 32
        assert diag.syscalls == 9

    def test_pool_limit_enforced(self):
        with pytest.raises(ValueError):
            map_batch(batches=200, batch_size=8)


class TestBlockIO:
    def test_emulated_writes_reach_disk(self, kernel):
        machine, diag = run_native(kernel, workloads.blk_write(8))
        assert diag.user_result == 8
        assert machine.block.writes == 8

    def test_emulated_read_roundtrip(self, kernel):
        machine, diag = run_native(kernel, workloads.blk_write(4))
        assert machine.block.writes == 4
        vm, diag = run_hv(kernel, workloads.blk_write(4))
        assert vm.devices["block"].writes == 4

    def test_virtio_batch_single_kick(self, kernel):
        machine, diag = run_native(kernel, workloads.vblk_write(3, 4))
        assert diag.user_result == 12
        assert machine.virtio_blk.writes == 12
        assert machine.virtio_blk.queue.kicks == 3

    def test_virtio_batch_size_limited_by_ring(self):
        with pytest.raises(ValueError):
            workloads.vblk_write(1, 8)  # 24 descriptors > 16


class TestNetIO:
    def test_emulated_send(self, kernel):
        machine, diag = run_native(kernel, workloads.net_send())
        assert machine.net.tx_frames == 64
        assert machine.net.tx_bytes == 64 * 64

    def test_virtio_send_batch(self, kernel):
        machine, diag = run_native(kernel, workloads.vnet_send(2))
        assert diag.user_result == 16
        assert machine.virtio_net.tx_frames == 16

    def test_net_echo_roundtrip_native(self, kernel):
        machine = Machine(memory_bytes=GUEST_MEM)
        frames = [b"ping-%d!" % i + bytes(8) for i in range(3)]
        for frame in frames:
            inject_rx(machine.net, frame)
        from repro.guest import boot_native
        diag = boot_native(machine, kernel, net_echo(3))
        assert diag.user_result == sum(len(f) for f in frames)
        assert machine.net.rx_frames == 3
        assert machine.net.tx_frames == 3
        assert list(machine.net.sent) == frames  # byte-exact echoes

    def test_net_echo_roundtrip_vm(self, kernel):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = hv.create_vm(GuestConfig(name="echo", memory_bytes=GUEST_MEM,
                                      virt_mode=VirtMode.HW_ASSIST,
                                      mmu_mode=MMUVirtMode.NESTED))
        nic = vm.devices["net"]
        inject_rx(nic, b"hello vm")
        from repro.guest import boot_vm
        diag = boot_vm(hv, vm, kernel, net_echo(1))
        assert diag.user_result == 8
        assert list(nic.sent) == [b"hello vm"]


class TestDeviceIRQs:
    def test_block_completion_interrupts_guest(self, kernel):
        _, diag = run_native(kernel, workloads.blk_write(5))
        assert diag.device_irqs >= 5


class TestProgramSizes:
    def test_workloads_fit_user_region(self):
        for builder in (
            workloads.hello, workloads.cpu_bound, workloads.memtouch,
            lambda: workloads.random_walk(16, 10),
            workloads.syscall_storm, workloads.pt_stress,
            map_batch, workloads.blk_write,
            workloads.vblk_write, workloads.net_send, workloads.vnet_send,
            workloads.idle_ticks,
        ):
            prog = builder()
            assert prog.base == 0x200000
            assert prog.size <= 0x10000
