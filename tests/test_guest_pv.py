"""Paravirtualization specifics: hypercalls, shared info, MMU batching."""

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import shared_info_gfn
from repro.guest import (
    KernelOptions,
    boot_vm,
    build_kernel,
    workloads,
)
from repro.util.units import MIB
from tests.conftest import map_batch

GUEST_MEM = 16 * MIB


def boot_pv(workload, timer_period=0, max_instructions=12_000_000):
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = hv.create_vm(GuestConfig(name="pv", memory_bytes=GUEST_MEM,
                                  virt_mode=VirtMode.PARAVIRT,
                                  mmu_mode=MMUVirtMode.SHADOW))
    kernel = build_kernel(KernelOptions(pv=True, memory_bytes=GUEST_MEM,
                                        timer_period=timer_period))
    diag = boot_vm(hv, vm, kernel, workload, max_instructions)
    return hv, vm, diag


def boot_hvm(workload, virt_mode=VirtMode.HW_ASSIST,
             mmu_mode=MMUVirtMode.SHADOW, max_instructions=12_000_000):
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = hv.create_vm(GuestConfig(name="hvm", memory_bytes=GUEST_MEM,
                                  virt_mode=virt_mode, mmu_mode=mmu_mode))
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM))
    diag = boot_vm(hv, vm, kernel, workload, max_instructions)
    return hv, vm, diag


def test_pv_guest_boots_via_hypercalls():
    hv, vm, diag = boot_pv(workloads.hello())
    assert diag.clean and diag.user_result == 42
    breakdown = vm.exit_stats.counts
    assert breakdown.get("vmcall:set_vbar") == 1
    assert breakdown.get("vmcall:set_ptbr") == 1
    assert any(key.startswith("vmcall:iret") for key in breakdown)


def test_pv_has_no_pt_write_traps():
    # PV's contract: PT updates are hypercall batches, never traps.
    hv, vm, diag = boot_pv(workloads.pt_stress(50))
    assert diag.user_result == 50
    assert vm.stats.shadow_pt_writes == 0
    assert vm.exit_stats.counts.get("vmcall:mmu_batch", 0) >= 100


def test_pv_batching_amortizes_map_exits():
    # Mapping 32 pages one-per-call vs 8-per-batch: the batched path
    # takes roughly 1/8th the MMU hypercalls.
    _, single, _ = boot_pv(map_batch(batches=32, batch_size=1))
    _, batched, _ = boot_pv(map_batch(batches=4, batch_size=8))
    one = single.exit_stats.counts.get("vmcall:mmu_batch", 0)
    eight = batched.exit_stats.counts.get("vmcall:mmu_batch", 0)
    assert one >= 32
    assert eight <= one // 4


def test_pv_shared_info_page_carries_trap_state():
    hv, vm, diag = boot_pv(workloads.syscall_storm(20))
    assert diag.user_result == 20
    shared_gpa = shared_info_gfn(vm) << 12
    # After the final (exit) syscall was reflected, the shared page
    # holds the trap block the guest reads with plain loads.
    assert vm.guest_mem.read_u32(shared_gpa + 4) == 1  # SYSCALL cause

    # Syscall handling must NOT involve per-CSR emulation exits: the PV
    # kernel reads cause/value from the shared page.
    te_hv, te_vm, _ = boot_hvm(workloads.syscall_storm(20),
                               virt_mode=VirtMode.TRAP_EMULATE)
    pv_exits = vm.exit_stats.total_exits
    te_exits = te_vm.exit_stats.total_exits
    assert pv_exits < te_exits / 1.5


def test_pv_timer_ticks():
    hv, vm, diag = boot_pv(workloads.idle_ticks(), timer_period=150_000,
                           max_instructions=30_000_000)
    assert diag.ticks >= 2


def test_pv_correctness_on_memtouch():
    from repro.guest.workloads import expected_memtouch

    _, _, diag = boot_pv(workloads.memtouch(24, 4))
    assert diag.user_result == expected_memtouch(24, 4)
    assert diag.demand_faults == 24


def test_pv_probes_marked_not_applicable():
    _, _, diag = boot_pv(workloads.hello())
    assert diag.mode_ok == 2 and diag.ie_ok == 2
