"""NanoOS boot and correctness matrix across every execution mode."""

import pytest

from repro.core import GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode
from repro.guest import (
    KernelOptions,
    boot_native,
    boot_vm,
    build_kernel,
    workloads,
)
from repro.util.units import MIB

GUEST_MEM = 16 * MIB

VM_MODES = [
    ("te-shadow", VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW, False),
    ("bt-shadow", VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW, False),
    ("pv-shadow", VirtMode.PARAVIRT, MMUVirtMode.SHADOW, True),
    ("hw-shadow", VirtMode.HW_ASSIST, MMUVirtMode.SHADOW, False),
    ("hw-nested", VirtMode.HW_ASSIST, MMUVirtMode.NESTED, False),
]


def boot_in_mode(label, vmode, mmode, pv, workload, timer_period=0,
                 max_instructions=8_000_000):
    kernel = build_kernel(
        KernelOptions(pv=pv, memory_bytes=GUEST_MEM,
                      timer_period=timer_period)
    )
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = hv.create_vm(GuestConfig(name=label, memory_bytes=GUEST_MEM,
                                  virt_mode=vmode, mmu_mode=mmode))
    diag = boot_vm(hv, vm, kernel, workload, max_instructions)
    return hv, vm, diag


def test_native_boot_hello():
    machine = Machine(memory_bytes=GUEST_MEM)
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM))
    diag = boot_native(machine, kernel, workloads.hello())
    assert diag.clean
    assert diag.user_result == 42
    assert diag.mode_ok == 1 and diag.ie_ok == 1
    assert "hi" in machine.console.text


@pytest.mark.parametrize("label,vmode,mmode,pv", VM_MODES)
def test_vm_boot_hello(label, vmode, mmode, pv):
    _, vm, diag = boot_in_mode(label, vmode, mmode, pv, workloads.hello())
    assert diag.clean
    assert diag.user_result == 42
    assert "hi" in vm.devices["console"].text


def test_trap_and_emulate_detects_popek_goldberg_violation():
    _, _, diag = boot_in_mode("te", VirtMode.TRAP_EMULATE,
                              MMUVirtMode.SHADOW, False, workloads.hello())
    assert diag.mode_ok == 0 and diag.ie_ok == 0
    assert not diag.correct_virtualization


@pytest.mark.parametrize("label,vmode,mmode,pv", [m for m in VM_MODES
                                                  if m[1] is not VirtMode.TRAP_EMULATE])
def test_other_modes_are_correct(label, vmode, mmode, pv):
    _, _, diag = boot_in_mode(label, vmode, mmode, pv, workloads.hello())
    assert diag.correct_virtualization


def test_demand_paging_counts_heap_faults():
    _, _, diag = boot_in_mode("dp", VirtMode.HW_ASSIST, MMUVirtMode.NESTED,
                              False, workloads.memtouch(pages=12, passes=1))
    assert diag.demand_faults == 12


def test_timer_ticks_reach_guest():
    _, vm, diag = boot_in_mode(
        "ticks", VirtMode.HW_ASSIST, MMUVirtMode.NESTED, False,
        workloads.idle_ticks(), timer_period=100_000,
    )
    assert diag.ticks >= 3
    assert diag.user_result >= 3


def test_timer_ticks_under_trap_emulate():
    _, vm, diag = boot_in_mode(
        "ticks-te", VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW, False,
        workloads.idle_ticks(), timer_period=100_000,
        max_instructions=20_000_000,
    )
    assert diag.ticks >= 2


def test_exit_profile_differs_by_mode():
    results = {}
    for label, vmode, mmode, pv in VM_MODES:
        _, vm, _ = boot_in_mode(label, vmode, mmode, pv,
                                workloads.syscall_storm(100))
        results[label] = vm.exit_stats.total_exits
    # The canonical ordering: T&E is the chattiest, HW-assist quietest.
    assert results["te-shadow"] > results["pv-shadow"]
    assert results["pv-shadow"] > results["hw-shadow"]
    assert results["hw-shadow"] >= results["hw-nested"]


def test_kernel_requires_minimum_memory():
    with pytest.raises(ValueError):
        build_kernel(KernelOptions(memory_bytes=4 * MIB))
