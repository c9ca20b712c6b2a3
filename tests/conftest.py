"""Shared fixtures: memory systems, machines, hypervisors, kernels.

Kernel images are pure functions of their options, so the two common
builds are assembled once per session.
"""

import struct

import pytest

from repro.core import GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.guest import KernelOptions, build_kernel
from repro.mem.costs import CostModel
from repro.mem.paging import PTE_PRESENT, pte_frame
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.units import MIB

GUEST_MEM = 16 * MIB
HOST_MEM = 64 * MIB
_TABLE = struct.Struct("<1024I")


def split_vaddr(va):
    """A 32-bit virtual address as (dir index, table index, offset)."""
    va &= 0xFFFFFFFF
    return (va >> 22) & 0x3FF, (va >> 12) & 0x3FF, va & 0xFFF


def lookup(space, va):
    """The present leaf PTE of ``va`` in an ``AddressSpace``, or None:
    the read half of its one edit, ``rewrite_leaf``, which keeps every
    bit and so writes nothing."""
    return space.rewrite_leaf(va, -1, 0) or None


def mappings(space):
    """[(va, pte)] of every present leaf of an ``AddressSpace``, read off
    its tables in physical memory."""
    pm, found = space.physmem, []
    for d, pde in enumerate(_TABLE.unpack(pm.read_frame(space.root_pfn))):
        if pde & PTE_PRESENT:
            for t, pte in enumerate(_TABLE.unpack(pm.read_frame(pte_frame(pde)))):
                if pte & PTE_PRESENT:
                    found.append(((d << 22) | (t << 12), pte))
    return found


@pytest.fixture
def physmem():
    return PhysicalMemory(1 * MIB)


@pytest.fixture
def allocator(physmem):
    return FrameAllocator(physmem, reserved_frames=4)


@pytest.fixture
def costs():
    return CostModel()


@pytest.fixture
def machine():
    return Machine(memory_bytes=GUEST_MEM)


@pytest.fixture
def hypervisor():
    return Hypervisor(memory_bytes=HOST_MEM)


@pytest.fixture(scope="session")
def hvm_kernel():
    return build_kernel(KernelOptions(memory_bytes=GUEST_MEM))


@pytest.fixture(scope="session")
def pv_kernel():
    return build_kernel(KernelOptions(pv=True, memory_bytes=GUEST_MEM))


@pytest.fixture(scope="session")
def hvm_kernel_timer():
    return build_kernel(
        KernelOptions(memory_bytes=GUEST_MEM, timer_period=150_000)
    )


def make_vm(hv, name="vm", virt_mode=VirtMode.HW_ASSIST,
            mmu_mode=MMUVirtMode.NESTED, **kwargs):
    return hv.create_vm(
        GuestConfig(name=name, memory_bytes=GUEST_MEM,
                    virt_mode=virt_mode, mmu_mode=mmu_mode, **kwargs)
    )


def round_robin(hv, vms, quantum, watchdogs=None):
    """Run ``vms`` one ``quantum`` of cycles each, in turn, until each
    ends with anything but ``CYCLE_LIMIT``: the budgeted, unwind-per-exit
    path of ``Hypervisor.run`` over interleaved VMs. Returns every VM's
    outcome and dispatch count by name, and the order they finished in."""
    outcomes, dispatches, finished = {}, {vm.name: 0 for vm in vms}, []
    live = list(vms)
    for _ in range(100_000):
        if not live:
            break
        for vm in list(live):
            watchdog = watchdogs[vm.name] if watchdogs else None
            outcome = hv.run(vm, max_cycles=quantum, watchdog=watchdog)
            dispatches[vm.name] += 1
            if outcome is not RunOutcome.CYCLE_LIMIT:
                outcomes[vm.name] = outcome
                finished.append(vm.name)
                live.remove(vm)
    return outcomes, dispatches, finished
