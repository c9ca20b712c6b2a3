"""Shared fixtures: memory systems, machines, hypervisors, kernels.

Kernel images are pure functions of their options, so the two common
builds are assembled once per session.
"""

import struct

import pytest

from repro.core import GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.cpu.assembler import Assembler
from repro.devices.virtio import DESC_F_WRITE
from repro.guest import KernelOptions, build_kernel
from repro.guest.layout import GuestLayout
from repro.guest.workloads import _assemble
from repro.mem.costs import CostModel
from repro.mem.paging import PTE_PRESENT, pte_frame
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.obs.registry import MetricsRegistry
from repro.util.units import MIB

GUEST_MEM = 16 * MIB
HOST_MEM = 64 * MIB
_TABLE = struct.Struct("<1024I")


def dev_metrics():
    """A device's metrics scope, in a registry of its own."""
    return MetricsRegistry().scope("dev")


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


# -- what no entry point does: guests and host sides only tests run ---------


def map_batch(batches=32, batch_size=8):
    """A NanoOS program: map heap pages in batches (PV MMU_BATCH
    amortization); exits with the number of pages mapped."""
    total = batches * batch_size
    if total > 1024:
        raise ValueError("pool holds at most 1024 frames")
    return _assemble(f"""
    li   s0, {batches}
    li   s1, HEAP_BASE
loop:
    mov  a0, s1
    li   a1, {batch_size}
    syscall 6                 ; SYS_MAP_BATCH
    li   t0, {batch_size * 4096}
    add  s1, s1, t0
    sub  s0, s0, 1
    bnez s0, loop
    li   a0, {total}
    syscall 0
""")


def net_echo(frames=4):
    """A NanoOS program: poll SYS_NET_RECV for ``frames`` frames, send
    each back at its length, exit with the bytes received."""
    return _assemble(f"""
    li   s0, {frames}
    li   s1, 0                ; total bytes
recv_loop:
    syscall 12                ; SYS_NET_RECV -> a0 = length (0 = none)
    beqz a0, recv_loop
    add  s1, s1, a0
    syscall 9                 ; SYS_NET_SEND of a0 bytes from DMA_BUF
    sub  s0, s0, 1
    bnez s0, recv_loop
    mov  a0, s1
    syscall 0
""")


def port_storm(iterations):
    """A guest without NanoOS: a kernel-mode loop that writes the
    console port ``iterations`` times and powers off (code 1) -- one
    intercepted instruction in three, the exit path almost alone."""
    return Assembler().assemble(f"""
.org {GuestLayout.KERNEL_BASE:#x}
start:
    li   s0, {iterations}
loop:
    out  0x10, s0
    sub  s0, s0, 1
    bnez s0, loop
    li   t0, 1
    out  0xf0, t0            ; power off
""")


def inject_rx(nic, frame):
    """The host side of the emulated NIC: queue ``frame`` for the guest
    and raise the NIC's line."""
    nic._rx_queue.append(bytes(frame))
    nic.irq.raise_()


def inject_virtio_rx(dev, frame):
    """The host side of virtio-net: copy ``frame`` into the next posted
    rx buffer and raise the line; False when no buffer takes it."""
    queue = dev.rx.queue
    head = queue.pop_avail() if queue.configured else None
    if head is None:
        return False
    addr, length, flags = queue.collect_chain(head)[0]
    if not flags & DESC_F_WRITE or len(frame) > length:
        queue.push_used(head, 0)
        return False
    dev.mem.write_bytes(addr, frame)
    queue.push_used(head, len(frame))
    dev.irq.raise_()
    return True
