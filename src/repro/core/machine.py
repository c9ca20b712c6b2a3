"""A bare-metal machine: the native baseline of experiment E1.

Identical hardware to what a VM sees -- same CPU, same device models on
the same ports -- but with no VMM anywhere: the kernel runs in real
kernel mode, page tables are walked directly, port I/O reaches devices
without exits. Comparing a workload here against the same workload in a
VM isolates the virtualization tax.
"""

import enum
from typing import Optional

from repro.cpu.interp import CPUCore
from repro.cpu.mmu import BareMMU
from repro.devices.block import BLOCK_BASE, BlockDevice, DiskImage
from repro.devices.bus import PortBus
from repro.devices.console import CONSOLE_BASE, ConsoleDevice
from repro.devices.irq import (
    IRQ_BLOCK_LINE,
    IRQ_NET_LINE,
    IRQ_TIMER_LINE,
    IRQ_VIRTIO_BLK_LINE,
    IRQ_VIRTIO_NET_LINE,
    InterruptController,
    PIC_BASE,
)
from repro.devices.net import NET_BASE, NetDevice
from repro.devices.power import POWER_BASE, PowerControl
from repro.devices.timer import TIMER_BASE, TimerDevice
from repro.devices.virtio import (
    VIRTIO_BLK_BASE,
    VIRTIO_NET_BASE,
    VirtioBlockDevice,
    VirtioNetDevice,
)
from repro.mem.costs import CostModel
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.units import MIB


class MachineOutcome(enum.Enum):
    HALTED = "halted"
    SHUTDOWN = "shutdown"
    INSTR_LIMIT = "instr_limit"


class Machine:
    """Physical machine: CPU + RAM + devices, no hypervisor."""

    PUMP_SLICE = 4000

    def __init__(
        self,
        memory_bytes: int = 16 * MIB,
        jit: Optional[bool] = None,
    ):
        self.costs = CostModel()
        self.physmem = PhysicalMemory(memory_bytes)
        self.allocator = FrameAllocator(self.physmem, reserved_frames=16)
        self.port_bus = PortBus()
        self.mmu = BareMMU(self.physmem, self.costs)
        self.cpu = CPUCore(self.mmu, port_bus=self.port_bus, jit=jit)

        self.pic = InterruptController(sink=self.cpu)
        self.port_bus.register(self.pic, PIC_BASE, 1)
        self.console = ConsoleDevice()
        self.port_bus.register(self.console, CONSOLE_BASE, 2)
        self.timer = TimerDevice(self.pic.line(IRQ_TIMER_LINE))
        self.port_bus.register(self.timer, TIMER_BASE, 3)
        self.power = PowerControl()
        self.port_bus.register(self.power, POWER_BASE, 1)
        self.block = BlockDevice(self.physmem, self.pic.line(IRQ_BLOCK_LINE), DiskImage())
        self.port_bus.register(self.block, BLOCK_BASE, 6)
        self.net = NetDevice(self.physmem, self.pic.line(IRQ_NET_LINE))
        self.port_bus.register(self.net, NET_BASE, 7)
        self.virtio_blk = VirtioBlockDevice(
            self.physmem, self.pic.line(IRQ_VIRTIO_BLK_LINE), DiskImage()
        )
        self.port_bus.register(self.virtio_blk, VIRTIO_BLK_BASE, 6)
        self.virtio_net = VirtioNetDevice(
            self.physmem, self.pic.line(IRQ_VIRTIO_NET_LINE)
        )
        self.port_bus.register(self.virtio_net, VIRTIO_NET_BASE, 14)

    def load_program(self, program) -> None:
        program.load(self.physmem)

    def run(self, max_instructions: Optional[int] = None) -> MachineOutcome:
        """Run until shutdown, true idle, or the instruction budget."""
        cpu = self.cpu
        start = cpu.instret
        while True:
            if self.power.shutdown_requested:
                return MachineOutcome.SHUTDOWN
            if max_instructions is not None and (
                cpu.instret - start >= max_instructions
            ):
                return MachineOutcome.INSTR_LIMIT
            self.timer.rebase_if_armed(cpu.cycles)
            self.timer.tick(cpu.cycles)
            if cpu.halted and not cpu.pending_irqs:
                deadline = self.timer.next_deadline()
                if deadline is None:
                    return MachineOutcome.HALTED
                cpu.cycles = max(cpu.cycles, deadline)
                self.timer.tick(cpu.cycles)
                continue
            slice_ = self.PUMP_SLICE
            if max_instructions is not None:
                slice_ = min(slice_, max_instructions - (cpu.instret - start))
            deadline = self.timer.next_deadline()
            if deadline is not None and deadline > cpu.cycles:
                cpu.run(max_instructions=slice_, max_cycles=deadline - cpu.cycles)
            else:
                cpu.run(max_instructions=slice_)
