"""A bare-metal machine: the native baseline of experiment E1, and the
fuzzer's native oracle (``fuzz.diff.run_bare``).

Identical hardware to what a VM sees -- same CPU, same device models on
the same ports, built by the one :func:`attach_board` -- but with no VMM
anywhere: the kernel runs in real kernel mode, page tables are walked
directly, port I/O reaches devices without exits. Comparing a workload
here against the same workload in a VM isolates the virtualization tax.
"""

import enum
from typing import Dict, Optional, Tuple

from repro.cpu.interp import CPUCore, StopReason
from repro.cpu.mmu import BareMMU
from repro.devices.block import BLOCK_BASE, BlockDevice, DiskImage
from repro.devices.bus import PortDevice
from repro.devices.console import CONSOLE_BASE, ConsoleDevice
from repro.devices.irq import (
    IRQ_BLOCK_LINE,
    IRQ_CONSOLE_LINE,
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
from repro.mem.physmem import PhysicalMemory, WriteLog
from repro.obs.registry import MetricsRegistry
from repro.util.units import MIB

#: Each device's ports: ``(base, count)``.
_PORTS = {
    "console": (CONSOLE_BASE, 2), "timer": (TIMER_BASE, 3),
    "power": (POWER_BASE, 1), "block": (BLOCK_BASE, 6),
    "net": (NET_BASE, 7), "virtio_blk": (VIRTIO_BLK_BASE, 6),
    "virtio_net": (VIRTIO_NET_BASE, 14),
}


def attach_board(cpu: CPUCore, mem, sink, metrics,
                 disks: Dict[str, DiskImage], emulated_io: bool,
                 virtio: bool) -> Tuple[InterruptController, Dict[str, PortDevice]]:
    """A machine's PIC (raising on ``sink``) and devices (DMA through
    ``mem``), registered on ``cpu``'s port bus: console, timer and power
    always, the emulated disk and NIC and the virtio pair when asked. The
    timer's deadline and a power-off stop ``cpu``. A disk named in
    ``disks`` gets that image. Returns ``(pic, {name: device})``."""
    bus = cpu.port_bus
    pic = InterruptController(sink=sink, metrics=metrics.scope("irq"))
    bus.register(pic, PIC_BASE, 1)
    devices = {
        "console": ConsoleDevice(irq=pic.line(IRQ_CONSOLE_LINE)),
        "timer": TimerDevice(pic.line(IRQ_TIMER_LINE),
                             metrics=metrics.scope("timer"), core=cpu),
        "power": PowerControl(cpu),
    }
    cpu.timer = devices["timer"]
    if emulated_io:
        devices["block"] = BlockDevice(mem, pic.line(IRQ_BLOCK_LINE),
                                       disks.get("block") or DiskImage(),
                                       metrics=metrics.scope("block"))
        devices["net"] = NetDevice(mem, pic.line(IRQ_NET_LINE),
                                   metrics=metrics.scope("net"))
    if virtio:
        devices["virtio_blk"] = VirtioBlockDevice(
            mem, pic.line(IRQ_VIRTIO_BLK_LINE),
            disks.get("virtio_blk") or DiskImage(),
            metrics=metrics.scope("virtio_blk"))
        devices["virtio_net"] = VirtioNetDevice(
            mem, pic.line(IRQ_VIRTIO_NET_LINE),
            metrics=metrics.scope("virtio_net"))
    for name, device in devices.items():
        bus.register(device, *_PORTS[name])
    return pic, devices


class MachineOutcome(enum.Enum):
    HALTED = "halted"
    SHUTDOWN = "shutdown"
    INSTR_LIMIT = "instr_limit"


class Machine:
    """Physical machine: CPU + RAM + every device, no hypervisor. Each
    device is an attribute too (``machine.console``)."""

    def __init__(
        self,
        memory_bytes: int = 16 * MIB,
        jit: Optional[bool] = None,
    ):
        self.costs = CostModel()
        self.physmem = PhysicalMemory(memory_bytes)
        #: The frames stored to since the last :meth:`recycle` (made by
        #: the first: a machine never recycled watches no store).
        self.write_log: Optional[WriteLog] = None
        self._build(jit, {})

    def _build(self, jit: Optional[bool], disks: Dict[str, DiskImage]) -> None:
        """Everything above RAM, new: MMU, core, bus, PIC and devices."""
        self.mmu = BareMMU(self.physmem, self.costs)
        self.cpu = CPUCore(self.mmu, jit=jit)
        self.port_bus = self.cpu.port_bus
        self.pic, self.devices = attach_board(
            self.cpu, self.physmem, self.cpu,
            MetricsRegistry().scope("dev"), disks, True, True)
        vars(self).update(self.devices)

    def recycle(self) -> "Machine":
        """This machine at power-on, as ``Hypervisor.recycle_vm`` makes a
        VM: the frames its write log saw written are zeroed (all, on the
        first recycle), each disk image is kept and zeroed where it was
        written, and the core and board are built anew."""
        self.physmem.unwatch_writes(self.cpu._on_code_write)
        if self.write_log is None:
            frames = range(self.physmem.num_frames)
            self.write_log = WriteLog(self.physmem, dict(zip(frames, frames)))
        self.write_log.zero_written()
        self._build(self.cpu.jit_enabled,
                    {name: self.devices[name].data.zero_written()
                     for name in ("block", "virtio_blk")})
        return self

    def load_program(self, program) -> None:
        program.load(self.physmem)

    def run(self, max_instructions: Optional[int] = None) -> MachineOutcome:
        """Run until power-off, a halt nothing can wake, or the
        instruction budget: one ``cpu.run``."""
        stop = None if self.power.shutdown_requested else self.cpu.run(max_instructions).stop
        if self.power.shutdown_requested:
            return MachineOutcome.SHUTDOWN
        return MachineOutcome.HALTED if stop is StopReason.HALT else MachineOutcome.INSTR_LIMIT
