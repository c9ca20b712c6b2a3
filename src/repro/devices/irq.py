"""Interrupt controller (a minimal PIC).

Devices raise numbered lines; the controller coalesces them into the
CPU's two architectural interrupt causes (line 0 is the timer, all
others are "device") and exposes a status port so the kernel's
interrupt handler can find out *which* device interrupted.

The ``sink`` is whoever receives the coalesced interrupt: natively the
CPU core (via ``assert_irq``), inside a VM the VMM's virtual-interrupt
queue. It must provide ``assert_irq(cause)``.

Two fault sites interpose on ``raise_line`` when an ``injector`` is
bound (both registered in :mod:`repro.faults.injector`):

* ``irq.lost`` -- the raise is dropped on the floor: no pending bit, no
  sink assertion (a wire glitch);
* ``irq.spurious`` -- the sink additionally sees a device-cause
  assertion with **no** pending line behind it, so the guest's handler
  reads an empty status mask (the classic spurious interrupt).

Per-line ``dev.irq`` observability counters (``delivered.line<n>``,
``coalesced.line<n>``, ``lost.line<n>``, ``spurious``) feed the
stuck-line/storm watchdog in :mod:`repro.faults.watchdog`.
"""

from typing import List, Optional

from repro.cpu.isa import Cause
from repro.devices.bus import PortDevice
from repro.obs.registry import MetricsRegistry
from repro.util.errors import DeviceError

#: Port: read = bitmask of pending lines; write = acknowledge (clear) mask.
PIC_BASE = 0x20
PIC_STATUS = PIC_BASE

NUM_LINES = 16

#: Well-known line assignments.
IRQ_TIMER_LINE = 0
IRQ_BLOCK_LINE = 1
IRQ_NET_LINE = 2
IRQ_VIRTIO_BLK_LINE = 3
IRQ_VIRTIO_NET_LINE = 4
IRQ_CONSOLE_LINE = 5


class IRQLine:
    """Handle a device uses to raise its interrupt line."""

    def __init__(self, controller: "InterruptController", line: int):
        self.controller = controller
        self.line = line

    def raise_(self) -> None:
        self.controller.raise_line(self.line)


class InterruptController(PortDevice):
    """16-line level-ish interrupt controller."""

    STATE = ("pending",)

    def __init__(self, sink=None, injector=None, metrics=None):
        self.sink = sink
        self.injector = injector
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry().scope("dev.irq"))
        self.pending: List[bool] = [False] * NUM_LINES
        self.raised_count = 0
        #: Per-line raise tallies (the storm watchdog's rate source).
        self.raise_counts: List[int] = [0] * NUM_LINES
        self.lost_count = 0
        self.coalesced_count = 0
        self.spurious_count = 0

    def line(self, number: int) -> IRQLine:
        if not 0 <= number < NUM_LINES:
            raise DeviceError(f"no IRQ line {number}")
        return IRQLine(self, number)

    def raise_line(self, number: int) -> None:
        if not 0 <= number < NUM_LINES:
            raise DeviceError(f"no IRQ line {number}")
        injector = self.injector
        if injector is not None and injector.fires("irq.lost"):
            self.lost_count += 1
            self.metrics.counter(f"lost.line{number}").inc()
            return
        if self.pending[number]:
            # Level-ish coalescing: the line is already pending; the
            # handler will service both raises with one status read.
            self.coalesced_count += 1
            self.metrics.counter(f"coalesced.line{number}").inc()
        self.pending[number] = True
        self.raised_count += 1
        self.raise_counts[number] += 1
        self.metrics.counter(f"delivered.line{number}").inc()
        if self.sink is not None:
            cause = Cause.IRQ_TIMER if number == IRQ_TIMER_LINE else Cause.IRQ_DEVICE
            self.sink.assert_irq(cause)
        if injector is not None and injector.fires("irq.spurious"):
            # A cause assertion with no pending line behind it: the
            # handler's status read comes back with this bit clear.
            self.spurious_count += 1
            self.metrics.counter("spurious").inc()
            if self.sink is not None:
                self.sink.assert_irq(Cause.IRQ_DEVICE)

    def pending_mask(self) -> int:
        mask = 0
        for i, p in enumerate(self.pending):
            if p:
                mask |= 1 << i
        return mask

    def highest_pending(self) -> Optional[int]:
        for i, p in enumerate(self.pending):
            if p:
                return i
        return None

    # -- port interface (read status, write-1-to-acknowledge) ----------------

    def port_read(self, port: int) -> int:
        if port != PIC_STATUS:
            raise DeviceError(f"PIC has no port {port:#x}")
        return self.pending_mask()

    def port_write(self, port: int, value: int) -> None:
        if port != PIC_STATUS:
            raise DeviceError(f"PIC has no port {port:#x}")
        for i in range(NUM_LINES):
            if value & (1 << i):
                self.pending[i] = False
