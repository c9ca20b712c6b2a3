"""Programmable interval timer.

Deadlines are expressed in the *cycles* of the core the timer is wired
to (the deterministic time base of the instruction-accurate engine),
and arming reads that counter at the arming write. The deadline is a
stop of the core's run loop (``CPUCore.fold_deadline``): at the first
retire edge at or past it the core calls :meth:`TimerDevice.tick`,
which raises IRQ line 0, on every engine alike.

Ports::

    TIMER_PERIOD (base+0): write period in cycles (0 disables);
                           read back current period
    TIMER_CTRL   (base+1): write 1 = one-shot, 2 = periodic;
                           read = 1 if armed
    TIMER_COUNT  (base+2): read number of expirations so far
"""

from repro.devices.bus import PortDevice
from repro.devices.irq import IRQLine
from repro.obs.registry import counter_attr
from repro.util.errors import DeviceError

TIMER_BASE = 0x40
TIMER_PERIOD = TIMER_BASE
TIMER_CTRL = TIMER_BASE + 1
TIMER_COUNT = TIMER_BASE + 2

MODE_OFF = 0
MODE_ONESHOT = 1
MODE_PERIODIC = 2


class TimerDevice(PortDevice):
    """Cycle-driven interval timer of ``core``."""

    #: ``deadline`` is absolute: the cycle counter it is measured
    #: against travels with the vCPU.
    STATE = ("period", "mode", "deadline", "expirations")

    expirations = counter_attr()

    def __init__(self, irq: IRQLine, metrics, core):
        self.irq = irq
        self.metrics = metrics
        self.core = core
        self.period = 0
        self.mode = MODE_OFF
        self.deadline = None  # absolute cycle count

    def program(self, period: int, periodic: bool, now_cycles: int) -> None:
        """Arm the timer ``period`` cycles from ``now_cycles``."""
        if period <= 0:
            raise DeviceError("timer armed with no period")
        self.period = period
        self.mode = MODE_PERIODIC if periodic else MODE_ONESHOT
        self.deadline = now_cycles + period
        self.core.fold_deadline()

    def disarm(self) -> None:
        self.mode = MODE_OFF
        self.deadline = None
        self.core.fold_deadline()

    def tick(self, now_cycles: int) -> int:
        """Fire any elapsed deadlines; returns the number fired."""
        fired = 0
        while self.deadline is not None and now_cycles >= self.deadline:
            self.expirations += 1
            fired += 1
            self.irq.raise_()
            if self.mode == MODE_PERIODIC:
                self.deadline += self.period
            else:
                self.mode, self.deadline = MODE_OFF, None
        self.core.fold_deadline()
        return fired

    # -- port interface -----------------------------------------------------

    def port_read(self, port: int) -> int:
        if port == TIMER_PERIOD:
            return self.period
        if port == TIMER_CTRL:
            return 1 if self.deadline is not None else 0
        if port == TIMER_COUNT:
            return self.expirations & 0xFFFFFFFF
        raise DeviceError(f"timer has no port {port:#x}")

    def port_write(self, port: int, value: int) -> None:
        if port == TIMER_PERIOD:
            self.period = value
            return
        if port == TIMER_CTRL:
            if value == MODE_OFF:
                self.disarm()
                return
            if value not in (MODE_ONESHOT, MODE_PERIODIC):
                raise DeviceError(f"bad timer mode {value}")
            # Armed from the core's cycles at this write.
            self.program(self.period, value == MODE_PERIODIC, self.core.cycles)
            return
        raise DeviceError(f"timer has no writable port {port:#x}")
