"""Programmable interval timer.

Deadlines are expressed in CPU *cycles* (the deterministic time base of
the instruction-accurate engine). The machine run loop calls
:meth:`TimerDevice.tick` with the CPU's current cycle count between
execution slices; when a programmed deadline has passed, the timer
raises IRQ line 0.

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
    """Cycle-driven interval timer."""

    #: ``deadline`` is absolute: the cycle counter it is measured
    #: against travels with the vCPU.
    STATE = ("period", "mode", "deadline", "expirations")

    expirations = counter_attr()

    def __init__(self, irq: IRQLine, metrics):
        self.irq = irq
        self.metrics = metrics
        self.period = 0
        self.mode = MODE_OFF
        self.deadline = None  # absolute cycle count

    def program(self, period: int, periodic: bool, now_cycles: int) -> None:
        """Arm the timer ``period`` cycles from ``now_cycles``."""
        if period <= 0:
            raise DeviceError("timer period must be positive")
        self.period = period
        self.mode = MODE_PERIODIC if periodic else MODE_ONESHOT
        self.deadline = now_cycles + period

    def disarm(self) -> None:
        self.mode = MODE_OFF
        self.deadline = None

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
                self.disarm()
                break
        return fired

    def next_deadline(self):
        """Absolute cycle count of the next expiry, or None."""
        return self.deadline

    # -- port interface -----------------------------------------------------
    # The guest programs the timer relative to its own CYCLES counter; the
    # machine loop re-bases via pending_program.

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
            if self.period <= 0:
                raise DeviceError("timer armed with no period")
            self.mode = value
            # Deadline is rebased by the machine loop on the next tick()
            # call; mark it as "arm at next tick".
            self.deadline = -1
            return
        raise DeviceError(f"timer has no writable port {port:#x}")

    def rebase_if_armed(self, now_cycles: int) -> None:
        """Called by the machine loop right after a port arm (deadline==-1)."""
        if self.deadline == -1:
            self.deadline = now_cycles + self.period
