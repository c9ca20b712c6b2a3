"""Serial console: the guest's printf path, plus a small RX side.

Ports::

    CONS_TX     (base+0): write one character (low byte);
                          read one received character (0 when empty)
    CONS_STATUS (base+1): read bit0 = TX ready (always 1),
                          bit1 = RX data available

Received characters arrive via :meth:`push_input` -- host-side test
harnesses and the seeded :class:`~repro.devices.schedule.EventSchedule`
use it to model console input interrupts at reproducible points; each
pushed character raises the console's ``irq`` line.
"""

from repro.devices.bus import PortDevice
from repro.util.errors import DeviceError

CONSOLE_BASE = 0x10
CONS_TX = CONSOLE_BASE
CONS_STATUS = CONSOLE_BASE + 1


class ConsoleDevice(PortDevice):
    """Character console with a capture buffer and an input queue."""

    #: everything printed so far, and input the guest has not read yet
    #: (its IRQ line travels with the PIC's ``pending``).
    STATE = ("text", "chars_written", "_rx", "chars_received")

    def __init__(self, irq):
        self._chars = []
        #: characters kept in ``text``; later output is counted only.
        self.capacity = 1 << 20
        self.chars_written = 0
        self.irq = irq
        self._rx = []
        self.chars_received = 0

    @property
    def text(self) -> str:
        return "".join(self._chars)

    @text.setter
    def text(self, value: str) -> None:
        self._chars = list(value)

    def push_input(self, value: int) -> None:
        """Queue one received byte and raise the console IRQ line."""
        self._rx.append(value & 0xFF)
        self.irq.raise_()

    def port_read(self, port: int) -> int:
        if port == CONS_STATUS:
            return 1 | (2 if self._rx else 0)
        if port == CONS_TX:
            if not self._rx:
                return 0
            self.chars_received += 1
            return self._rx.pop(0)
        raise DeviceError(f"console has no readable port {port:#x}")

    def port_write(self, port: int, value: int) -> None:
        if port != CONS_TX:
            raise DeviceError(f"console has no writable port {port:#x}")
        self.chars_written += 1
        if len(self._chars) < self.capacity:
            self._chars.append(chr(value & 0xFF))
