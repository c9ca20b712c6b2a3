"""Power control: how a guest (or native kernel) requests shutdown.

Port (base = :data:`POWER_BASE`): write any nonzero value to request
power-off, which ends the run of the core the latch is wired to on the
write's own retire edge (``CPUCore.end_run``); read returns 1 once
requested.
"""

from repro.devices.bus import PortDevice
from repro.util.errors import DeviceError

POWER_BASE = 0xF0


class PowerControl(PortDevice):
    """One-port power-off latch of ``core``."""

    STATE = ("shutdown_requested", "code")

    def __init__(self, core):
        self.core = core
        self.shutdown_requested = False
        self.code = 0  # value written at shutdown (guest exit status)

    def port_read(self, port: int) -> int:
        if port != POWER_BASE:
            raise DeviceError(f"power control has no port {port:#x}")
        return 1 if self.shutdown_requested else 0

    def port_write(self, port: int, value: int) -> None:
        if port != POWER_BASE:
            raise DeviceError(f"power control has no port {port:#x}")
        if value:
            self.shutdown_requested = True
            self.code = value
            self.core.end_run()
