"""Port-mapped I/O bus.

Devices claim port ranges; the bus routes IN/OUT accesses. The CPU (or
the VMM's I/O exit handler) calls :meth:`PortBus.io_in` /
:meth:`PortBus.io_out`.
"""

import mmap
from collections import deque
from typing import Dict, Optional, Tuple

from repro.util.errors import ConfigError, DeviceError


def _declared(obj) -> Tuple[str, ...]:
    names = getattr(type(obj), "STATE", None)
    if names is None:
        raise DeviceError(
            f"{type(obj).__name__} declares no STATE: a snapshot or a "
            f"migration would silently lose whatever the guest programmed "
            f"into it"
        )
    return names


def capture_fields(obj, names=None) -> Dict[str, object]:
    """The attributes ``names`` (default: the ones ``type(obj).STATE``
    declares), as a tree of plain values.

    A member with a ``STATE`` of its own (a virtqueue) is captured
    recursively; a list or deque is copied into a list; an ``mmap`` (a
    ``DiskImage``) becomes ``bytes``, ``b""`` when it is all zeros -- as a
    new device's is, and a recycled VM's (``DiskImage`` zeroes what was
    written): one with no range written is not read at all.
    """
    state = {}
    for name in names or _declared(obj):
        value = getattr(obj, name)
        if hasattr(type(value), "STATE"):
            value = capture_fields(value)
        elif isinstance(value, mmap.mmap):
            value = value[:] if value.written else b""
            if value == bytes(len(value)):
                value = b""
        elif isinstance(value, (list, deque)):
            value = list(value)
        state[name] = value
    return state


def apply_fields(obj, state, names=None) -> None:
    """Write a :func:`capture_fields` tree into a freshly built ``obj``
    (whose disk image is still zeros: an elided one is left alone; a
    ``DiskImage`` records the slice written, for its next recycle).

    The tree must name exactly the attributes captured: one written by
    a build whose declaration differs fails here instead of dropping a
    register.
    """
    names = names or _declared(obj)
    if not isinstance(state, dict) or set(state) != set(names):
        raise ConfigError(
            f"state for {type(obj).__name__} does not name exactly "
            f"{sorted(names)}"
        )
    for name in names:
        value = state[name]
        current = getattr(obj, name)
        if hasattr(type(current), "STATE"):
            apply_fields(current, value)
        elif isinstance(current, mmap.mmap):
            if len(value) not in (0, len(current)):
                raise ConfigError(
                    f"{type(obj).__name__}.{name}: image of {len(value)} "
                    f"bytes for a device of {len(current)}"
                )
            if value:
                current[:] = value
        elif isinstance(current, (list, deque)):
            setattr(obj, name, type(current)(value))
        else:
            setattr(obj, name, value)


class PortDevice:
    """Base class for port-programmed devices.

    ``STATE`` names the attributes that are *guest-architectural*:
    what the guest programmed into the device or can read back from
    it, and therefore what a snapshot, a micro-reboot and a migration
    carry (:func:`capture_fields` / :func:`apply_fields`). Telemetry
    (``reads``, ``kicks``: a recreated VM counts from zero) and
    hypervisor-private fault state (``stuck``: a rebuild clears it by
    construction) stay out.
    """

    STATE: Optional[Tuple[str, ...]] = None

    def port_read(self, port: int) -> int:
        """Handle IN from ``port`` (absolute port number)."""
        raise DeviceError(f"{type(self).__name__} has no readable port {port:#x}")

    def port_write(self, port: int, value: int) -> None:
        """Handle OUT to ``port`` (absolute port number)."""
        raise DeviceError(f"{type(self).__name__} has no writable port {port:#x}")


class PortBus:
    """Routes port accesses to registered devices."""

    def __init__(self):
        #: Each claimed port's device.
        self.ports: Dict[int, PortDevice] = {}
        self.reads = 0
        self.writes = 0

    def register(self, device: PortDevice, base: int, count: int) -> None:
        """Claim ports [base, base+count) for ``device``."""
        if count <= 0:
            raise DeviceError("port range must be non-empty")
        for port in range(base, base + count):
            if port in self.ports:
                raise DeviceError(f"port {port:#x} already claimed")
            self.ports[port] = device

    def io_in(self, port: int) -> int:
        self.reads += 1
        device = self.ports.get(port)
        if device is None:
            return 0  # unclaimed: an open bus reads 0
        return device.port_read(port) & 0xFFFFFFFF

    def io_out(self, port: int, value: int) -> None:
        self.writes += 1
        device = self.ports.get(port)
        if device is None:
            return  # unclaimed: discarded
        device.port_write(port, value & 0xFFFFFFFF)
