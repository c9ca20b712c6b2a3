"""Emulated (port-programmed) network interface.

Like the block device, every frame costs several register accesses:
address, length, command, status -- four exits per packet under a VMM.
Frames are delivered to a host-side callback (or queued for tests).

Ports (base = :data:`NET_BASE`)::

    +0 NET_TX_ADDR : guest-physical address of the outgoing frame
    +1 NET_TX_LEN  : frame length in bytes
    +2 NET_TX_CMD  : write 1 to transmit
    +3 NET_STATUS  : bit0 = tx ready, bit1 = rx frame waiting
    +4 NET_RX_ADDR : guest-physical buffer for the next received frame
    +5 NET_RX_CMD  : write 1 to pop the next rx frame into NET_RX_ADDR
    +6 NET_RX_LEN  : length of the frame just popped
"""

from collections import deque
from typing import Callable, Deque, Optional

from repro.devices.bus import PortDevice
from repro.devices.irq import IRQLine
from repro.obs.registry import MetricsRegistry, counter_attr
from repro.util.errors import DeviceError

NET_BASE = 0x60
NET_TX_ADDR = NET_BASE
NET_TX_LEN = NET_BASE + 1
NET_TX_CMD = NET_BASE + 2
NET_STATUS = NET_BASE + 3
NET_RX_ADDR = NET_BASE + 4
NET_RX_CMD = NET_BASE + 5
NET_RX_LEN = NET_BASE + 6

MAX_FRAME = 9000  # jumbo-sized sanity cap


class NetDevice(PortDevice):
    """Port-programmed NIC with host-side tx sink and rx queue."""

    STATE = ("_tx_addr", "_tx_len", "_rx_addr", "_rx_len", "_rx_queue")

    tx_frames = counter_attr()
    tx_bytes = counter_attr()
    rx_frames = counter_attr()

    def __init__(self, mem, irq: IRQLine,
                 tx_sink: Optional[Callable[[bytes], None]] = None,
                 metrics=None):
        self.mem = mem
        self.irq = irq
        self.tx_sink = tx_sink
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry().scope("dev.net"))
        self.sent: Deque[bytes] = deque(maxlen=1024)  # tap for tests
        self._rx_queue: Deque[bytes] = deque()
        self._tx_addr = 0
        self._tx_len = 0
        self._rx_addr = 0
        self._rx_len = 0

    def inject_rx(self, frame: bytes) -> None:
        """Host side: queue a frame for the guest and interrupt it."""
        if len(frame) > MAX_FRAME:
            raise DeviceError(f"frame of {len(frame)} bytes exceeds {MAX_FRAME}")
        self._rx_queue.append(bytes(frame))
        self.irq.raise_()

    def port_read(self, port: int) -> int:
        if port == NET_STATUS:
            return 1 | (2 if self._rx_queue else 0)
        if port == NET_RX_LEN:
            return self._rx_len
        if port == NET_TX_ADDR:
            return self._tx_addr
        if port == NET_TX_LEN:
            return self._tx_len
        raise DeviceError(f"NIC has no readable port {port:#x}")

    def port_write(self, port: int, value: int) -> None:
        if port == NET_TX_ADDR:
            self._tx_addr = value
        elif port == NET_TX_LEN:
            if value > MAX_FRAME:
                raise DeviceError(f"tx length {value} exceeds {MAX_FRAME}")
            self._tx_len = value
        elif port == NET_TX_CMD:
            self._transmit()
        elif port == NET_RX_ADDR:
            self._rx_addr = value
        elif port == NET_RX_CMD:
            self._receive()
        else:
            raise DeviceError(f"NIC has no writable port {port:#x}")

    def _transmit(self) -> None:
        frame = self.mem.read_bytes(self._tx_addr, self._tx_len)
        self.tx_frames += 1
        self.tx_bytes += len(frame)
        self.sent.append(frame)
        if self.tx_sink is not None:
            self.tx_sink(frame)

    def _receive(self) -> None:
        if not self._rx_queue:
            self._rx_len = 0
            return
        frame = self._rx_queue.popleft()
        self.mem.write_bytes(self._rx_addr, frame)
        self._rx_len = len(frame)
        self.rx_frames += 1
