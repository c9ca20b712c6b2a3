"""Emulated (port-programmed) block device.

The classic fully-emulated disk interface: the guest programs one
request with four port writes and reads status back, so a single
request costs five device-register accesses -- under a VMM, five VM
exits. Compare :class:`repro.devices.virtio.VirtioBlockDevice`.

Ports (base = :data:`BLOCK_BASE`)::

    +0 BLK_SECTOR : starting sector number
    +1 BLK_COUNT  : sector count
    +2 BLK_DMA    : guest-physical DMA address
    +3 BLK_CMD    : 1 = read (disk -> memory), 2 = write (memory -> disk)
    +4 BLK_STATUS : 0 = ready, 2 = error
    +5 BLK_NSECT  : total sectors (read-only)
"""

from repro.devices.bus import PortDevice
from repro.devices.irq import IRQLine
from repro.obs.registry import MetricsRegistry, counter_attr
from repro.util.errors import DeviceError, MemoryError_

BLOCK_BASE = 0x50
BLK_SECTOR = BLOCK_BASE
BLK_COUNT = BLOCK_BASE + 1
BLK_DMA = BLOCK_BASE + 2
BLK_CMD = BLOCK_BASE + 3
BLK_STATUS = BLOCK_BASE + 4
BLK_NSECT = BLOCK_BASE + 5

SECTOR_SIZE = 512
#: Every disk's capacity: 1 MiB.
DISK_SECTORS = 2048

CMD_READ = 1
CMD_WRITE = 2

STATUS_READY = 0
STATUS_ERROR = 2


class BlockDevice(PortDevice):
    """Sector-addressed disk with port-programmed DMA.

    Fault sites (evaluated when an ``injector`` is attached):
    ``block.io_error`` completes the command with ``STATUS_ERROR``
    (transient media error -- the driver retries); ``block.stuck``
    wedges the device: commands are accepted but never complete.
    """

    STATE = ("data", "_sector", "_count", "_dma", "status")

    reads = counter_attr()
    writes = counter_attr()
    io_errors = counter_attr()
    stalled_commands = counter_attr()
    commands = counter_attr()
    completions = counter_attr()
    sectors_transferred = counter_attr()

    def __init__(self, mem, irq: IRQLine, metrics=None):
        capacity_sectors = DISK_SECTORS
        self.mem = mem
        self.irq = irq
        self.capacity_sectors = capacity_sectors
        #: ``block.stuck`` / ``block.io_error`` draw from this, when set.
        self.injector = None
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry().scope("dev.block"))
        self.data = bytearray(capacity_sectors * SECTOR_SIZE)
        self._sector = 0
        self._count = 1
        self._dma = 0
        self.status = STATUS_READY
        self.stuck = False

    # -- direct host-side access (test setup, image loading) ---------------

    def load_image(self, data: bytes, sector: int = 0) -> None:
        offset = sector * SECTOR_SIZE
        if offset + len(data) > len(self.data):
            raise DeviceError("image larger than disk")
        self.data[offset : offset + len(data)] = data

    def read_sectors(self, sector: int, count: int) -> bytes:
        self._check_range(sector, count)
        off = sector * SECTOR_SIZE
        return bytes(self.data[off : off + count * SECTOR_SIZE])

    # -- port interface -----------------------------------------------------

    def port_read(self, port: int) -> int:
        if port == BLK_STATUS:
            return self.status
        if port == BLK_NSECT:
            return self.capacity_sectors
        if port == BLK_SECTOR:
            return self._sector
        if port == BLK_COUNT:
            return self._count
        if port == BLK_DMA:
            return self._dma
        raise DeviceError(f"block device has no port {port:#x}")

    def port_write(self, port: int, value: int) -> None:
        if port == BLK_SECTOR:
            self._sector = value
        elif port == BLK_COUNT:
            self._count = value
        elif port == BLK_DMA:
            self._dma = value
        elif port == BLK_CMD:
            self._execute(value)
        else:
            raise DeviceError(f"block device has no writable port {port:#x}")

    def _execute(self, cmd: int) -> None:
        self.commands += 1
        if self.injector is not None and not self.stuck and (
            self.injector.fires("block.stuck")
        ):
            self.stuck = True
        if self.stuck:
            self.stalled_commands += 1
            return  # wedged: no completion, no interrupt
        if self.injector is not None and self.injector.fires("block.io_error"):
            self.io_errors += 1
            self.status = STATUS_ERROR
            self.completions += 1
            self.irq.raise_()
            return
        try:
            self._check_range(self._sector, self._count)
        except DeviceError:
            self.status = STATUS_ERROR
            self.completions += 1
            self.irq.raise_()
            return
        nbytes = self._count * SECTOR_SIZE
        off = self._sector * SECTOR_SIZE
        try:
            if cmd == CMD_READ:
                self.mem.write_bytes(self._dma, bytes(self.data[off : off + nbytes]))
                self.reads += 1
            elif cmd == CMD_WRITE:
                self.data[off : off + nbytes] = self.mem.read_bytes(self._dma, nbytes)
                self.writes += 1
        except MemoryError_ as err:
            # Subsystem boundary: DMA target outside guest RAM surfaces
            # as a device error with the memory fault as the cause.
            raise DeviceError(
                f"block DMA at gpa {self._dma:#x} references bad guest memory"
            ) from err
        if cmd not in (CMD_READ, CMD_WRITE):
            self.status = STATUS_ERROR
            self.completions += 1
            self.irq.raise_()
            return
        self.sectors_transferred += self._count
        self.status = STATUS_READY
        self.completions += 1
        self.irq.raise_()

    def _check_range(self, sector: int, count: int) -> None:
        if count <= 0 or sector < 0 or sector + count > self.capacity_sectors:
            raise DeviceError(
                f"sector range [{sector}, {sector + count}) outside disk "
                f"of {self.capacity_sectors} sectors"
            )
