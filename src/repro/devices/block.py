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

import mmap
from typing import List, Tuple

from repro.devices.bus import PortDevice
from repro.devices.irq import IRQLine
from repro.obs.registry import counter_attr
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


class DiskImage(mmap.mmap):
    """A disk's :data:`DISK_SECTORS` sectors, demand-backed and private
    like ``PhysicalMemory`` (compare ``image[:]``: an ``mmap`` compares by
    identity). Every write is a slice assignment (DMA, ``apply_fields``)
    that records its range, so recycling a VM zeroes only those and keeps
    the image, as ``WriteLog.zero_written`` does."""

    def __new__(cls):
        return super().__new__(cls, -1, DISK_SECTORS * SECTOR_SIZE,
                               flags=mmap.MAP_PRIVATE)

    def __init__(self):
        self.written: List[Tuple[int, int]] = []

    def __setitem__(self, where: slice, value) -> None:
        start, stop, step = where.indices(len(self))
        if step != 1 or len(value) != max(stop - start, 0):
            raise DeviceError("a disk image is written one byte range at a time, in place")
        self.written.append((start, stop))
        super().__setitem__(where, value)

    def zero_written(self) -> "DiskImage":
        for start, stop in self.written:
            super().__setitem__(slice(start, stop), bytes(stop - start))
        self.written.clear()
        return self

    def fits(self, sector: int, count: int) -> bool:
        return count > 0 and sector >= 0 and sector + count <= DISK_SECTORS

    def dma(self, mem, gpa: int, sector: int, count: int, to_disk: bool) -> None:
        """Copy ``count`` sectors from ``sector`` between the disk and
        guest memory at ``gpa``, into the disk when ``to_disk``."""
        off, nbytes = sector * SECTOR_SIZE, count * SECTOR_SIZE
        if to_disk:  # __setitem__'s record, without its call
            self.written.append((off, off + nbytes))
            super().__setitem__(slice(off, off + nbytes), mem.read_bytes(gpa, nbytes))
        else:
            mem.write_bytes(gpa, self[off : off + nbytes])


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

    def __init__(self, mem, irq: IRQLine, data: DiskImage, metrics):
        self.mem = mem
        self.irq = irq
        #: ``block.stuck`` / ``block.io_error`` draw from this, when set.
        self.injector = None
        self.metrics = metrics
        self.data = data
        self._sector = 0
        self._count = 1
        self._dma = 0
        self.status = STATUS_READY
        self.stuck = False

    # -- port interface -----------------------------------------------------

    def port_read(self, port: int) -> int:
        if port == BLK_STATUS:
            return self.status
        if port == BLK_NSECT:
            return DISK_SECTORS
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
        # Every command that is not wedged completes, with an interrupt.
        status = STATUS_ERROR
        if self.injector is not None and self.injector.fires("block.io_error"):
            self.io_errors += 1
        elif cmd in (CMD_READ, CMD_WRITE) and self.data.fits(self._sector, self._count):
            try:
                self.data.dma(self.mem, self._dma, self._sector, self._count,
                              to_disk=cmd == CMD_WRITE)
            except MemoryError_ as err:
                # Subsystem boundary: DMA target outside guest RAM surfaces
                # as a device error with the memory fault as the cause.
                raise DeviceError(
                    f"block DMA at gpa {self._dma:#x} references bad guest memory"
                ) from err
            if cmd == CMD_READ:
                self.reads += 1
            else:
                self.writes += 1
            self.sectors_transferred += self._count
            status = STATUS_READY
        self.status = status
        self.completions += 1
        self.irq.raise_()
