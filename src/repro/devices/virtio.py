"""Virtio-style paravirtual devices: split rings in guest memory.

The defining property (experiment E4): the guest posts any number of
requests into a ring that lives in *guest memory* and then notifies the
device with a **single** port write (the "kick"). Under a VMM that is
one exit per batch instead of several exits per request. Completions go
into the used ring plus one interrupt per drain.

Ring layout (all fields u32 little-endian, ``N`` = queue size):

* descriptor table: N entries of 16 bytes -- addr, len, flags, next
* available ring:   idx, ring[N]
* used ring:        idx, then N pairs of (desc_id, written_len)

Descriptor flags: bit0 = NEXT (chain continues), bit1 = WRITE (device
writes to this buffer).

virtio-blk request = 3-descriptor chain, as in the real spec:

1. header (device-readable, 12 bytes): type (0=read, 1=write), sector,
   sector count;
2. data buffer (device-writable for reads, readable for writes);
3. status byte (device-writable): 0 = OK, 1 = error.

virtio-net: tx queue posts device-readable frame buffers; rx queue
posts device-writable empty buffers for the host side to fill.

Ports (per device, base +0..+5)::

    +0 QUEUE_DESC  : guest-physical address of the descriptor table
    +1 QUEUE_AVAIL : guest-physical address of the avail ring
    +2 QUEUE_USED  : guest-physical address of the used ring
    +3 QUEUE_SIZE  : number of descriptors
    +4 KICK        : process new avail entries (the one exit per batch)
    +5 STATUS      : 1 when the queue is configured

The NIC claims two consecutive 6-port blocks (tx queue at base, rx
queue at base+8).
"""

from typing import List, Optional, Tuple

from repro.devices.block import SECTOR_SIZE, DiskImage
from repro.devices.bus import PortDevice
from repro.devices.irq import IRQLine
from repro.obs.registry import counter_attr
from repro.util.errors import DeviceError, MemoryError_

VIRTIO_BLK_BASE = 0x70
VIRTIO_NET_BASE = 0x80  # tx queue; rx queue at +8

OFF_DESC = 0
OFF_AVAIL = 1
OFF_USED = 2
OFF_SIZE = 3
OFF_KICK = 4
OFF_STATUS = 5

DESC_F_NEXT = 1
DESC_F_WRITE = 2

BLK_T_READ = 0
BLK_T_WRITE = 1

BLK_S_OK = 0
BLK_S_ERROR = 1


class VirtQueue:
    """Device-side view of one split ring in guest memory."""

    #: where the guest put the ring and how far the device has read it
    #: (the rings themselves are guest memory).
    STATE = ("desc_gpa", "avail_gpa", "used_gpa", "size", "last_avail_idx")

    kicks = counter_attr()
    requests = counter_attr()

    def __init__(self, mem, metrics):
        self.mem = mem
        self.metrics = metrics
        self.desc_gpa = 0
        self.avail_gpa = 0
        self.used_gpa = 0
        self.size = 0
        self.last_avail_idx = 0

    @property
    def configured(self) -> bool:
        return bool(self.size and self.desc_gpa and self.avail_gpa and self.used_gpa)

    def read_desc(self, index: int) -> Tuple[int, int, int, int]:
        if not 0 <= index < self.size:
            raise DeviceError(f"descriptor index {index} out of ring of {self.size}")
        base = self.desc_gpa + index * 16
        return (
            self.mem.read_u32(base),
            self.mem.read_u32(base + 4),
            self.mem.read_u32(base + 8),
            self.mem.read_u32(base + 12),
        )

    def collect_chain(self, head: int) -> List[Tuple[int, int, int]]:
        """Follow a descriptor chain; return [(addr, len, flags), ...]."""
        chain = []
        index = head
        for _ in range(self.size + 1):
            addr, length, flags, next_ = self.read_desc(index)
            chain.append((addr, length, flags))
            if not flags & DESC_F_NEXT:
                return chain
            index = next_
        raise DeviceError("descriptor chain loop")

    def pop_avail(self) -> Optional[int]:
        """Return the next posted chain head, or None if caught up."""
        avail_idx = self.mem.read_u32(self.avail_gpa)
        if self.last_avail_idx == avail_idx:
            return None
        pending = (avail_idx - self.last_avail_idx) & 0xFFFFFFFF
        if pending > self.size:
            # A sane driver can never post more chains than the ring
            # holds. Seeing more means the index word was corrupted --
            # e.g. a completion write landing inside the avail ring --
            # and chasing it would let a hostile guest wedge the host
            # in this drain loop forever.
            raise DeviceError(
                f"avail ring advanced by {pending} entries "
                f"(queue size {self.size}): corrupt index"
            )
        slot = self.last_avail_idx % self.size
        head = self.mem.read_u32(self.avail_gpa + 4 + slot * 4)
        self.last_avail_idx = (self.last_avail_idx + 1) & 0xFFFFFFFF
        self.requests += 1
        return head

    def push_used(self, head: int, written: int) -> None:
        used_idx = self.mem.read_u32(self.used_gpa)
        slot = used_idx % self.size
        base = self.used_gpa + 4 + slot * 8
        self.mem.write_u32(base, head)
        self.mem.write_u32(base + 4, written)
        self.mem.write_u32(self.used_gpa, (used_idx + 1) & 0xFFFFFFFF)


class _VirtQueuePorts(PortDevice):
    """Shared port plumbing for one queue block of 6 ports."""

    STATE = ("queue",)

    def __init__(self, mem, base: int, metrics):
        self.metrics = metrics
        self.queue = VirtQueue(mem, metrics=self.metrics.scope("queue"))
        self.base = base

    def queue_port_read(self, offset: int) -> int:
        q = self.queue
        if offset == OFF_DESC:
            return q.desc_gpa
        if offset == OFF_AVAIL:
            return q.avail_gpa
        if offset == OFF_USED:
            return q.used_gpa
        if offset == OFF_SIZE:
            return q.size
        if offset == OFF_STATUS:
            return 1 if q.configured else 0
        raise DeviceError(f"virtio queue has no readable port offset {offset}")

    def queue_port_write(self, offset: int, value: int, on_kick) -> None:
        q = self.queue
        if offset == OFF_DESC:
            q.desc_gpa = value
        elif offset == OFF_AVAIL:
            q.avail_gpa = value
        elif offset == OFF_USED:
            q.used_gpa = value
        elif offset == OFF_SIZE:
            if value <= 0 or value > 4096:
                raise DeviceError(f"bad queue size {value}")
            q.size = value
        elif offset == OFF_KICK:
            if not q.configured:
                raise DeviceError("kick before queue configuration")
            q.kicks += 1
            on_kick()
        else:
            raise DeviceError(f"virtio queue has no writable port offset {offset}")


class VirtioBlockDevice(_VirtQueuePorts):
    """Paravirtual disk: one request queue.

    Fault site ``virtio.ring_stuck`` (with an ``injector`` attached):
    the device stops draining its ring -- kicks are counted but ignored,
    exactly the symptom of a lost interrupt or a wedged backend thread.
    """

    STATE = _VirtQueuePorts.STATE + ("data",)

    stalled_kicks = counter_attr()
    completions = counter_attr()
    reads = counter_attr()
    writes = counter_attr()
    errors = counter_attr()

    def __init__(self, mem, irq: IRQLine, data: DiskImage, metrics):
        super().__init__(mem, VIRTIO_BLK_BASE, metrics=metrics)
        self.irq = irq
        #: ``virtio.ring_stuck`` draws from this, when set.
        self.injector = None
        self.data = data
        self.stuck = False

    def port_read(self, port: int) -> int:
        return self.queue_port_read(port - self.base)

    def port_write(self, port: int, value: int) -> None:
        self.queue_port_write(port - self.base, value, self._drain)

    def _drain(self) -> None:
        if self.injector is not None and not self.stuck and (
            self.injector.fires("virtio.ring_stuck")
        ):
            self.stuck = True
        if self.stuck:
            # Ring wedged: the kick is swallowed, requests sit in the
            # avail ring untouched.
            self.stalled_kicks += 1
            return
        processed = 0
        while True:
            head = self.queue.pop_avail()
            if head is None:
                break
            try:
                self._process(head)
            except MemoryError_ as err:
                # Subsystem boundary: guest handed us a descriptor that
                # points at unbacked memory. Surface it as a device
                # error, keeping the memory fault as the cause.
                raise DeviceError(
                    f"virtio-blk request {head}: descriptor references "
                    f"bad guest memory"
                ) from err
            processed += 1
        if processed:
            self.irq.raise_()

    def _process(self, head: int) -> None:
        chain = self.queue.collect_chain(head)
        if len(chain) != 3 or chain[0][1] < 12:  # header: type, sector, count
            self._complete(head, chain, BLK_S_ERROR, 0)
            return
        (hdr_addr, _, _), (data_addr, data_len, data_flags), _ = chain
        mem = self.queue.mem
        req_type = mem.read_u32(hdr_addr)
        sector = mem.read_u32(hdr_addr + 4)
        count = mem.read_u32(hdr_addr + 8)
        if (not self.data.fits(sector, count) or count * SECTOR_SIZE > data_len
                or req_type not in (BLK_T_READ, BLK_T_WRITE)
                or req_type == BLK_T_READ and not data_flags & DESC_F_WRITE):
            self.errors += 1
            self._complete(head, chain, BLK_S_ERROR, 0)
            return
        self.data.dma(mem, data_addr, sector, count, to_disk=req_type == BLK_T_WRITE)
        if req_type == BLK_T_READ:
            self.reads += 1
        else:
            self.writes += 1
        self._complete(head, chain, BLK_S_OK, count * SECTOR_SIZE)

    def _complete(self, head: int, chain, status: int, written: int) -> None:
        status_addr, _status_len, _ = chain[-1]
        self.queue.mem.write_bytes(status_addr, bytes([status]))
        self.queue.push_used(head, written + 1)
        self.completions += 1


class VirtioNetDevice(PortDevice):
    """Paravirtual NIC: tx queue at ``base``, rx queue at ``base + 8``."""

    STATE = ("tx", "rx")

    tx_frames = counter_attr()
    tx_bytes = counter_attr()

    def __init__(self, mem, irq: IRQLine, metrics):
        base = self.base = VIRTIO_NET_BASE
        self.irq = irq
        self.metrics = metrics
        self.tx = _VirtQueuePorts(mem, base, metrics=self.metrics.scope("tx"))
        self.rx = _VirtQueuePorts(mem, base + 8,
                                  metrics=self.metrics.scope("rx"))
        self.mem = mem
        self.sent: List[bytes] = []

    def port_read(self, port: int) -> int:
        offset = port - self.base
        if offset < 8:
            return self.tx.queue_port_read(offset)
        return self.rx.queue_port_read(offset - 8)

    def port_write(self, port: int, value: int) -> None:
        offset = port - self.base
        if offset < 8:
            self.tx.queue_port_write(offset, value, self._drain_tx)
        else:
            # rx kick just publishes fresh buffers; nothing to process now.
            self.rx.queue_port_write(offset - 8, value, lambda: None)

    def _drain_tx(self) -> None:
        processed = 0
        while True:
            head = self.tx.queue.pop_avail()
            if head is None:
                break
            chain = self.tx.queue.collect_chain(head)
            frame = b"".join(
                self.mem.read_bytes(addr, length) for addr, length, _f in chain
            )
            self.tx_frames += 1
            self.tx_bytes += len(frame)
            self.sent.append(frame)
            self.tx.queue.push_used(head, 0)
            processed += 1
        if processed:
            self.irq.raise_()
