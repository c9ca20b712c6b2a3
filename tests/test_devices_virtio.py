"""Virtio split rings and the paravirtual block/net devices.

These tests drive the rings exactly as a guest driver would: build
descriptor chains in memory, publish them in the avail ring, kick, and
read completions from the used ring.
"""

import pytest

from repro.devices.block import SECTOR_SIZE, DiskImage
from repro.devices.irq import InterruptController
from repro.devices.virtio import (
    BLK_S_OK,
    BLK_T_READ,
    BLK_T_WRITE,
    DESC_F_NEXT,
    DESC_F_WRITE,
    OFF_AVAIL,
    OFF_DESC,
    OFF_KICK,
    OFF_SIZE,
    OFF_STATUS,
    OFF_USED,
    VIRTIO_BLK_BASE,
    VIRTIO_NET_BASE,
    VirtQueue,
    VirtioBlockDevice,
    VirtioNetDevice,
)
from repro.mem.physmem import PhysicalMemory
from repro.obs.registry import MetricsRegistry
from repro.util.errors import DeviceError
from repro.util.units import MIB
from tests.conftest import dev_metrics, inject_virtio_rx

DESC = 0x10000
AVAIL = 0x10100
USED = 0x10200
HDR = 0x10300
STATUS_BUF = 0x10400
DATA = 0x11000


class SinkStub:
    def __init__(self):
        self.count = 0

    def assert_irq(self, cause):
        self.count += 1


@pytest.fixture
def env():
    pm = PhysicalMemory(1 * MIB)
    sink = SinkStub()
    pic = InterruptController(sink, dev_metrics())
    return pm, pic, sink


def write_desc(pm, index, addr, length, flags, next_=0):
    base = DESC + index * 16
    pm.write_u32(base, addr)
    pm.write_u32(base + 4, length)
    pm.write_u32(base + 8, flags)
    pm.write_u32(base + 12, next_)


def configure(dev, base, pm):
    dev.port_write(base + OFF_DESC, DESC)
    dev.port_write(base + OFF_AVAIL, AVAIL)
    dev.port_write(base + OFF_USED, USED)
    dev.port_write(base + OFF_SIZE, 16)


def publish(pm, slot_values):
    idx = pm.read_u32(AVAIL)
    for i, head in enumerate(slot_values):
        pm.write_u32(AVAIL + 4 + ((idx + i) % 16) * 4, head)
    pm.write_u32(AVAIL, idx + len(slot_values))


def blk_request(pm, req_index, req_type, sector, count=1):
    """Build the canonical 3-descriptor chain; returns the head index."""
    hdr = HDR + req_index * 16
    pm.write_u32(hdr, req_type)
    pm.write_u32(hdr + 4, sector)
    pm.write_u32(hdr + 8, count)
    d = req_index * 3
    write_desc(pm, d, hdr, 12, DESC_F_NEXT, d + 1)
    data_flags = DESC_F_WRITE if req_type == BLK_T_READ else 0
    write_desc(pm, d + 1, DATA, 512 * count, data_flags | DESC_F_NEXT, d + 2)
    write_desc(pm, d + 2, STATUS_BUF + req_index, 1, DESC_F_WRITE)
    return d


class TestVirtQueue:
    def test_chain_collection_and_loop_detection(self, env):
        pm, _, _ = env
        queue = VirtQueue(pm, MetricsRegistry().scope("dev.virtq"))
        queue.desc_gpa, queue.avail_gpa, queue.used_gpa, queue.size = (
            DESC, AVAIL, USED, 16)
        write_desc(pm, 0, 0x100, 10, DESC_F_NEXT, 1)
        write_desc(pm, 1, 0x200, 20, 0)
        chain = queue.collect_chain(0)
        assert chain == [(0x100, 10, DESC_F_NEXT), (0x200, 20, 0)]
        # self-loop must be detected
        write_desc(pm, 2, 0x300, 1, DESC_F_NEXT, 2)
        with pytest.raises(DeviceError):
            queue.collect_chain(2)

    def test_pop_avail_in_order(self, env):
        pm, _, _ = env
        queue = VirtQueue(pm, MetricsRegistry().scope("dev.virtq"))
        queue.desc_gpa, queue.avail_gpa, queue.used_gpa, queue.size = (
            DESC, AVAIL, USED, 16)
        publish(pm, [4, 9])
        assert queue.pop_avail() == 4
        assert queue.pop_avail() == 9
        assert queue.pop_avail() is None

    def test_pop_avail_rejects_corrupt_index(self, env):
        # Found by the differential fuzzer: a wild guest store (or a
        # corrupt descriptor steering completion writes into the avail
        # ring) can push avail.idx arbitrarily far ahead; chasing it
        # wedged the host in the kick drain loop forever. More pending
        # entries than the ring holds is always driver corruption.
        pm, _, _ = env
        queue = VirtQueue(pm, MetricsRegistry().scope("dev.virtq"))
        queue.desc_gpa, queue.avail_gpa, queue.used_gpa, queue.size = (
            DESC, AVAIL, USED, 16)
        pm.write_u32(AVAIL, 17)  # 17 pending > 16 slots
        with pytest.raises(DeviceError, match="corrupt index"):
            queue.pop_avail()
        # Exactly ring-size pending is still legal (full ring).
        pm.write_u32(AVAIL, 16)
        for slot in range(16):
            pm.write_u32(AVAIL + 4 + slot * 4, slot % 3)
        assert queue.pop_avail() == 0

    def test_push_used_advances_index(self, env):
        pm, _, _ = env
        queue = VirtQueue(pm, MetricsRegistry().scope("dev.virtq"))
        queue.desc_gpa, queue.avail_gpa, queue.used_gpa, queue.size = (
            DESC, AVAIL, USED, 16)
        queue.push_used(7, 100)
        assert pm.read_u32(USED) == 1
        assert pm.read_u32(USED + 4) == 7
        assert pm.read_u32(USED + 8) == 100


class TestVirtioBlock:
    def test_write_and_read(self, env):
        pm, pic, sink = env
        dev = VirtioBlockDevice(pm, pic.line(3), DiskImage(), dev_metrics())
        configure(dev, VIRTIO_BLK_BASE, pm)
        assert dev.port_read(VIRTIO_BLK_BASE + OFF_STATUS) == 1

        payload = bytes([i % 251 for i in range(512)])
        pm.write_bytes(DATA, payload)
        head = blk_request(pm, 0, BLK_T_WRITE, sector=5)
        publish(pm, [head])
        dev.port_write(VIRTIO_BLK_BASE + OFF_KICK, 0)
        assert dev.data[5 * SECTOR_SIZE:6 * SECTOR_SIZE] == payload
        assert pm.read_u8(STATUS_BUF) == BLK_S_OK
        assert pm.read_u32(USED) == 1
        assert sink.count == 1

        # read it back into a cleared buffer
        pm.write_bytes(DATA, b"\x00" * 512)
        head = blk_request(pm, 1, BLK_T_READ, sector=5)
        publish(pm, [head])
        dev.port_write(VIRTIO_BLK_BASE + OFF_KICK, 0)
        assert pm.read_bytes(DATA, 512) == payload

    def test_batch_processes_all_with_one_kick_one_irq(self, env):
        pm, pic, sink = env
        dev = VirtioBlockDevice(pm, pic.line(3), DiskImage(), dev_metrics())
        configure(dev, VIRTIO_BLK_BASE, pm)
        pm.write_bytes(DATA, b"Z" * 512)
        heads = [blk_request(pm, i, BLK_T_WRITE, sector=i) for i in range(4)]
        publish(pm, heads)
        dev.port_write(VIRTIO_BLK_BASE + OFF_KICK, 0)
        assert dev.writes == 4
        assert pm.read_u32(USED) == 4
        assert sink.count == 1  # the whole batch completes with one IRQ
        assert dev.queue.kicks == 1

    def test_out_of_range_request_errors(self, env):
        pm, pic, _ = env
        dev = VirtioBlockDevice(pm, pic.line(3), DiskImage(), dev_metrics())
        configure(dev, VIRTIO_BLK_BASE, pm)
        head = blk_request(pm, 0, BLK_T_WRITE, sector=2048)
        publish(pm, [head])
        dev.port_write(VIRTIO_BLK_BASE + OFF_KICK, 0)
        assert pm.read_u8(STATUS_BUF) == 1  # BLK_S_ERROR
        assert dev.errors == 1

    def test_kick_before_configuration_rejected(self, env):
        pm, pic, _ = env
        dev = VirtioBlockDevice(pm, pic.line(3), DiskImage(), dev_metrics())
        with pytest.raises(DeviceError):
            dev.port_write(VIRTIO_BLK_BASE + OFF_KICK, 0)


class TestVirtioNet:
    def test_tx_batch(self, env):
        pm, pic, sink = env
        dev = VirtioNetDevice(pm, pic.line(4), dev_metrics())
        sent = dev.sent
        configure(dev, VIRTIO_NET_BASE, pm)  # tx queue
        pm.write_bytes(DATA, b"frame-a!")
        for i in range(3):
            write_desc(pm, i, DATA, 8, 0)
        publish(pm, [0, 1, 2])
        dev.port_write(VIRTIO_NET_BASE + OFF_KICK, 0)
        assert dev.tx_frames == 3 and len(sent) == 3
        assert sink.count == 1

    def test_rx_fill(self, env):
        pm, pic, _ = env
        dev = VirtioNetDevice(pm, pic.line(4), dev_metrics())
        rx_base = VIRTIO_NET_BASE + 8
        configure_offsets = {
            OFF_DESC: DESC, OFF_AVAIL: AVAIL, OFF_USED: USED, OFF_SIZE: 16,
        }
        for off, value in configure_offsets.items():
            dev.port_write(rx_base + off, value)
        write_desc(pm, 0, DATA, 64, DESC_F_WRITE)
        publish(pm, [0])
        assert inject_virtio_rx(dev, b"ping")
        assert pm.read_bytes(DATA, 4) == b"ping"
        assert pm.read_u32(USED) == 1

    def test_rx_drop_without_buffers(self, env):
        pm, pic, _ = env
        dev = VirtioNetDevice(pm, pic.line(4), dev_metrics())
        assert not inject_virtio_rx(dev, b"lost")
