"""Block and network device models (emulated flavours)."""

import pytest

from repro.devices.block import (
    BLK_CMD,
    BLK_COUNT,
    BLK_DMA,
    BLK_NSECT,
    BLK_SECTOR,
    BLK_STATUS,
    BlockDevice,
    DiskImage,
    CMD_READ,
    CMD_WRITE,
    SECTOR_SIZE,
    STATUS_ERROR,
    STATUS_READY,
)
from repro.devices.irq import InterruptController
from repro.devices.net import (
    NET_RX_ADDR,
    NET_RX_CMD,
    NET_RX_LEN,
    NET_STATUS,
    NET_TX_ADDR,
    NET_TX_CMD,
    NET_TX_LEN,
    NetDevice,
)
from repro.mem.physmem import PhysicalMemory
from repro.util.errors import DeviceError
from repro.util.units import MIB
from tests.conftest import dev_metrics, inject_rx


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


class TestBlockDevice:
    def test_write_then_read_roundtrip(self, env):
        pm, pic, sink = env
        disk = BlockDevice(pm, pic.line(1), DiskImage(), dev_metrics())
        payload = bytes(range(256)) * 2  # one sector
        pm.write_bytes(0x4000, payload)
        disk.port_write(BLK_SECTOR, 3)
        disk.port_write(BLK_COUNT, 1)
        disk.port_write(BLK_DMA, 0x4000)
        disk.port_write(BLK_CMD, CMD_WRITE)
        assert disk.port_read(BLK_STATUS) == STATUS_READY
        assert disk.data[3 * SECTOR_SIZE:4 * SECTOR_SIZE] == payload
        # read back to a different buffer
        disk.port_write(BLK_DMA, 0x5000)
        disk.port_write(BLK_CMD, CMD_READ)
        assert pm.read_bytes(0x5000, SECTOR_SIZE) == payload
        assert disk.reads == 1 and disk.writes == 1
        assert sink.count == 2  # one IRQ per completed command

    def test_multi_sector_transfer(self, env):
        pm, pic, _ = env
        disk = BlockDevice(pm, pic.line(1), DiskImage(), dev_metrics())
        data = b"AB" * (SECTOR_SIZE)  # two sectors worth
        pm.write_bytes(0x4000, data)
        disk.port_write(BLK_SECTOR, 0)
        disk.port_write(BLK_COUNT, 2)
        disk.port_write(BLK_DMA, 0x4000)
        disk.port_write(BLK_CMD, CMD_WRITE)
        assert disk.data[:2 * SECTOR_SIZE] == data
        assert disk.sectors_transferred == 2

    def test_out_of_range_sets_error_status(self, env):
        pm, pic, _ = env
        disk = BlockDevice(pm, pic.line(1), DiskImage(), dev_metrics())
        disk.port_write(BLK_SECTOR, 2047)
        disk.port_write(BLK_COUNT, 2)  # runs past the end
        disk.port_write(BLK_DMA, 0x4000)
        disk.port_write(BLK_CMD, CMD_READ)
        assert disk.port_read(BLK_STATUS) == STATUS_ERROR

    def test_bad_command_is_error(self, env):
        pm, pic, _ = env
        disk = BlockDevice(pm, pic.line(1), DiskImage(), dev_metrics())
        disk.port_write(BLK_COUNT, 1)
        disk.port_write(BLK_CMD, 99)
        assert disk.port_read(BLK_STATUS) == STATUS_ERROR

    def test_capacity_port(self, env):
        pm, pic, _ = env
        disk = BlockDevice(pm, pic.line(1), DiskImage(), dev_metrics())
        assert disk.port_read(BLK_NSECT) == 2048

    def test_load_image(self, env):
        pm, pic, _ = env
        disk = BlockDevice(pm, pic.line(1), DiskImage(), dev_metrics())
        disk.data[SECTOR_SIZE:SECTOR_SIZE + 4] = b"boot"
        assert disk.data[SECTOR_SIZE:2 * SECTOR_SIZE][:4] == b"boot"
        with pytest.raises(DeviceError):  # larger than the disk
            disk.data[:2049 * SECTOR_SIZE] = b"x" * (2049 * SECTOR_SIZE)


class TestNetDevice:
    def test_transmit(self, env):
        pm, pic, _ = env
        nic = NetDevice(pm, pic.line(2), dev_metrics())
        sent = nic.sent
        pm.write_bytes(0x4000, b"hello frame")
        nic.port_write(NET_TX_ADDR, 0x4000)
        nic.port_write(NET_TX_LEN, 11)
        nic.port_write(NET_TX_CMD, 1)
        assert list(sent) == [b"hello frame"]
        assert nic.tx_frames == 1 and nic.tx_bytes == 11

    def test_receive_path(self, env):
        pm, pic, sink = env
        nic = NetDevice(pm, pic.line(2), dev_metrics())
        inject_rx(nic, b"incoming")
        assert sink.count == 1
        assert nic.port_read(NET_STATUS) & 2  # rx waiting
        nic.port_write(NET_RX_ADDR, 0x6000)
        nic.port_write(NET_RX_CMD, 1)
        assert nic.port_read(NET_RX_LEN) == 8
        assert pm.read_bytes(0x6000, 8) == b"incoming"
        assert not nic.port_read(NET_STATUS) & 2

    def test_rx_pop_when_empty(self, env):
        pm, pic, _ = env
        nic = NetDevice(pm, pic.line(2), dev_metrics())
        nic.port_write(NET_RX_ADDR, 0x6000)
        nic.port_write(NET_RX_CMD, 1)
        assert nic.port_read(NET_RX_LEN) == 0

    def test_oversize_frames_rejected(self, env):
        pm, pic, _ = env
        nic = NetDevice(pm, pic.line(2), dev_metrics())
        with pytest.raises(DeviceError):
            nic.port_write(NET_TX_LEN, 10000)
