"""Device models: bus, PIC, timer, console, power."""

import pytest

from repro.cpu.interp import CPUCore
from repro.cpu.isa import Cause
from repro.cpu.mmu import BareMMU
from repro.devices.bus import PortBus, PortDevice
from repro.devices.console import CONS_STATUS, CONS_TX, ConsoleDevice
from repro.devices.irq import (
    IRQ_CONSOLE_LINE,
    IRQ_TIMER_LINE,
    InterruptController,
    PIC_STATUS,
)
from repro.devices.power import POWER_BASE, PowerControl
from repro.devices.timer import (
    MODE_PERIODIC,
    TIMER_CTRL,
    TIMER_PERIOD,
    TimerDevice,
)
from repro.mem.costs import CostModel
from repro.mem.physmem import PhysicalMemory
from repro.util.errors import DeviceError
from tests.conftest import dev_metrics


def bare_core():
    """A core with no board: what the timer and power latch are wired to."""
    return CPUCore(BareMMU(PhysicalMemory(4096), CostModel()))


class SinkStub:
    def __init__(self):
        self.irqs = []

    def assert_irq(self, cause):
        self.irqs.append(cause)


class TestPortBus:
    def test_routing(self):
        class Echo(PortDevice):
            def __init__(self):
                self.last = None

            def port_read(self, port):
                return port * 2

            def port_write(self, port, value):
                self.last = (port, value)

        bus = PortBus()
        dev = Echo()
        bus.register(dev, 0x10, 2)
        bus.io_out(0x11, 5)
        assert dev.last == (0x11, 5)
        assert bus.io_in(0x10) == 0x20
        assert bus.reads == 1 and bus.writes == 1

    def test_unclaimed_port_open_bus(self):
        bus = PortBus()
        assert bus.io_in(0x99) == 0
        bus.io_out(0x99, 1)  # discarded

    def test_overlapping_registration_rejected(self):
        bus = PortBus()
        bus.register(PortDevice(), 0x10, 4)
        with pytest.raises(DeviceError):
            bus.register(PortDevice(), 0x12, 1)

    def test_base_device_rejects_everything(self):
        dev = PortDevice()
        with pytest.raises(DeviceError):
            dev.port_read(0)
        with pytest.raises(DeviceError):
            dev.port_write(0, 1)


class TestInterruptController:
    def test_line_zero_is_timer_cause(self):
        sink = SinkStub()
        pic = InterruptController(sink, dev_metrics())
        pic.raise_line(0)
        pic.raise_line(3)
        assert sink.irqs == [Cause.IRQ_TIMER, Cause.IRQ_DEVICE]

    def test_status_port_and_ack(self):
        pic = InterruptController(SinkStub(), dev_metrics())
        pic.raise_line(1)
        pic.raise_line(4)
        assert pic.port_read(PIC_STATUS) == (1 << 1) | (1 << 4)
        pic.port_write(PIC_STATUS, 1 << 1)  # ack line 1
        assert pic.port_read(PIC_STATUS) == 1 << 4
        assert pic.highest_pending() == 4

    def test_line_bounds(self):
        pic = InterruptController(None, dev_metrics())
        with pytest.raises(DeviceError):
            pic.raise_line(16)
        with pytest.raises(DeviceError):
            pic.line(-1)

    def test_irqline_handle(self):
        sink = SinkStub()
        pic = InterruptController(sink, dev_metrics())
        line = pic.line(IRQ_TIMER_LINE)
        line.raise_()
        assert pic.pending[0]


class TestTimer:
    def _timer(self):
        pic = InterruptController(SinkStub(), dev_metrics())
        core = bare_core()
        core.timer = TimerDevice(pic.line(0), dev_metrics(), core)  # attach_board's wiring
        return core.timer, pic

    def test_oneshot_fires_once(self):
        timer, pic = self._timer()
        timer.program(100, periodic=False, now_cycles=0)
        assert timer.tick(50) == 0
        assert timer.tick(100) == 1
        assert timer.tick(500) == 0
        assert timer.expirations == 1

    def test_periodic_catches_up(self):
        timer, pic = self._timer()
        timer.program(100, periodic=True, now_cycles=0)
        assert timer.tick(350) == 3  # 100, 200, 300 all elapsed
        assert timer.deadline == 400

    def test_port_interface_arms_from_the_core_cycles(self):
        timer, pic = self._timer()
        timer.core.cycles = 1000
        timer.port_write(TIMER_PERIOD, 200)
        timer.port_write(TIMER_CTRL, MODE_PERIODIC)
        assert timer.deadline == 1200
        assert timer.port_read(TIMER_CTRL) == 1

    def test_the_deadline_is_the_core_cycle_stop(self):
        timer, _ = self._timer()
        core = timer.core
        timer.program(300, periodic=True, now_cycles=100)
        assert core._cycle_stop == 400
        timer.tick(400)
        assert core._cycle_stop == 700
        timer.disarm()
        assert core._cycle_stop == core._cycle_limit

    def test_arming_without_period_rejected(self):
        timer, _ = self._timer()
        with pytest.raises(DeviceError):
            timer.port_write(TIMER_CTRL, MODE_PERIODIC)

    def test_disarm(self):
        timer, _ = self._timer()
        timer.program(10, periodic=True, now_cycles=0)
        timer.disarm()
        assert timer.tick(100) == 0


def _console():
    return ConsoleDevice(
        InterruptController(None, dev_metrics()).line(IRQ_CONSOLE_LINE))


class TestConsole:
    def test_captures_text(self):
        console = _console()
        for ch in b"ok\n":
            console.port_write(CONS_TX, ch)
        assert console.text == "ok\n"
        assert console.lines() == ["ok"]
        assert console.port_read(CONS_STATUS) == 1

    def test_capacity_bound(self):
        console = _console()
        console.capacity = 2
        for ch in b"abcd":
            console.port_write(CONS_TX, ch)
        assert console.text == "ab"
        assert console.chars_written == 4

    def test_clear(self):
        console = _console()
        console.port_write(CONS_TX, ord("x"))
        console.clear()
        assert console.text == ""


class TestPower:
    def test_latch(self):
        power = PowerControl(bare_core())
        assert power.port_read(POWER_BASE) == 0
        power.port_write(POWER_BASE, 3)
        assert power.shutdown_requested and power.code == 3
        assert power.port_read(POWER_BASE) == 1

    def test_zero_write_ignored(self):
        power = PowerControl(bare_core())
        power.port_write(POWER_BASE, 0)
        assert not power.shutdown_requested
