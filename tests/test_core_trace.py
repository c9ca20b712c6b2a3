"""Hypervisor exit tracing into a bounded deque."""

from collections import deque

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.cpu.assembler import Assembler
from repro.util.units import MIB


def test_exits_are_traced_with_details():
    hv = Hypervisor(memory_bytes=64 * MIB)
    hv.trace = deque(maxlen=1000)
    vm = hv.create_vm(GuestConfig(name="t", memory_bytes=16 * MIB,
                                  virt_mode=VirtMode.HW_ASSIST,
                                  mmu_mode=MMUVirtMode.NESTED))
    prog = Assembler().assemble("""
.org 0x1000
    li a0, 88
    out 0x10, a0
    li a0, 1
    out 0xf0, a0
    hlt
""")
    hv.load_program(vm, prog)
    hv.reset_vcpu(vm, 0x1000)
    hv.run(vm, max_guest_instructions=1000)

    assert len(hv.trace) == vm.exit_stats.total_exits
    console_writes = [e for e in hv.trace if e[3] == "port_0x10"]
    assert len(console_writes) == 1
    _time, reason, name, _detail, pc, cycles = console_writes[0]
    assert (reason, name) == ("io_out", "t")
    assert pc == 0x1000 + 8 + 4  # past the 8-byte li and the out
    assert cycles > 0
    # Times are monotone non-decreasing.
    times = [e[0] for e in hv.trace]
    assert times == sorted(times)


def test_trace_keeps_only_the_tail():
    hv = Hypervisor(memory_bytes=64 * MIB)
    hv.trace = deque(maxlen=2)
    vm = hv.create_vm(GuestConfig(name="t", memory_bytes=16 * MIB,
                                  virt_mode=VirtMode.HW_ASSIST,
                                  mmu_mode=MMUVirtMode.NESTED))
    prog = Assembler().assemble("""
.org 0x1000
    out 0x10, a0
    out 0x10, a0
    out 0x10, a0
    hlt
""")
    hv.load_program(vm, prog)
    hv.reset_vcpu(vm, 0x1000)
    hv.run(vm, max_guest_instructions=1000)
    assert vm.exit_stats.total_exits == 4
    assert [e[3] for e in hv.trace] == ["port_0x10", "hlt"]


def test_tracing_disabled_by_default():
    hv = Hypervisor(memory_bytes=64 * MIB)
    assert hv.trace is None
