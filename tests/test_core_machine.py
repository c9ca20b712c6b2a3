"""Native machine: baseline semantics and device pump."""

import signal

from repro.core import GuestConfig, Hypervisor
from repro.core.hypervisor import RunOutcome
from repro.core.machine import Machine, MachineOutcome
from repro.cpu.assembler import Assembler
from repro.devices.irq import IRQ_CONSOLE_LINE
from repro.mem.physmem import ZERO_PAGE
from repro.util.units import MIB


def run_native(src, max_instructions=100_000):
    machine = Machine(memory_bytes=16 * MIB)
    prog = Assembler().assemble(".org 0x1000\n" + src)
    machine.load_program(prog)
    machine.cpu.reset(0x1000)
    outcome = machine.run(max_instructions=max_instructions)
    return machine, outcome


def test_shutdown_outcome():
    machine, outcome = run_native("""
    li a0, 1
    out 0xf0, a0
    hlt
""")
    assert outcome is MachineOutcome.SHUTDOWN


def test_halted_outcome_without_wakeups():
    _, outcome = run_native("    hlt\n")
    assert outcome is MachineOutcome.HALTED


def test_a_dead_halt_is_halted_natively_and_in_a_vm():
    """A core halted with IE clear cannot be woken by a pending PIC line:
    ``Machine.run`` returns HALTED, as the hw-nested VM's run does, and
    does not spin (an alarm bounds the test if it does)."""

    def spun(_signum, _frame):
        raise TimeoutError("run() spun on a halt nothing can wake")

    program = Assembler().assemble(".org 0x1000\n    hlt\n")
    previous = signal.signal(signal.SIGALRM, spun)
    signal.alarm(20)
    try:
        machine = Machine(memory_bytes=16 * MIB)
        machine.load_program(program)
        machine.cpu.reset(0x1000)
        machine.pic.raise_line(1)
        native = machine.run(max_instructions=100_000)
        hv = Hypervisor(memory_bytes=32 * MIB)
        vm = hv.create_vm(GuestConfig(memory_bytes=16 * MIB))
        hv.load_program(vm, program)
        hv.reset_vcpu(vm, 0x1000)
        vm.pic.raise_line(1)
        nested = hv.run(vm, max_guest_instructions=100_000)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert native is MachineOutcome.HALTED and nested is RunOutcome.HALTED
    assert machine.cpu.instret == vm.vcpus[0].cpu.instret == 1


def test_instruction_limit_outcome():
    _, outcome = run_native("loop: jmp loop\n", max_instructions=2000)
    assert outcome is MachineOutcome.INSTR_LIMIT


def test_console_output_native():
    machine, _ = run_native("""
    li a0, 79
    out 0x10, a0
    li a0, 75
    out 0x10, a0
    li a0, 1
    out 0xf0, a0
    hlt
""")
    assert machine.console.text == "OK"


def test_timer_interrupt_native():
    machine, outcome = run_native("""
    li a0, vec
    csrw VBAR, a0
    li t0, 2000
    out 0x40, t0
    li t0, 2
    out 0x41, t0         ; periodic
    sti
    li s0, 0
wait:
    li t0, 3
    bltu s0, t0, wait    ; spin until 3 ticks observed
    li a0, 1
    out 0xf0, a0
    hlt
vec:
    add s0, s0, 1
    in t1, 0x20
    out 0x20, t1
    iret
""")
    assert outcome is MachineOutcome.SHUTDOWN
    assert machine.timer.expirations >= 3
    assert machine.cpu.regs[9] >= 3


def test_idle_fast_forward_to_timer():
    machine, outcome = run_native("""
    li a0, vec
    csrw VBAR, a0
    li t0, 1000000
    out 0x40, t0
    li t0, 1
    out 0x41, t0
    sti
    hlt
    li a0, 1
    out 0xf0, a0
    hlt
vec:
    in t1, 0x20
    out 0x20, t1
    iret
""", max_instructions=5000)
    # The million-cycle sleep must not burn a million instructions.
    assert outcome is MachineOutcome.SHUTDOWN
    assert machine.cpu.cycles >= 1_000_000
    assert machine.cpu.instret < 5000


def test_block_device_dma_native():
    machine, _ = run_native("""
    li a0, 0x20000
    li a1, 0x11223344
    st [a0+0], a1
    out 0x52, a0         ; DMA address
    li a1, 0
    out 0x50, a1         ; sector 0
    li a1, 1
    out 0x51, a1         ; one sector
    li a1, 2
    out 0x53, a1         ; write command
    li a0, 1
    out 0xf0, a0
    hlt
""")
    assert machine.block.data[:4] == bytes.fromhex("44332211")


def test_a_machine_and_a_default_vm_have_one_board():
    machine = Machine(memory_bytes=1 * MIB)
    vm = Hypervisor(memory_bytes=8 * MIB).create_vm(
        GuestConfig(memory_bytes=1 * MIB))

    def board(bus):
        """Each claimed port's device class; IN / OUT ports are 12 bits."""
        return {port: type(device) for port, device in bus.ports.items()
                if port < 1 << 12}

    assert board(machine.port_bus) == board(vm.port_bus)
    assert list(machine.devices) == list(vm.devices)
    assert machine.cpu.port_bus is machine.port_bus
    assert vm.vcpus[0].cpu.port_bus is vm.port_bus
    for pic, console in ((machine.pic, machine.console),
                         (vm.pic, vm.devices["console"])):
        assert (console.irq.controller, console.irq.line) == (pic, IRQ_CONSOLE_LINE)
        console.push_input(ord("k"))
        assert pic.pending[IRQ_CONSOLE_LINE]


def test_a_recycled_machine_is_at_power_on_on_its_ram_and_disks():
    machine, _ = run_native("""
    li a0, 0x20000
    li a1, 0x11223344
    st [a0+0], a1
    out 0x52, a0         ; DMA address
    li a1, 0
    out 0x50, a1         ; sector 0
    li a1, 1
    out 0x51, a1         ; one sector
    li a1, 2
    out 0x53, a1         ; write command
    li a0, 0x41
    out 0x10, a0
    li a0, 1
    out 0xf0, a0
    hlt
""")
    cpu, disk = machine.cpu, machine.block.data
    assert machine.console.text == "A" and any(disk)
    assert machine.recycle() is machine
    assert machine.cpu is not cpu and cpu.instret and not machine.cpu.instret
    assert machine.block.data is disk and not any(disk)
    assert machine.console.text == ""
    assert not machine.power.shutdown_requested
    # the core's write watcher went with it; the log stays
    assert len(machine.physmem._watchers) == 2
    assert all(machine.physmem.read_frame(pfn) == ZERO_PAGE
               for pfn in range(machine.physmem.num_frames))
