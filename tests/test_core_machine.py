"""Native machine: baseline semantics and device pump."""

from repro.core.machine import Machine, MachineOutcome
from repro.cpu.assembler import Assembler
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
    assert machine.block.data.read_sectors(0, 1)[:4] == bytes.fromhex("44332211")
