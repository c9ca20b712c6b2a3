"""Interpreter semantics: ALU, memory, control flow, cycle accounting."""

import pytest

from repro.cpu.assembler import Assembler
from repro.cpu.interp import CPUCore, StopReason
from repro.cpu.isa import Cause
from repro.cpu.mmu import BareMMU
from repro.mem.costs import CostModel
from repro.mem.physmem import PhysicalMemory
from repro.util.errors import GuestError
from repro.util.units import MIB


def run_program(src, *, steps=100_000, setup=None, costs=None):
    prog = Assembler().assemble(".org 0x1000\n" + src)
    pm = PhysicalMemory(1 * MIB)
    prog.load(pm)
    cpu = CPUCore(BareMMU(pm, costs or CostModel()))
    cpu.reset(0x1000)
    cpu.regs[13] = 0x80000  # sp
    if setup:
        setup(cpu, pm)
    result = cpu.run(max_instructions=steps)
    return cpu, pm, result


class TestALU:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 3, 4, 7),
        ("add", 0xFFFFFFFF, 1, 0),  # wraparound
        ("sub", 3, 5, 0xFFFFFFFE),
        ("mul", 7, 6, 42),
        ("mul", 0x10000, 0x10000, 0),  # overflow wraps
        ("divu", 42, 5, 8),
        ("remu", 42, 5, 2),
        ("and", 0xF0F0, 0x0FF0, 0x00F0),
        ("or", 0xF000, 0x000F, 0xF00F),
        ("xor", 0xFF, 0x0F, 0xF0),
        ("shl", 1, 5, 32),
        ("shl", 1, 33, 2),  # shift amount masked to 5 bits
        ("shr", 0x80000000, 31, 1),
        ("sar", 0x80000000, 31, 0xFFFFFFFF),  # arithmetic
        ("slt", 0xFFFFFFFF, 0, 1),  # -1 < 0 signed
        ("sltu", 0xFFFFFFFF, 0, 0),  # max > 0 unsigned
    ])
    def test_binary_op(self, op, a, b, expected):
        cpu, _, _ = run_program(f"""
    li a0, {a}
    li a1, {b}
    {op} a2, a0, a1
    hlt
""")
        assert cpu.regs[3] == expected

    def test_r0_is_hardwired_zero(self):
        cpu, _, _ = run_program("""
    li zero, 99
    add a0, zero, 5
    hlt
""")
        assert cpu.regs[0] == 0
        assert cpu.regs[1] == 5

    def test_divide_by_zero_traps(self):
        cpu, _, _ = run_program("""
    li a0, trap
    csrw VBAR, a0
    li a0, 10
    divu a1, a0, zero
    hlt
trap:
    csrr a2, ECAUSE
    hlt
""")
        assert cpu.regs[3] == int(Cause.DIV0)

    def test_mov_and_movi(self):
        cpu, _, _ = run_program("""
    li a0, 0xABCD
    mov a1, a0
    hlt
""")
        assert cpu.regs[2] == 0xABCD


class TestMemory:
    def test_word_load_store(self):
        cpu, pm, _ = run_program("""
    li a0, 0x20000
    li a1, 0xCAFED00D
    st [a0+4], a1
    ld a2, [a0+4]
    hlt
""")
        assert cpu.regs[3] == 0xCAFED00D
        assert pm.read_u32(0x20004) == 0xCAFED00D

    def test_byte_load_store(self):
        cpu, pm, _ = run_program("""
    li a0, 0x20000
    li a1, 0x1AB
    stb [a0+0], a1
    ldb a2, [a0+0]
    hlt
""")
        assert cpu.regs[3] == 0xAB
        assert pm.read_u8(0x20000) == 0xAB

    def test_negative_displacement(self):
        cpu, _, _ = run_program("""
    li a0, 0x20010
    li a1, 7
    st [a0-16], a1
    ld a2, [a0-16]
    hlt
""")
        assert cpu.regs[3] == 7


class TestControlFlow:
    def test_call_and_return(self):
        cpu, _, _ = run_program("""
    call f
    li a1, 2
    hlt
f:
    li a0, 1
    ret
""")
        assert cpu.regs[1] == 1 and cpu.regs[2] == 2

    @pytest.mark.parametrize("br,a,b,taken", [
        ("beq", 5, 5, True), ("beq", 5, 6, False),
        ("bne", 5, 6, True), ("bne", 5, 5, False),
        ("blt", 0xFFFFFFFF, 0, True),   # signed -1 < 0
        ("blt", 1, 0, False),
        ("bge", 0, 0xFFFFFFFF, True),   # 0 >= -1 signed
        ("bltu", 1, 2, True),
        ("bltu", 0xFFFFFFFF, 0, False),
        ("bgeu", 0xFFFFFFFF, 0, True),
    ])
    def test_branches(self, br, a, b, taken):
        cpu, _, _ = run_program(f"""
    li a0, {a}
    li a1, {b}
    {br} a0, a1, yes
    li a2, 0
    hlt
yes:
    li a2, 1
    hlt
""")
        assert cpu.regs[3] == (1 if taken else 0)

    def test_jalr_indirect(self):
        cpu, _, _ = run_program("""
    li a0, target
    jalr lr, a0
    hlt
target:
    li a1, 9
    jalr zero, lr
""")
        assert cpu.regs[2] == 9

    def test_loop_instruction_count(self):
        cpu, _, result = run_program("""
    li a0, 100
loop:
    sub a0, a0, 1
    bnez a0, loop
    hlt
""")
        # 2 li-equivalents? one li + 100*(sub+bne) + hlt
        assert result.instructions == 1 + 200 + 1


class TestRunLoop:
    def test_halt_stops(self):
        _, _, result = run_program("hlt\n")
        assert result.stop is StopReason.HALT

    def test_instruction_limit(self):
        _, _, result = run_program("loop: jmp loop\n", steps=50)
        assert result.stop is StopReason.INSTR_LIMIT
        assert result.instructions == 50

    def test_cycle_limit(self):
        prog = Assembler().assemble(".org 0x1000\nloop: jmp loop\n")
        pm = PhysicalMemory(1 * MIB)
        prog.load(pm)
        cpu = CPUCore(BareMMU(pm, CostModel()))
        cpu.reset(0x1000)
        result = cpu.run(max_cycles=100)
        assert result.stop is StopReason.CYCLE_LIMIT
        assert result.cycles >= 100

    def test_cycles_accumulate(self):
        costs = CostModel()
        cpu, _, result = run_program("""
    li a0, 1
    li a1, 2
    mul a2, a0, a1
    hlt
""", costs=costs)
        expected = 4 * costs.instr_cycles + costs.mul_extra_cycles
        assert result.cycles == expected


class TestTriplefault:
    def test_trap_without_vector_is_fatal(self):
        with pytest.raises(GuestError, match="triple fault"):
            run_program("syscall 0\nhlt\n")

    def test_unfetchable_vector_is_fatal_not_a_hang(self):
        # Point PTBR at all-zero memory: the next fetch page-faults, and
        # so does every fetch of the vector the trap would re-enter.
        # Before the vector-fetch check this looped forever inside run()
        # with instret frozen, so max_instructions never bound it.
        src = """
    li a0, vec
    csrw VBAR, a0
    li a1, 0x80000
    csrw PTBR, a1
    hlt
vec:
    iret
"""
        with pytest.raises(GuestError, match="triple fault"):
            run_program(src, steps=1_000)

    def test_unfetchable_vector_identical_on_both_engines(self):
        src = ".org 0x1000\nli a0, vec\ncsrw VBAR, a0\nli a1, 0x80000\ncsrw PTBR, a1\nhlt\nvec:\niret\n"
        states = []
        for jit in (False, True):
            prog = Assembler().assemble(src)
            pm = PhysicalMemory(1 * MIB)
            prog.load(pm)
            cpu = CPUCore(BareMMU(pm, CostModel()), jit=jit)
            cpu.reset(0x1000)
            with pytest.raises(GuestError, match="triple fault"):
                cpu.run(max_instructions=1_000)
            states.append((cpu.cycles, cpu.instret, cpu.pc, tuple(cpu.regs),
                           tuple(cpu.csr)))
        assert states[0] == states[1]
