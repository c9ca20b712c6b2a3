"""Property-based CPU tests: ALU oracle, disasm/asm fuzz, determinism."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import jit as jitmod
from repro.cpu.assembler import Assembler
from repro.cpu.disasm import disassemble_one
from repro.cpu.interp import CPUCore
from repro.cpu.isa import CSR, Op, encode
from repro.cpu.mmu import BareMMU
from repro.mem.costs import CostModel
from repro.mem.physmem import PhysicalMemory
from repro.util.units import MIB

_U32 = 0xFFFFFFFF


def _signed(v):
    v &= _U32
    return v - (1 << 32) if v & 0x80000000 else v


#: Python oracle for each ALU operation and each branch condition,
#: written independently of ``repro.cpu.isa.OPS``.
_ORACLE = {
    Op.ADD: lambda a, b: (a + b) & _U32,
    Op.SUB: lambda a, b: (a - b) & _U32,
    Op.MUL: lambda a, b: (a * b) & _U32,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: (a << (b & 31)) & _U32,
    Op.SHR: lambda a, b: a >> (b & 31),
    Op.SAR: lambda a, b: (_signed(a) >> (b & 31)) & _U32,
    Op.SLT: lambda a, b: int(_signed(a) < _signed(b)),
    Op.SLTU: lambda a, b: int(a < b),
    Op.DIVU: lambda a, b: (a // b) & _U32 if b else None,
    Op.REMU: lambda a, b: (a % b) & _U32 if b else None,
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: _signed(a) < _signed(b),
    Op.BGE: lambda a, b: _signed(a) >= _signed(b),
    Op.BLTU: lambda a, b: a < b,
    Op.BGEU: lambda a, b: a >= b,
}
_BRANCHES = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU})
_ALU = sorted(set(_ORACLE) - _BRANCHES)

#: Where signed and unsigned order disagree.
_SIGN_EDGES = (0, 1, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFF)


def fresh_cpu():
    pm = PhysicalMemory(1 * MIB)
    cpu = CPUCore(BareMMU(pm, CostModel()))
    cpu.reset(0x1000)
    return cpu, pm


def _result(op, a, b, compiled, imm_form=False):
    """Execute one ``op`` on (a, b) -- by ``step()`` or inside a compiled
    block -- and return what it computed: rd for an ALU op, taken or not
    for a branch."""
    cpu, pm = fresh_cpu()
    if op in _BRANCHES:
        code = encode(op, ra=1, rb=2, imm32=0x2000)
    elif imm_form:
        code = encode(op, rd=3, ra=1, imm32=b)
    else:
        code = encode(op, rd=3, ra=1, rb=2)
    pm.write_bytes(0x1000, code + encode(Op.HLT))
    pm.write_bytes(0x2000, encode(Op.HLT))
    cpu.regs[1], cpu.regs[2] = a, b
    if compiled:
        with mock.patch.object(jitmod, "HOT", 1):
            cpu.run(max_instructions=8)
        # The op and its closing HLT are one block; a branch ends its
        # own, and the HLT it reaches is a second.
        assert cpu.jit_stats()["blocks_compiled"] == (
            2 if op in _BRANCHES else 1)
        assert cpu.halted
        taken = cpu.pc == 0x2004
    else:
        cpu.step()
        taken = cpu.pc == 0x2000
    return taken if op in _BRANCHES else cpu.regs[3]


class TestALUOracle:
    @pytest.mark.parametrize("op", sorted(_ORACLE), ids=lambda op: op.name)
    def test_sign_boundaries_in_both_engines(self, op):
        for a in _SIGN_EDGES:
            for b in _SIGN_EDGES:
                expected = _ORACLE[op](a, b)
                if expected is None:
                    continue  # division by zero traps; covered elsewhere
                for compiled in (False, True):
                    assert _result(op, a, b, compiled) == expected, (
                        f"{op.name}({a:#x}, {b:#x}) compiled={compiled}")

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(sorted(_ORACLE)),
        st.integers(min_value=0, max_value=_U32),
        st.integers(min_value=0, max_value=_U32),
        st.booleans(),
    )
    def test_compiled_block_matches_oracle(self, op, a, b, imm_form):
        expected = _ORACLE[op](a, b)
        if expected is None:
            return
        assert _result(op, a, b, True, imm_form) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(sorted(_BRANCHES)),
        st.integers(min_value=0, max_value=_U32),
        st.integers(min_value=0, max_value=_U32),
    )
    def test_branch_matches_oracle(self, op, a, b):
        assert _result(op, a, b, False) == _ORACLE[op](a, b)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(_ALU),
        st.integers(min_value=0, max_value=_U32),
        st.integers(min_value=0, max_value=_U32),
    )
    def test_register_form_matches_oracle(self, op, a, b):
        expected = _ORACLE[op](a, b)
        if expected is None:
            return  # division by zero traps; covered elsewhere
        cpu, pm = fresh_cpu()
        pm.write_bytes(0x1000, encode(op, rd=3, ra=1, rb=2))
        cpu.regs[1], cpu.regs[2] = a, b
        cpu.step()
        assert cpu.regs[3] == expected
        assert cpu.pc == 0x1004

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(_ALU),
        st.integers(min_value=0, max_value=_U32),
        st.integers(min_value=0, max_value=_U32),
    )
    def test_immediate_form_matches_register_form(self, op, a, imm):
        if _ORACLE[op](a, imm) is None:
            return
        cpu, pm = fresh_cpu()
        pm.write_bytes(0x1000, encode(op, rd=3, ra=1, imm32=imm))
        cpu.regs[1] = a
        cpu.step()
        assert cpu.regs[3] == _ORACLE[op](a, imm)
        assert cpu.pc == 0x1008  # two-word instruction

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=_U32),
           st.integers(min_value=0, max_value=_U32))
    def test_branch_consistency_with_slt(self, a, b):
        # BLT taken  <=>  SLT == 1, for all operand pairs.
        cpu, pm = fresh_cpu()
        pm.write_bytes(0x1000, encode(Op.SLT, rd=3, ra=1, rb=2))
        pm.write_bytes(0x1004, encode(Op.BLT, ra=1, rb=2, imm32=0x2000))
        cpu.regs[1], cpu.regs[2] = a, b
        cpu.step()
        cpu.step()
        taken = cpu.pc == 0x2000
        assert taken == bool(cpu.regs[3])


# Instruction generators that zero every architecturally-unused field,
# so a disassemble -> reassemble round trip must be byte-identical.
_REG = st.integers(min_value=0, max_value=15)
_IMM32 = st.integers(min_value=0, max_value=_U32)
_DISP = st.integers(min_value=-2048, max_value=2047)
_PORT = st.integers(min_value=0, max_value=0xFF)
_CSRNUM = st.sampled_from([int(c) for c in CSR])


def _alu_ins(draw):
    op = draw(st.sampled_from([Op.ADD, Op.SUB, Op.MUL, Op.DIVU, Op.REMU,
                               Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR,
                               Op.SAR, Op.SLT, Op.SLTU]))
    if draw(st.booleans()):
        return encode(op, rd=draw(_REG), ra=draw(_REG), imm32=draw(_IMM32))
    return encode(op, rd=draw(_REG), ra=draw(_REG), rb=draw(_REG))


@st.composite
def any_instruction(draw):
    kind = draw(st.sampled_from(
        ["alu", "mov", "movi", "ld", "st", "jal", "jalr", "branch",
         "syscall", "vmcall", "csrr", "csrw", "out", "in", "invlpg",
         "bare"]))
    if kind == "alu":
        return _alu_ins(draw)
    if kind == "mov":
        return encode(Op.MOV, rd=draw(_REG), ra=draw(_REG))
    if kind == "movi":
        return encode(Op.MOVI, rd=draw(_REG), imm32=draw(_IMM32))
    if kind == "ld":
        op = draw(st.sampled_from([Op.LD, Op.LDB]))
        return encode(op, rd=draw(_REG), ra=draw(_REG), simm12=draw(_DISP))
    if kind == "st":
        op = draw(st.sampled_from([Op.ST, Op.STB]))
        return encode(op, ra=draw(_REG), rb=draw(_REG), simm12=draw(_DISP))
    if kind == "jal":
        return encode(Op.JAL, rd=draw(_REG), imm32=draw(_IMM32))
    if kind == "jalr":
        return encode(Op.JALR, rd=draw(_REG), ra=draw(_REG))
    if kind == "branch":
        op = draw(st.sampled_from([Op.BEQ, Op.BNE, Op.BLT, Op.BGE,
                                   Op.BLTU, Op.BGEU]))
        return encode(op, ra=draw(_REG), rb=draw(_REG), imm32=draw(_IMM32))
    if kind == "syscall":
        return encode(Op.SYSCALL, simm12=draw(st.integers(0, 2047)))
    if kind == "vmcall":
        return encode(Op.VMCALL, simm12=draw(st.integers(0, 2047)))
    if kind == "csrr":
        return encode(Op.CSRR, rd=draw(_REG), simm12=draw(_CSRNUM))
    if kind == "csrw":
        return encode(Op.CSRW, ra=draw(_REG), simm12=draw(_CSRNUM))
    if kind == "out":
        return encode(Op.OUT, ra=draw(_REG), simm12=draw(_PORT))
    if kind == "in":
        return encode(Op.IN, rd=draw(_REG), simm12=draw(_PORT))
    if kind == "invlpg":
        return encode(Op.INVLPG, ra=draw(_REG))
    op = draw(st.sampled_from([Op.NOP, Op.IRET, Op.HLT, Op.STI, Op.CLI,
                               Op.BRK]))
    return encode(op)


class TestRoundTripFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(any_instruction(), min_size=1, max_size=12))
    def test_disassemble_reassemble_identity(self, chunks):
        image = b"".join(chunks)
        lines = []
        offset = 0
        while offset < len(image):
            text, length = disassemble_one(image, offset)
            lines.append(text)
            offset += length
        source = ".org 0x1000\n" + "\n".join(lines) + "\n"
        reassembled = Assembler().assemble(source)
        assert reassembled.data == image


class TestDeterminism:
    def test_identical_runs_identical_state(self):
        src = """
.org 0x1000
    li a0, vec
    csrw VBAR, a0
    li s0, 500
loop:
    mul t0, s0, 17
    st [sp+0], t0
    syscall 3
    sub s0, s0, 1
    bnez s0, loop
    hlt
vec:
    csrr t1, EVAL
    iret
"""
        def run():
            prog = Assembler().assemble(src)
            pm = PhysicalMemory(1 * MIB)
            prog.load(pm)
            cpu = CPUCore(BareMMU(pm, CostModel()))
            cpu.reset(0x1000)
            cpu.regs[13] = 0x80000
            cpu.run(max_instructions=100_000)
            return (cpu.cycles, cpu.instret, tuple(cpu.regs), cpu.pc)

        assert run() == run()


# ---------------------------------------------------------------------------
# Differential fuzz: reference interpreter vs closure-compiled blocks.
#
# Cases come from the shared ``repro.fuzz`` directed-random generator --
# the same generator and corpus format `python -m repro fuzz` uses -- under
# pinned seeds, so a failure here replays exactly as
# ``run_bare(build_image(generate_case(seed, index)), jit=...)``.
# ---------------------------------------------------------------------------

from repro.fuzz import gen as fuzz_gen
from repro.fuzz.corpus import entry_spec, make_entry
from repro.fuzz.diff import compare_bare, run_bare

_PINNED_CASES = [(101, i) for i in range(12)] + [(202, i) for i in range(12)]


class TestJITDifferential:
    """Directed-random guest programs must behave bit-identically with
    the block compiler on and off: regs, CSRs, cycles, instret, pc, the
    TLB/walker statistics, and all of physical memory."""

    @pytest.mark.parametrize("root_seed,case_index", _PINNED_CASES)
    def test_fuzz_case_differential(self, root_seed, case_index):
        spec = fuzz_gen.generate_case(root_seed, case_index)
        segments = fuzz_gen.build_image(spec)
        ref = run_bare(segments, jit=False)
        jit = run_bare(segments, jit=True)
        mismatched = compare_bare(ref, jit)
        assert mismatched == [], (
            f"interp vs jit diverged on {mismatched} "
            f"(seed={root_seed} case={case_index} "
            f"templates={spec.template_counts})"
        )

    def test_generated_cases_cover_templates(self):
        # The pinned set must actually exercise the interesting
        # templates, or the differential above tests very little.
        seen = set()
        for root_seed, case_index in _PINNED_CASES:
            spec = fuzz_gen.generate_case(root_seed, case_index)
            seen.update(spec.template_counts)
        for name in ("smc_loop", "store_wild", "branch", "syscall"):
            assert name in seen

    def test_corpus_format_round_trip(self):
        # The corpus entry format used by the fuzz CLI is the same one
        # these tests consume: identity -> layout, cells -> image.
        spec = fuzz_gen.generate_case(303, 0)
        entry = make_entry(303, 0, spec.cells, {"bug": None},
                           {"kind": "ok"})
        again = entry_spec(entry)
        assert again.cells == spec.cells
        assert fuzz_gen.build_image(again) == fuzz_gen.build_image(spec)
