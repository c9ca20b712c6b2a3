"""Two-pass assembler."""

import pytest

from repro.cpu.assembler import Assembler, AssemblyError
from repro.cpu.disasm import disassemble_one
from repro.cpu.isa import Op, decode


def assemble(src):
    return Assembler().assemble(src)


def first_instruction(prog):
    word = int.from_bytes(prog.data[:4], "little")
    imm = int.from_bytes(prog.data[4:8], "little") if len(prog.data) >= 8 else 0
    return decode(word, imm)


class TestDirectives:
    def test_org_sets_base_and_labels(self):
        prog = assemble(".org 0x2000\nstart:\n    nop\n")
        assert prog.base == 0x2000
        assert prog.symbols["start"] == 0x2000
        assert prog.entry == 0x2000

    def test_org_must_come_first(self):
        with pytest.raises(AssemblyError):
            assemble("nop\n.org 0x100\n")

    def test_equ_constants(self):
        prog = assemble(".equ FOO, 0x42\n    li a0, FOO\n")
        ins = first_instruction(prog)
        assert ins.imm32 == 0x42

    def test_duplicate_equ_rejected(self):
        with pytest.raises(AssemblyError):
            assemble(".equ A, 1\n.equ A, 2\n")

    def test_word_and_space(self):
        prog = assemble(".word 0x11223344\n.space 4\n.word 1+2\n")
        assert prog.data[:4] == bytes.fromhex("44332211")
        assert prog.data[4:8] == b"\x00" * 4
        assert int.from_bytes(prog.data[8:12], "little") == 3

    def test_word_with_label(self):
        prog = assemble("target:\n    nop\n.word target\n")
        assert int.from_bytes(prog.data[4:8], "little") == 0

    def test_unknown_directive(self):
        with pytest.raises(AssemblyError):
            assemble(".bogus 1\n")


class TestInstructions:
    def test_alu_register_form(self):
        ins = first_instruction(assemble("add a0, a1, a2\n"))
        assert ins.op is Op.ADD and not ins.has_imm32
        assert (ins.rd, ins.ra, ins.rb) == (1, 2, 3)

    def test_alu_immediate_form(self):
        ins = first_instruction(assemble("add a0, a1, 100\n"))
        assert ins.has_imm32 and ins.imm32 == 100

    def test_negative_immediate(self):
        ins = first_instruction(assemble("add sp, sp, -8\n"))
        assert ins.imm32 == (-8) & 0xFFFFFFFF

    def test_load_store_displacement(self):
        ins = first_instruction(assemble("ld a0, [sp+12]\n"))
        assert ins.op is Op.LD and ins.simm12 == 12 and ins.ra == 13
        ins = first_instruction(assemble("st [sp-4], a0\n"))
        assert ins.op is Op.ST and ins.simm12 == -4 and ins.rb == 1

    def test_displacement_range_checked(self):
        with pytest.raises(AssemblyError):
            assemble("ld a0, [sp+5000]\n")

    def test_branch_targets_are_absolute(self):
        prog = assemble(".org 0x100\nloop:\n    nop\n    beq a0, a1, loop\n")
        word = int.from_bytes(prog.data[4:8], "little")
        imm = int.from_bytes(prog.data[8:12], "little")
        ins = decode(word, imm)
        assert ins.op is Op.BEQ and ins.imm32 == 0x100

    def test_forward_reference(self):
        prog = assemble("    jmp end\n    nop\nend:\n    nop\n")
        ins = first_instruction(prog)
        assert ins.op is Op.JAL and ins.imm32 == prog.base + 12

    def test_csr_by_name_and_number(self):
        ins = first_instruction(assemble("csrw PTBR, a0\n"))
        assert ins.op is Op.CSRW and ins.simm12 == 1
        ins = first_instruction(assemble("csrr a0, 5\n"))
        assert ins.op is Op.CSRR and ins.simm12 == 5

    def test_unknown_csr_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("csrr a0, NOPE\n")

    def test_io_ports(self):
        ins = first_instruction(assemble("out 0x40, a0\n"))
        assert ins.op is Op.OUT and ins.simm12 == 0x40 and ins.ra == 1
        ins = first_instruction(assemble("in a1, 0x41\n"))
        assert ins.op is Op.IN and ins.simm12 == 0x41 and ins.rd == 2

    def test_syscall_vmcall_numbers(self):
        assert first_instruction(assemble("syscall 7\n")).simm12 == 7
        assert first_instruction(assemble("vmcall 3\n")).simm12 == 3

    def test_equ_in_every_twelve_bit_position(self):
        equ = ".equ PORT, 0x40\n.equ NUM, 7\n.equ SCRATCH_NO, 7\n"
        for line, op, simm12 in (
            ("out PORT, a0", Op.OUT, 0x40),
            ("in a0, PORT+1", Op.IN, 0x41),
            ("syscall NUM", Op.SYSCALL, 7),
            ("vmcall NUM-1", Op.VMCALL, 6),
            ("csrw SCRATCH_NO, a0", Op.CSRW, 7),
            ("csrr a0, SCRATCH_NO", Op.CSRR, 7),
            ("ld a0, [sp+NUM]", Op.LD, 7),
        ):
            ins = first_instruction(assemble(equ + line + "\n"))
            assert (ins.op, ins.simm12) == (op, simm12), line

    def test_csr_name_wins_over_a_symbol(self):
        ins = first_instruction(assemble(".equ PTBR, 9\ncsrw PTBR, a0\n"))
        assert ins.simm12 == 1

    def test_directive_values_are_expressions(self):
        prog = assemble(".equ BASE, 0x2000\n.org BASE+0x10\n"
                        ".equ N, 4\n.space N+4\nend:\n")
        assert prog.base == 0x2010 and prog.symbols["end"] == 0x2018


class TestPseudoInstructions:
    def test_call_ret_jmp(self):
        prog = assemble("f:\n    ret\nmain:\n    call f\n    jmp main\n")
        # ret = jalr zero, lr
        ins = first_instruction(prog)
        assert ins.op is Op.JALR and ins.rd == 0 and ins.ra == 14

    def test_beqz_bnez(self):
        ins = first_instruction(assemble("x:\n    beqz a0, x\n"))
        assert ins.op is Op.BEQ and ins.rb == 0

    def test_push_pop_expand(self):
        prog = assemble("push a0\npop a1\n")
        # push = add sp,sp,-4 (8 bytes) + st (4); pop = ld (4) + add (8)
        assert prog.size == 24

    def test_li_alias(self):
        ins = first_instruction(assemble("li t0, 0xFFFFFFFF\n"))
        assert ins.op is Op.MOVI and ins.imm32 == 0xFFFFFFFF


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError):
            assemble("frobnicate a0\n")

    def test_undefined_symbol(self):
        with pytest.raises(AssemblyError):
            assemble("jmp nowhere\n")

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError):
            assemble("a:\n nop\na:\n nop\n")

    def test_bad_register(self):
        with pytest.raises(AssemblyError):
            assemble("add q0, a0, a1\n")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError):
            assemble("add a0, a1\n")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblyError) as info:
            assemble("nop\nbogus x\n")
        assert "line 2" in str(info.value)

    @pytest.mark.parametrize("bad", [
        "out foo, a0",
        "in a0, PORT",
        "syscall x",
        ".org zzz",
        ".space q",
        ".equ A, b",
        "out 5000, a0",
        "csrr a0, 4096",
    ])
    def test_bad_number_is_an_assembly_error_with_its_line(self, bad):
        # Every numeric operand goes through the expression resolver: no
        # host ValueError from a bare int().
        with pytest.raises(AssemblyError) as info:
            assemble("nop\n" + bad + "\n")
        assert "line 2" in str(info.value)

    @pytest.mark.parametrize("bad", ["ret a0", "push", "pop a0, a1",
                                     "jmp", "nop a0", "hlt 1"])
    def test_pseudo_and_bare_operand_counts_checked(self, bad):
        with pytest.raises(AssemblyError):
            assemble(bad + "\n")


class TestComments:
    def test_both_comment_styles(self):
        prog = assemble("nop ; trailing\n# full line\nnop # other\n")
        assert prog.size == 8

    def test_label_expressions(self):
        prog = assemble("base:\n    nop\n    li a0, base+8\n")
        word = int.from_bytes(prog.data[4:8], "little")
        imm = int.from_bytes(prog.data[8:12], "little")
        assert decode(word, imm).imm32 == prog.base + 8


@pytest.mark.parametrize("jit", [False, True])
def test_movi_without_the_immediate_flag_loads_zero(jit):
    # The assembler never emits it, but fuzz bodies reach this
    # encoding: MOVI reads the (absent) immediate word as 0, not rb.
    from repro.cpu.interp import CPUCore
    from repro.cpu.isa import encode
    from repro.cpu.mmu import BareMMU
    from repro.mem.costs import CostModel
    from repro.mem.physmem import PhysicalMemory
    from repro.util.units import MIB

    pm = PhysicalMemory(1 * MIB)
    # 40 laps so the loop block gets hot and really is compiled.
    pm.write_bytes(0x1000, assemble("""
        .org 0x1000
        li   s0, 40
    loop:
        li   a0, 0x55
        nop
        sub  s0, s0, 1
        bnez s0, loop
        hlt
    """).data)
    pm.write_bytes(0x1010, encode(Op.MOVI, rd=1, rb=2))  # over the nop
    cpu = CPUCore(BareMMU(pm, CostModel()), jit=jit)
    cpu.reset(0x1000)
    cpu.regs[2] = 0x77
    cpu.run(max_instructions=1000)
    assert cpu.halted and cpu.regs[1] == 0
    assert bool(cpu.jit_stats()["blocks_compiled"]) is jit


def test_load_into_physmem():
    from repro.mem.physmem import PhysicalMemory
    from repro.util.units import MIB

    prog = assemble(".org 0x1000\n    li a0, 7\n")
    pm = PhysicalMemory(1 * MIB)
    addr = prog.load(pm)
    assert addr == 0x1000
    assert pm.read_bytes(0x1000, prog.size) == prog.data


def test_disasm_roundtrip_of_assembled_program():
    src = """
.org 0x100
start:
    li   a0, 42
    add  a1, a0, 8
    ld   t0, [sp+4]
    st   [sp+0], t0
    beq  a0, a1, start
    call start
    ret
    syscall 1
    csrw VBAR, a0
    out  0x10, a0
    hlt
"""
    prog = Assembler().assemble(src)
    # Re-assembling the disassembly must produce identical bytes.
    offset = 0
    lines = []
    while offset < prog.size:
        text, length = disassemble_one(prog.data, offset)
        lines.append(text)
        offset += length
    reassembled = Assembler().assemble(".org 0x100\n" + "\n".join(lines))
    assert reassembled.data == prog.data
