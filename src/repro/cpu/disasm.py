"""VISA disassembler (debugging aid and round-trip test oracle)."""

from typing import List, Tuple

from repro.cpu.isa import CSR, Instruction, OPS, Op, REG_ALIASES, Reg, decode


def _reg(n: int) -> str:
    return REG_ALIASES.get(n, f"r{n}")


def _csr(n: int) -> str:
    try:
        return CSR(n).name
    except ValueError:
        return str(n)


#: How each operand slot of an :data:`OPS` form is printed.
_SLOT_TEXT = {
    "rd": lambda ins: _reg(ins.rd),
    "ra": lambda ins: _reg(ins.ra),
    "rb": lambda ins: _reg(ins.rb),
    "b": lambda ins: f"{ins.imm32:#x}" if ins.has_imm32 else _reg(ins.rb),
    "imm": lambda ins: f"{ins.imm32:#x}",
    "simm": lambda ins: str(ins.simm12),
    "port": lambda ins: f"{ins.simm12:#x}",
    "csr": lambda ins: _csr(ins.simm12),
    "[ra+simm]": lambda ins: f"[{_reg(ins.ra)}{ins.simm12:+d}]",
}


def format_instruction(ins: Instruction) -> str:
    """Render one decoded instruction in assembler syntax."""
    op = ins.op
    # The assembler's pseudo spellings, where one reads better.
    if op is Op.JAL and ins.rd == 0:
        return f"jmp {ins.imm32:#x}"
    if op is Op.JALR and ins.rd == 0 and ins.ra == Reg.LR:
        return "ret"
    spec = OPS[op]
    mnemonic = "li" if op is Op.MOVI else spec.mnemonic
    operands = ", ".join(_SLOT_TEXT[slot](ins) for slot in spec.slots)
    return f"{mnemonic} {operands}".rstrip()


def disassemble_one(data: bytes, offset: int = 0) -> Tuple[str, int]:
    """Disassemble the instruction at ``offset``; return (text, length)."""
    word = int.from_bytes(data[offset : offset + 4], "little")
    imm_word = 0
    if (word >> 24) & 0x80:
        imm_word = int.from_bytes(data[offset + 4 : offset + 8], "little")
    ins = decode(word, imm_word)
    return format_instruction(ins), ins.length


def disassemble(data: bytes, base: int) -> List[str]:
    """Disassemble a whole image; one "addr: text" line per instruction."""
    lines: List[str] = []
    offset = 0
    while offset + 4 <= len(data):
        try:
            text, length = disassemble_one(data, offset)
        except Exception:
            word = int.from_bytes(data[offset : offset + 4], "little")
            text, length = f".word {word:#010x}", 4
        lines.append(f"{base + offset:#010x}: {text}")
        offset += length
    return lines
