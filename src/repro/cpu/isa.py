"""VISA instruction-set definition: encoding, decoding, register names.

Instruction encoding (little-endian 32-bit words)::

    31       24 23    20 19    16 15    12 11            0
    +----------+--------+--------+--------+---------------+
    |  opcode  |   rd   |   ra   |   rb   |    simm12     |
    +----------+--------+--------+--------+---------------+

If bit 7 of the opcode (:data:`IMM_FLAG`) is set, a 32-bit immediate
word follows and replaces the ``rb`` operand. Instructions are therefore
4 or 8 bytes long.

Register r0 is hardwired to zero (writes are discarded), RISC-V style.
"""

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

MODE_KERNEL = 0
MODE_USER = 1

#: Opcode bit marking a trailing 32-bit immediate word.
IMM_FLAG = 0x80


class Op(enum.IntEnum):
    """Base opcodes (immediate variants are ``op | IMM_FLAG``)."""

    NOP = 0x00
    ADD = 0x01
    SUB = 0x02
    MUL = 0x03
    DIVU = 0x04
    REMU = 0x05
    AND = 0x06
    OR = 0x07
    XOR = 0x08
    SHL = 0x09
    SHR = 0x0A
    SAR = 0x0B
    SLT = 0x0C
    SLTU = 0x0D
    MOV = 0x0E
    MOVI = 0x0F

    LD = 0x10
    ST = 0x11
    LDB = 0x12
    STB = 0x13

    JAL = 0x18
    JALR = 0x19
    BEQ = 0x1A
    BNE = 0x1B
    BLT = 0x1C
    BGE = 0x1D
    BLTU = 0x1E
    BGEU = 0x1F

    SYSCALL = 0x20
    IRET = 0x21
    HLT = 0x22
    CSRR = 0x23
    CSRW = 0x24
    OUT = 0x25
    IN = 0x26
    VMCALL = 0x27
    INVLPG = 0x28
    STI = 0x29
    CLI = 0x2A
    BRK = 0x2B


#: Opcode classes. The encoding orders them -- ALU/moves, loads/stores,
#: control transfers, system instructions -- so membership is one int
#: compare against the last opcode of a class (``op <= LAST_ALU_OP``;
#: a system op is ``op > LAST_BRANCH_OP``).
LAST_ALU_OP = int(Op.MOVI)
LAST_MEM_OP = int(Op.STB)
LAST_BRANCH_OP = int(Op.BGEU)

MEM_OPS = frozenset({Op.LD, Op.ST, Op.LDB, Op.STB})
STORE_OPS = frozenset({Op.ST, Op.STB})
#: Control transfers: every one ends a basic block.
BRANCH_OPS = frozenset(
    {Op.JAL, Op.JALR, Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU}
)


class CSR(enum.IntEnum):
    """Control and status registers."""

    MODE = 0  # current privilege (read-only architectural view)
    PTBR = 1  # page-table base (physical address of the page directory)
    VBAR = 2  # trap vector base (single entry point)
    IE = 3  # interrupt-enable flag
    EPC = 4  # exception PC
    ECAUSE = 5  # exception cause (Cause value)
    EVAL = 6  # exception value (faulting address / syscall number)
    SCRATCH = 7  # kernel scratch word
    CYCLES = 8  # free-running cycle counter (read-only)
    INSTRET = 9  # retired-instruction counter (read-only)
    ESTATUS = 10  # saved (mode | IE<<1) at trap entry; consumed by IRET
    CPUID = 11  # core identifier (read-only)
    HEDELEG = 12  # H-mode: exception-cause delegation bitmap (bit = Cause)
    HIDELEG = 13  # H-mode: interrupt-cause delegation bitmap (bit = Cause)


#: CSRs readable from user mode *without trapping*. MODE and IE are the
#: deliberate Popek-Goldberg violation: a deprivileged guest kernel reads
#: them and silently observes the *hardware* values (user mode, host IE)
#: instead of its virtual ones. CYCLES/INSTRET/CPUID are benign reads.
PUBLIC_CSRS = frozenset({CSR.MODE, CSR.IE, CSR.CYCLES, CSR.INSTRET, CSR.CPUID})

#: Instructions that trap with Cause.PRIV when executed in user mode.
PRIVILEGED_OPS = frozenset(
    {Op.IRET, Op.HLT, Op.CSRW, Op.OUT, Op.IN, Op.INVLPG}
)

#: Sensitive-but-unprivileged instructions: execute in user mode without
#: trapping and silently misbehave (STI/CLI are ignored; CSRR of MODE/IE
#: reads hardware state). These are what break pure trap-and-emulate.
SENSITIVE_UNPRIV_OPS = frozenset({Op.STI, Op.CLI})


class Cause(enum.IntEnum):
    """Trap causes, written to ECAUSE on delivery."""

    NONE = 0
    SYSCALL = 1
    PF_READ = 2
    PF_WRITE = 3
    PF_EXEC = 4
    PRIV = 5
    ILLEGAL = 6
    IRQ_TIMER = 7
    IRQ_DEVICE = 8
    DIV0 = 9
    BREAK = 10


#: HEDELEG with every synchronous exception cause delegated to the guest
#: (hardware-assisted guests handle their own faults without a VM exit).
#: IRQ causes live in HIDELEG, so they are excluded here.
HEDELEG_ALL = (
    (1 << Cause.SYSCALL)
    | (1 << Cause.PF_READ)
    | (1 << Cause.PF_WRITE)
    | (1 << Cause.PF_EXEC)
    | (1 << Cause.PRIV)
    | (1 << Cause.ILLEGAL)
    | (1 << Cause.DIV0)
    | (1 << Cause.BREAK)
)

#: HIDELEG with both interrupt causes delegated to the guest.
HIDELEG_ALL = (1 << Cause.IRQ_TIMER) | (1 << Cause.IRQ_DEVICE)

#: Causes controlled by HIDELEG (everything else consults HEDELEG).
IRQ_CAUSES = frozenset({Cause.IRQ_TIMER, Cause.IRQ_DEVICE})


class Reg(enum.IntEnum):
    """Register numbers with ABI aliases (see assembler for names)."""

    ZERO = 0
    A0 = 1
    A1 = 2
    A2 = 3
    A3 = 4
    T0 = 5
    T1 = 6
    T2 = 7
    T3 = 8
    S0 = 9
    S1 = 10
    S2 = 11
    FP = 12
    SP = 13
    LR = 14
    K0 = 15


#: name -> register number (assembler input, disassembler output).
REG_NAMES: Dict[str, int] = {f"r{i}": i for i in range(16)}
REG_NAMES.update(
    {
        "zero": 0,
        "a0": 1,
        "a1": 2,
        "a2": 3,
        "a3": 4,
        "t0": 5,
        "t1": 6,
        "t2": 7,
        "t3": 8,
        "s0": 9,
        "s1": 10,
        "s2": 11,
        "fp": 12,
        "sp": 13,
        "lr": 14,
        "k0": 15,
    }
)

#: register number -> preferred alias for disassembly.
REG_ALIASES: Dict[int, str] = {
    0: "zero", 1: "a0", 2: "a1", 3: "a2", 4: "a3",
    5: "t0", 6: "t1", 7: "t2", 8: "t3",
    9: "s0", 10: "s1", 11: "s2",
    12: "fp", 13: "sp", 14: "lr", 15: "k0",
}


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction."""

    op: Op
    rd: int
    ra: int
    rb: int
    simm12: int
    imm32: int  # meaningful only when has_imm32
    has_imm32: bool
    length: int  # 4 or 8 bytes

    @property
    def operand_b(self) -> Tuple[bool, int]:
        """(is_immediate, value-or-register): the B operand source."""
        if self.has_imm32:
            return True, self.imm32
        return False, self.rb


class DecodeError(Exception):
    """Raised when bytes do not decode to a valid instruction."""


def _sext12(value: int) -> int:
    value &= 0xFFF
    return value - 0x1000 if value & 0x800 else value


def encode(
    op: Op,
    rd: int = 0,
    ra: int = 0,
    rb: int = 0,
    simm12: int = 0,
    imm32: int = None,
) -> bytes:
    """Encode one instruction to 4 or 8 little-endian bytes."""
    for name, reg in (("rd", rd), ("ra", ra), ("rb", rb)):
        if not 0 <= reg <= 15:
            raise ValueError(f"{name}={reg} out of register range")
    if not -2048 <= simm12 <= 2047:
        raise ValueError(f"simm12={simm12} out of 12-bit signed range")
    opcode = int(op)
    if imm32 is not None:
        opcode |= IMM_FLAG
    word = (
        (opcode << 24)
        | (rd << 20)
        | (ra << 16)
        | (rb << 12)
        | (simm12 & 0xFFF)
    )
    out = word.to_bytes(4, "little")
    if imm32 is not None:
        out += (imm32 & 0xFFFFFFFF).to_bytes(4, "little")
    return out


def decode(word: int, imm_word: int = 0) -> Instruction:
    """Decode from the first word (and the immediate word if flagged).

    The caller fetches ``imm_word`` only when ``word``'s opcode has
    :data:`IMM_FLAG` set; interpreters typically fetch 4 bytes, test the
    flag, then fetch 4 more.
    """
    raw_op = (word >> 24) & 0xFF
    has_imm = bool(raw_op & IMM_FLAG)
    base = raw_op & ~IMM_FLAG
    try:
        op = Op(base)
    except ValueError:
        raise DecodeError(f"invalid opcode {raw_op:#x}") from None
    return Instruction(
        op=op,
        rd=(word >> 20) & 0xF,
        ra=(word >> 16) & 0xF,
        rb=(word >> 12) & 0xF,
        simm12=_sext12(word),
        imm32=imm_word & 0xFFFFFFFF,
        has_imm32=has_imm,
        length=8 if has_imm else 4,
    )


def is_privileged(op: Op, csr: int = -1) -> bool:
    """True if this (op, csr) combination traps in user mode.

    CSRR is privileged only for non-public CSRs; the public ones are the
    sensitive non-trapping reads.
    """
    if op in PRIVILEGED_OPS:
        return True
    if op is Op.CSRR:
        try:
            return CSR(csr) not in PUBLIC_CSRS
        except ValueError:
            return True  # unknown CSR: privileged (and will fault anyway)
    return False


def is_sensitive(op: Op, csr: int = -1) -> bool:
    """True for Popek-Goldberg-violating instructions (user-mode silent).

    These execute in user mode without trapping yet read or (fail to)
    write privileged state: STI, CLI, and CSRR of MODE/IE.
    """
    if op in SENSITIVE_UNPRIV_OPS:
        return True
    if op is Op.CSRR and csr in (int(CSR.MODE), int(CSR.IE)):
        return True
    return False
