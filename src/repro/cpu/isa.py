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
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

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


#: Popek-Goldberg class of an opcode (:attr:`OpSpec.klass`).
INNOCUOUS = "innocuous"
#: Traps with ``Cause.PRIV`` when executed in user mode.
PRIVILEGED = "privileged"
#: Sensitive but unprivileged: executes in user mode without trapping
#: and silently misbehaves (STI/CLI are ignored). These are what break
#: pure trap-and-emulate.
SENSITIVE = "sensitive"
#: CSRR: decided by its CSR operand -- privileged unless the register is
#: in :data:`PUBLIC_CSRS`, of which MODE and IE are the sensitive reads.
BY_CSR = "by-csr"

#: Operand slots a :attr:`OpSpec.form` is written in. ``b`` is a register
#: or a 32-bit immediate (which sets :data:`IMM_FLAG`), ``imm`` always
#: the immediate word; ``simm``/``port``/``csr`` name the 12-bit field
#: (they differ in how it is spelled: decimal, hex, CSR name).
SLOTS = frozenset(
    {"rd", "ra", "rb", "b", "imm", "simm", "port", "csr", "[ra+simm]"}
)


@dataclass(frozen=True)
class OpSpec:
    """Everything the ISA says about one opcode (a row of :data:`OPS`)."""

    mnemonic: str
    #: Operand grammar, in assembler order: :data:`SLOTS` joined by ", ".
    form: str = ""
    #: ALU result, or branch-taken condition, as Python source over
    #: ``{a}`` (``regs[ra]``) and ``{b}`` (the B operand). Call-free, so
    #: the block compiler's immediates constant-fold; operands and
    #: results are u32. Empty: the semantics are code (see DESIGN.md).
    expr: str = ""
    #: ``CostModel`` field charged on top of ``instr_cycles``.
    extra: str = ""
    klass: str = INNOCUOUS
    #: ``form`` split into slots, and ``expr`` compiled to
    #: ``lambda a, b`` (None when empty); both derived.
    slots: Tuple[str, ...] = field(init=False)
    fn: Optional[Callable[[int, int], int]] = field(init=False)

    def __post_init__(self):
        slots = tuple(self.form.split(", ")) if self.form else ()
        fn = None
        if self.expr:
            source = "lambda a, b: " + self.expr.format(a="a", b="b")
            fn = eval(source)  # noqa: S307
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "fn", fn)


#: The two recurring forms: three-operand ALU, compare-and-branch.
_ALU3 = "rd, ra, b"
_CMPBR = "ra, rb, imm"

#: Signed views of the operands for compares: flipping the sign bit
#: maps two's-complement order onto unsigned order.
_SA, _SB = "({a} ^ 0x80000000)", "({b} ^ 0x80000000)"

#: The ISA, one row per opcode. The interpreter, the block compiler, the
#: assembler and the disassembler all read this table; none of them
#: names an ALU or branch opcode.
OPS: Dict[Op, OpSpec] = {
    Op.NOP: OpSpec("nop"),
    Op.ADD: OpSpec("add", _ALU3, "({a} + {b}) & 0xFFFFFFFF"),
    Op.SUB: OpSpec("sub", _ALU3, "({a} - {b}) & 0xFFFFFFFF"),
    Op.MUL: OpSpec("mul", _ALU3, "({a} * {b}) & 0xFFFFFFFF", "mul_extra_cycles"),
    # A zero divisor traps DIV0 instead (after the charge; see DIV_OPS).
    Op.DIVU: OpSpec("divu", _ALU3, "{a} // {b}", "div_extra_cycles"),
    Op.REMU: OpSpec("remu", _ALU3, "{a} % {b}", "div_extra_cycles"),
    Op.AND: OpSpec("and", _ALU3, "{a} & {b}"),
    Op.OR: OpSpec("or", _ALU3, "{a} | {b}"),
    Op.XOR: OpSpec("xor", _ALU3, "{a} ^ {b}"),
    Op.SHL: OpSpec("shl", _ALU3, "({a} << ({b} & 31)) & 0xFFFFFFFF"),
    Op.SHR: OpSpec("shr", _ALU3, "{a} >> ({b} & 31)"),
    Op.SAR: OpSpec(
        "sar", _ALU3, f"(({_SA} - 0x80000000) >> ({{b}} & 31)) & 0xFFFFFFFF"
    ),
    Op.SLT: OpSpec("slt", _ALU3, f"1 if {_SA} < {_SB} else 0"),
    Op.SLTU: OpSpec("sltu", _ALU3, "1 if {a} < {b} else 0"),
    Op.MOV: OpSpec("mov", "rd, ra", "{a}"),
    # Reads the immediate word whether or not IMM_FLAG is set (then 0).
    Op.MOVI: OpSpec("movi", "rd, imm", "{b}"),
    Op.LD: OpSpec("ld", "rd, [ra+simm]"),
    Op.ST: OpSpec("st", "[ra+simm], rb"),
    Op.LDB: OpSpec("ldb", "rd, [ra+simm]"),
    Op.STB: OpSpec("stb", "[ra+simm], rb"),
    Op.JAL: OpSpec("jal", "rd, imm"),
    Op.JALR: OpSpec("jalr", "rd, ra"),
    Op.BEQ: OpSpec("beq", _CMPBR, "{a} == {b}"),
    Op.BNE: OpSpec("bne", _CMPBR, "{a} != {b}"),
    Op.BLT: OpSpec("blt", _CMPBR, f"{_SA} < {_SB}"),
    Op.BGE: OpSpec("bge", _CMPBR, f"{_SA} >= {_SB}"),
    Op.BLTU: OpSpec("bltu", _CMPBR, "{a} < {b}"),
    Op.BGEU: OpSpec("bgeu", _CMPBR, "{a} >= {b}"),
    Op.SYSCALL: OpSpec("syscall", "simm"),
    Op.IRET: OpSpec("iret", extra="iret_cycles", klass=PRIVILEGED),
    Op.HLT: OpSpec("hlt", klass=PRIVILEGED),
    Op.CSRR: OpSpec("csrr", "rd, csr", klass=BY_CSR),
    Op.CSRW: OpSpec("csrw", "csr, ra", klass=PRIVILEGED),
    Op.OUT: OpSpec("out", "port, ra", extra="io_port_cycles", klass=PRIVILEGED),
    Op.IN: OpSpec("in", "rd, port", extra="io_port_cycles", klass=PRIVILEGED),
    Op.VMCALL: OpSpec("vmcall", "simm"),
    Op.INVLPG: OpSpec("invlpg", "ra", klass=PRIVILEGED),
    Op.STI: OpSpec("sti", klass=SENSITIVE),
    Op.CLI: OpSpec("cli", klass=SENSITIVE),
    Op.BRK: OpSpec("brk"),
}

#: Opcode classes. The encoding orders them -- ALU/moves, loads/stores,
#: control transfers, system instructions -- so membership is one int
#: compare against the last opcode of a class (``op <= LAST_ALU_OP``;
#: a system op is ``op > LAST_BRANCH_OP``).
LAST_ALU_OP = int(Op.MOVI)
LAST_MEM_OP = int(Op.STB)
LAST_BRANCH_OP = int(Op.BGEU)

MEM_OPS = frozenset(op for op, s in OPS.items() if "[ra+simm]" in s.slots)
STORE_OPS = frozenset(op for op in MEM_OPS if "rb" in OPS[op].slots)
#: Control transfers: every one ends a basic block.
BRANCH_OPS = frozenset(op for op in OPS if LAST_MEM_OP < op <= LAST_BRANCH_OP)
#: The divider: a zero B operand traps ``Cause.DIV0``.
DIV_OPS = frozenset(op for op, s in OPS.items() if s.extra == "div_extra_cycles")
#: Instructions that trap with Cause.PRIV when executed in user mode.
PRIVILEGED_OPS = frozenset(op for op, s in OPS.items() if s.klass == PRIVILEGED)
SENSITIVE_UNPRIV_OPS = frozenset(
    op for op, s in OPS.items() if s.klass == SENSITIVE
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

#: CSRs a CSRW may not write (traps ILLEGAL).
READONLY_CSRS = frozenset({CSR.MODE, CSR.CYCLES, CSR.INSTRET, CSR.CPUID})


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


def _derived():  # a field read off the OPS row: no part of == / hash
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction, resolved against its :data:`OPS` row once
    so that whoever executes or compiles it need not ask the table."""

    op: Op
    rd: int
    ra: int
    rb: int
    simm12: int
    imm32: int  # meaningful only when has_imm32
    has_imm32: bool
    length: int  # 4 or 8 bytes
    #: The B operand is ``imm32``, else ``regs[rb]``: an ``imm`` form
    #: reads the immediate word even when :data:`IMM_FLAG` is clear (0).
    b_imm: bool = _derived()
    fn: Optional[Callable[[int, int], int]] = _derived()  # OpSpec.fn
    extra: str = _derived()  # OpSpec.extra
    #: User mode traps ``Cause.PRIV`` on it (:func:`is_privileged`, for
    #: its own CSR number) / silently ignores it (``SENSITIVE``).
    user_traps: bool = _derived()
    user_ignored: bool = _derived()
    stores: bool = _derived()  # it is in STORE_OPS

    def __post_init__(self):
        spec = OPS[self.op]
        self.__dict__.update(  # frozen, so not through __setattr__
            b_imm=self.has_imm32 or "imm" in spec.slots,
            fn=spec.fn,
            extra=spec.extra,
            user_traps=is_privileged(self.op, self.simm12 & 0xFFF),
            user_ignored=spec.klass == SENSITIVE,
            stores="[ra+simm]" in spec.slots and "rb" in spec.slots,
        )


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


#: Every instruction this process has decoded, by content: ``word`` for
#: a 4-byte instruction, ``(word, imm_word)`` for an 8-byte one. A
#: decoded instruction is a pure function of those bytes (and of
#: :data:`OPS`) and frozen, so every core, the block compiler and the
#: translator share one object;
#: whoever holds the bytes it just read (``CPUCore.fetch``) may probe
#: this directly. Cleared wholesale when full (:func:`decode` refills).
DECODED: Dict[object, Instruction] = {}
_DECODED_MAX = 65536


def decode(word: int, imm_word: int = 0) -> Instruction:
    """Decode from the first word (and the immediate word if flagged).

    The caller fetches ``imm_word`` only when ``word``'s opcode has
    :data:`IMM_FLAG` set (it is ignored otherwise); interpreters
    typically fetch 4 bytes, test the flag, then fetch 4 more. Results
    are memoised in :data:`DECODED`; a :class:`DecodeError` never is.
    """
    raw_op = (word >> 24) & 0xFF
    has_imm = bool(raw_op & IMM_FLAG)
    imm32 = imm_word & 0xFFFFFFFF if has_imm else 0
    key = (word, imm32) if has_imm else word
    ins = DECODED.get(key)
    if ins is not None:
        return ins
    try:
        op = Op(raw_op & ~IMM_FLAG)
    except ValueError:
        raise DecodeError(f"invalid opcode {raw_op:#x}") from None
    ins = Instruction(
        op=op,
        rd=(word >> 20) & 0xF,
        ra=(word >> 16) & 0xF,
        rb=(word >> 12) & 0xF,
        simm12=_sext12(word),
        imm32=imm32,
        has_imm32=has_imm,
        length=8 if has_imm else 4,
    )
    if len(DECODED) >= _DECODED_MAX:
        DECODED.clear()
    DECODED[key] = ins
    return ins


def is_privileged(op: Op, csr: int = -1) -> bool:
    """True if this (op, csr) combination traps in user mode."""
    klass = OPS[op].klass
    return klass == PRIVILEGED or (klass == BY_CSR and csr not in PUBLIC_CSRS)
