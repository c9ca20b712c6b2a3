"""Two-pass VISA assembler.

Accepts the syntax used throughout :mod:`repro.guest`::

    ; comment                  # comment
    .org  0x1000               ; set location counter (also the load base)
    .equ  STACK_TOP, 0x9000    ; named constant
    .word 0xdeadbeef           ; literal 32-bit data
    .space 64                  ; zero-filled bytes

    start:
        li    a0, 42           ; load 32-bit immediate
        add   a1, a0, 8        ; immediate B operand -> imm32 form
        add   a1, a0, t0       ; register B operand
        ld    t1, [sp+4]
        st    [sp+0], t1
        beq   a0, zero, done   ; branch to label (absolute imm32)
        call  subroutine       ; jal lr, subroutine
        jmp   loop
        ret                    ; jalr zero, lr
        syscall 3
        vmcall  1
        csrw  PTBR, a0
        csrr  a0, ECAUSE
        out   0x40, a0
        in    a0, 0x40
        push  s0
        pop   s0

Every numeric position -- 32-bit immediates, displacements, port, syscall
and CSR numbers, ``.word`` -- takes an expression ``term (('+'|'-')
term)*`` where a term is an integer literal (decimal, 0x hex, 0b binary,
possibly negative) or a symbol (label or .equ constant), so ``.equ``
constants work in all of them. ``.org``, ``.space`` and ``.equ`` values
take the same expressions over the symbols defined above them.

Operand grammar comes from :data:`repro.cpu.isa.OPS`: each mnemonic's
``form`` is parsed slot by slot, and pseudo-instructions are templates
over real ones (:data:`PSEUDOS`).

Pass 1 parses and sizes every statement (instruction length is decidable
syntactically: the B operand is an immediate iff its token is not a
register name); pass 2 resolves symbols and emits bytes.
"""

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cpu.isa import CSR, OPS, Op, REG_NAMES, encode

_MEM_RE = re.compile(r"^\[\s*([A-Za-z_][A-Za-z0-9_]*)\s*([+-]\s*[^\]]+)?\]$")
_LABEL_RE = re.compile(r"^([A-Za-z_.$][A-Za-z0-9_.$]*):")
_INT_RE = re.compile(r"^-?(0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)$")

_MNEMONICS: Dict[str, Op] = {spec.mnemonic: op for op, spec in OPS.items()}

#: Pseudo-instructions: real instructions over the operands ``{0}``, ``{1}``.
PSEUDOS: Dict[str, Tuple[str, ...]] = {
    "li": ("movi {0}, {1}",),
    "call": ("jal lr, {0}",),
    "jmp": ("jal zero, {0}",),
    "ret": ("jalr zero, lr",),
    "beqz": ("beq {0}, zero, {1}",),
    "bnez": ("bne {0}, zero, {1}",),
    "push": ("add sp, sp, -4", "st [sp+0], {0}"),
    "pop": ("ld {0}, [sp+0]", "add sp, sp, 4"),
}
_PSEUDO_ARITY = {
    name: len(set(re.findall(r"\{\d\}", "".join(templates))))
    for name, templates in PSEUDOS.items()
}


class AssemblyError(Exception):
    """Parse or resolution failure; message includes the source line."""

    def __init__(self, message: str, line_no: Optional[int] = None, line: str = ""):
        location = f" (line {line_no}: {line.strip()!r})" if line_no else ""
        super().__init__(message + location)
        self.line_no = line_no


@dataclass
class Program:
    """Assembled image."""

    base: int
    data: bytes
    symbols: Dict[str, int] = field(default_factory=dict)
    entry: int = 0

    @property
    def size(self) -> int:
        return len(self.data)

    def load(self, physmem) -> int:
        """Copy the image into physical memory; returns the load address."""
        physmem.write_bytes(self.base, self.data)
        return self.base


@dataclass
class _Statement:
    line_no: int
    line: str
    addr: int = 0
    size: int = 0
    emit: Optional[Callable[["_Resolver"], bytes]] = None


class _Resolver:
    """Symbol/expression evaluation context for pass 2."""

    def __init__(self, symbols: Dict[str, int]):
        self.symbols = symbols

    def expr(self, text: str, line_no: int, line: str) -> int:
        text = text.strip()
        if not text:
            raise AssemblyError("empty expression", line_no, line)
        # A negative integer literal ("-4") must not be split into 0 - 4
        # (they are equivalent) but a leading sign is normalized by
        # prepending a zero term so the token stream alternates properly.
        if text[0] in "+-":
            text = "0" + text
        tokens = re.split(r"\s*([+-])\s*", text)
        if any(t == "" for t in tokens):
            raise AssemblyError(f"bad expression {text!r}", line_no, line)
        value = self._term(tokens[0], line_no, line)
        i = 1
        while i < len(tokens):
            sign, term = tokens[i], tokens[i + 1]
            term_val = self._term(term, line_no, line)
            value = value + term_val if sign == "+" else value - term_val
            i += 2
        return value

    def _term(self, token: str, line_no: int, line: str) -> int:
        token = token.strip()
        if _INT_RE.match(token):
            return int(token, 0)
        if token in self.symbols:
            return self.symbols[token]
        raise AssemblyError(f"undefined symbol {token!r}", line_no, line)


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self):
        self._symbols: Dict[str, int] = {}
        self._statements: List[_Statement] = []
        self._origin: Optional[int] = None
        self._pc = 0

    def assemble(self, source: str) -> Program:
        """Assemble ``source`` at 0, or at its ``.org``."""
        self._symbols = {}
        self._statements = []
        self._origin = None
        self._pc = 0

        for line_no, raw in enumerate(source.splitlines(), start=1):
            self._parse_line(line_no, raw)

        resolver = _Resolver(self._symbols)
        chunks: List[bytes] = []
        for st in self._statements:
            if st.emit is None:
                continue
            data = st.emit(resolver)
            if len(data) != st.size:
                raise AssemblyError(
                    f"internal: sized {st.size} but emitted {len(data)}",
                    st.line_no,
                    st.line,
                )
            chunks.append(data)

        origin = self._origin if self._origin is not None else 0
        program = Program(
            base=origin,
            data=b"".join(chunks),
            symbols=dict(self._symbols),
            entry=self._symbols.get("start", origin),
        )
        return program

    # -- pass 1 ------------------------------------------------------------

    def _parse_line(self, line_no: int, raw: str) -> None:
        line = raw.split(";")[0].split("#")[0].strip()
        while True:
            m = _LABEL_RE.match(line)
            if not m:
                break
            name = m.group(1)
            if name in self._symbols:
                raise AssemblyError(f"duplicate label {name!r}", line_no, raw)
            self._symbols[name] = self._pc
            line = line[m.end():].strip()
        if not line:
            return
        mnemonic, _, rest = line.partition(" ")
        mnemonic = mnemonic.lower()
        operands = [op.strip() for op in _split_operands(rest)] if rest.strip() else []

        if mnemonic.startswith("."):
            self._directive(mnemonic, operands, line_no, raw)
            return

        for instr_size, emit in self._expand(mnemonic, operands, line_no, raw):
            st = _Statement(line_no, raw, addr=self._pc, size=instr_size, emit=emit)
            self._statements.append(st)
            self._pc += instr_size

    def _directive(
        self, name: str, operands: List[str], line_no: int, raw: str
    ) -> None:
        if name == ".org":
            if len(operands) != 1:
                raise AssemblyError(".org needs one operand", line_no, raw)
            value = self._now(operands[0], line_no, raw)
            if self._statements or self._origin is not None:
                raise AssemblyError(
                    ".org must appear once, before any code", line_no, raw
                )
            self._origin = value
            self._pc = value
        elif name == ".equ":
            if len(operands) != 2:
                raise AssemblyError(".equ needs NAME, VALUE", line_no, raw)
            symbol = operands[0]
            if symbol in self._symbols:
                raise AssemblyError(f"duplicate symbol {symbol!r}", line_no, raw)
            self._symbols[symbol] = self._now(operands[1], line_no, raw)
        elif name == ".word":
            for op_text in operands:
                self._emit_data(4, self._word_emitter(op_text, line_no, raw))
        elif name == ".space":
            if len(operands) != 1:
                raise AssemblyError(".space needs a byte count", line_no, raw)
            count = self._now(operands[0], line_no, raw)
            if count < 0:
                raise AssemblyError(".space count must be >= 0", line_no, raw)
            self._emit_data(count, lambda _r, n=count: b"\x00" * n)
        else:
            raise AssemblyError(f"unknown directive {name}", line_no, raw)

    def _now(self, text: str, line_no: int, raw: str) -> int:
        """A directive operand: evaluated in pass 1, over symbols so far."""
        return _Resolver(self._symbols).expr(text, line_no, raw)

    def _word_emitter(self, text: str, line_no: int, raw: str):
        def emit(resolver: _Resolver) -> bytes:
            value = resolver.expr(text, line_no, raw)
            return (value & 0xFFFFFFFF).to_bytes(4, "little")

        return emit

    def _emit_data(self, size: int, emit) -> None:
        st = _Statement(0, "", addr=self._pc, size=size, emit=emit)
        self._statements.append(st)
        self._pc += size

    # -- instruction expansion ---------------------------------------------

    def _expand(
        self, mnemonic: str, ops: List[str], line_no: int, raw: str
    ) -> List[Tuple[int, Callable]]:
        """Return [(size, emit_fn), ...] -- pseudos expand to several."""
        templates = PSEUDOS.get(mnemonic)
        if templates is None:
            return [self._instruction(mnemonic, ops, line_no, raw)]
        if len(ops) != _PSEUDO_ARITY[mnemonic]:
            raise AssemblyError(
                f"{mnemonic} needs {_PSEUDO_ARITY[mnemonic]} operand(s)",
                line_no, raw,
            )
        out = []
        for template in templates:
            real, _, rest = template.format(*ops).partition(" ")
            out.append(
                self._instruction(real, _split_operands(rest), line_no, raw)
            )
        return out

    def _instruction(
        self, mnemonic: str, ops: List[str], line_no: int, raw: str
    ) -> Tuple[int, Callable]:
        """Parse one real instruction's operands by its :data:`OPS` form."""
        err = lambda msg: AssemblyError(msg, line_no, raw)  # noqa: E731

        def reg(token: str) -> int:
            r = REG_NAMES.get(token.lower())
            if r is None:
                raise err(f"not a register: {token!r}")
            return r

        op = _MNEMONICS.get(mnemonic)
        if op is None:
            raise err(f"unknown mnemonic {mnemonic!r}")
        spec = OPS[op]
        if len(ops) != len(spec.slots):
            raise err(f"{mnemonic} needs {spec.form or 'no operands'}")
        regs = {"rd": 0, "ra": 0, "rb": 0}
        simm_text = imm_text = None
        for slot, token in zip(spec.slots, ops):
            if slot == "[ra+simm]":
                m = _MEM_RE.match(token)
                if not m:
                    raise err(f"bad memory operand {token!r} (want [reg+off])")
                regs["ra"] = reg(m.group(1))
                simm_text = m.group(2) or "0"
            elif slot in regs:
                regs[slot] = reg(token)
            elif slot == "b" and token.lower() in REG_NAMES:
                regs["rb"] = reg(token)
            elif slot in ("b", "imm"):
                imm_text = token
            elif slot == "csr" and token.upper() in CSR.__members__:
                simm_text = str(int(CSR[token.upper()]))
            else:  # simm / port / csr number
                simm_text = token

        def emit(resolver: _Resolver) -> bytes:
            simm, imm = 0, None
            if simm_text is not None:
                simm = resolver.expr(simm_text, line_no, raw)
                if not -2048 <= simm <= 2047:
                    raise err(f"{mnemonic} operand {simm} outside simm12")
            if imm_text is not None:
                imm = resolver.expr(imm_text, line_no, raw)
            return encode(op, simm12=simm, imm32=imm, **regs)

        return (4 if imm_text is None else 8), emit


def _split_operands(text: str) -> List[str]:
    """Split on commas that are not inside [...] memory operands."""
    parts: List[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return [p for p in (s.strip() for s in parts) if p]
