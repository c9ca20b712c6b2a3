"""Directed-random VISA guest program generator.

Every fuzz case is a small self-contained guest image built from three
fixed parts plus a variable body:

* a **trap vector stub** (:data:`VEC_BASE`) that logs every trap to an
  in-memory ring, implements the exit protocol (``syscall 0x7FF`` ->
  ``hlt``), and otherwise skips the faulting instruction and ``iret``\\ s
  -- so page faults, privilege violations, illegal CSR accesses and
  division by zero are *survivable* and the program keeps running;
* a **preamble** (:data:`PRE_BASE`, the entry point) that installs the
  vector, configures the virtio-blk queue, optionally enables paging,
  and seeds the registers -- all with guest instructions, so the entire
  architectural setup is part of the image and needs no harness help;
* a **body** (:data:`BODY_BASE`) of fixed-size 32-byte *cells*, each
  emitted by one weighted template (ALU churn, loads, wild stores,
  branches, self-modifying code, trap-vector corruption, page-table
  root switches, TLB shootdowns, mode switches into a user stub,
  virtio kicks, inline-cache stress loops, interrupt-enabled
  preemption loops, delegation-CSR churn, two-stage paging stress,
  ...), NOP-padded, ending in a ``syscall 0x7FF`` tail.

Determinism contract: the layout (paging on/off, register seeds, alias
mappings, restricted-root flags) derives from ``fork(case_seed, 1)``
and the cells from ``fork(case_seed, 2)``, so a shrinker can delete or
simplify *cells* while the rest of the image stays byte-identical.

Interrupts are fair game: bodies enable IE with ``STI``, restore it
through ``IRET`` (ESTATUS writes are *not* masked), and run preemptable
loops while the harness's seeded
:class:`~repro.devices.schedule.EventSchedule` fires timer/virtio/
console interrupts at fixed retire counts. Asynchronous delivery is
still deterministic -- an event due at retire edge N lands before the
fetch of instruction N+1 in every engine -- so the comparison point
stays engine-independent. The vector stub irets in place for IRQ
causes, which also restores the interrupted IE state.
"""

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cpu.isa import CSR, Op, encode
from repro.util.rng import DeterministicRNG

# -- guest-physical layout (identity-mapped when paging is on) --------------

PAGE = 0x1000
MEM_BYTES = 0x100000  # 1 MiB of guest RAM, 256 pages

VEC_BASE = 0x1000  # trap vector stub (page 1)
PRE_BASE = 0x2000  # preamble = entry point (page 2)
BODY_BASE = 0x3000  # generated cells (pages 3..5)
USER_STUB = 0x6000  # fixed user-mode program (page 6, user-executable)
LOG_BASE = 0x7000  # trap log ring: count word, then 16-byte entries
DATA_BASE = 0x8000  # scratch data (pages 8..15; 8..9 user-readable)
DATA_END = 0x10000
STACK_TOP = 0x11000  # page 16 is the stack
RING_DESC = 0x11000  # virtio-blk descriptor table (page 17)
RING_AVAIL = 0x11400
RING_USED = 0x11800
RING_SIZE = 16
BUF_BASE = 0x12000  # virtio request buffers (page 18), 4 slots x 0x400
ALIAS_BASE = 0x40000  # alias VAs (pages 64..71) -> data frames

ROOT0 = 0x20000  # primary page directory
LEAF0 = 0x21000
ROOT1 = 0x24000  # restricted variant (RO/unmapped/NX tweaks)
LEAF1 = 0x25000

#: Guest-physical span holding page tables. The walker sets A/D bits in
#: these pages at *TLB-miss* time, which legitimately differs between
#: shadow and nested paging; differential comparison masks this span.
PT_SPAN = (0x20000, 0x28000)

CELL = 32  # bytes per body cell (8 words), templates are NOP-padded
MAX_CELLS = 40
EXIT_SYSCALL = 0x7FF  # syscall value the vector turns into HLT

# PTE bits (mirrors repro.mem.paging; duplicated to keep the generator
# importable without pulling the MMU in).
P, W, U, NX = 1, 2, 4, 32


def _pte(pfn: int, flags: int) -> int:
    return (pfn << 12) | flags


_NOP = encode(Op.NOP)

# Instruction ports
_CONS_TX = 0x10
_CONS_STATUS = 0x11
_VIRTIO = 0x70  # +0 desc, +1 avail, +2 used, +3 size, +4 kick, +5 status


# -- fixed code fragments ---------------------------------------------------


def _build_vector() -> bytes:
    """The trap vector stub. Clobbers r14/r15 only.

    Logs (ecause, eval, epc) into the LOG ring, halts on the exit
    syscall, irets in place for IRQs/BRK, and skips the faulting
    instruction (by its decoded length) for everything else.
    """
    E = encode
    not_sys = VEC_BASE + 120
    ret = VEC_BASE + 216
    code = b"".join([
        E(Op.MOVI, rd=14, imm32=LOG_BASE),            # 0
        E(Op.LD, rd=15, ra=14),                       # 8   count
        E(Op.ADD, rd=15, ra=15, imm32=1),             # 12
        E(Op.ST, ra=14, rb=15),                       # 20  count += 1
        E(Op.SUB, rd=15, ra=15, imm32=1),             # 24
        E(Op.AND, rd=15, ra=15, imm32=63),            # 32  idx mod 64
        E(Op.SHL, rd=15, ra=15, imm32=4),             # 40  idx * 16
        E(Op.ADD, rd=14, ra=14, rb=15),               # 48  entry base - 16
        E(Op.CSRR, rd=15, simm12=int(CSR.ECAUSE)),    # 52
        E(Op.ST, ra=14, rb=15, simm12=16),            # 56
        E(Op.CSRR, rd=15, simm12=int(CSR.EVAL)),      # 60
        E(Op.ST, ra=14, rb=15, simm12=20),            # 64
        E(Op.CSRR, rd=15, simm12=int(CSR.EPC)),       # 68
        E(Op.ST, ra=14, rb=15, simm12=24),            # 72
        E(Op.CSRR, rd=15, simm12=int(CSR.ECAUSE)),    # 76
        E(Op.MOVI, rd=14, imm32=1),                   # 80  Cause.SYSCALL
        E(Op.BNE, ra=15, rb=14, imm32=not_sys),       # 88
        E(Op.CSRR, rd=15, simm12=int(CSR.EVAL)),      # 96
        E(Op.MOVI, rd=14, imm32=EXIT_SYSCALL),        # 100
        E(Op.BNE, ra=15, rb=14, imm32=ret),           # 108  other syscalls iret
        E(Op.HLT),                                    # 116  exit protocol
        # not_sys (120): IRQs and BRK resume at EPC as-is
        E(Op.MOVI, rd=14, imm32=7),                   # 120  IRQ_TIMER
        E(Op.BEQ, ra=15, rb=14, imm32=ret),           # 128
        E(Op.MOVI, rd=14, imm32=8),                   # 136  IRQ_DEVICE
        E(Op.BEQ, ra=15, rb=14, imm32=ret),           # 144
        E(Op.MOVI, rd=14, imm32=10),                  # 152  BREAK
        E(Op.BEQ, ra=15, rb=14, imm32=ret),           # 160
        # faults: skip the faulting instruction (4 or 8 bytes by IMM_FLAG)
        E(Op.CSRR, rd=14, simm12=int(CSR.EPC)),       # 168
        E(Op.LD, rd=15, ra=14),                       # 172
        E(Op.SHR, rd=15, ra=15, imm32=24),            # 176
        E(Op.AND, rd=15, ra=15, imm32=0x80),          # 184
        E(Op.SHR, rd=15, ra=15, imm32=5),             # 192  0 or 4
        E(Op.ADD, rd=14, ra=14, rb=15),               # 200
        E(Op.ADD, rd=14, ra=14, imm32=4),             # 204
        E(Op.CSRW, ra=14, simm12=int(CSR.EPC)),       # 212
        # ret (216)
        E(Op.IRET),                                   # 216
    ])
    assert len(code) == 220, len(code)
    return code


def _build_user_stub() -> bytes:
    """Fixed user-mode program entered by the ``user`` template.

    Exercises user-side faults (privileged CSRW -> PRIV reflect),
    user loads of a user-mapped page, a mid-run syscall, and the exit
    syscall. A trailing self-loop catches a corrupted-vector skid.
    """
    E = encode
    off_loop = USER_STUB + 40
    code = b"".join([
        E(Op.ADD, rd=4, ra=4, imm32=7),                 # 0
        E(Op.CSRW, ra=4, simm12=int(CSR.SCRATCH)),      # 8  PRIV trap
        E(Op.MOVI, rd=5, imm32=DATA_BASE),              # 12
        E(Op.LD, rd=6, ra=5),                           # 20 user read
        E(Op.SYSCALL, simm12=0x33),                     # 24 logged + resumed
        E(Op.XOR, rd=4, ra=4, rb=6),                    # 28
        E(Op.SYSCALL, simm12=0x37),                     # 32
        E(Op.SYSCALL, simm12=EXIT_SYSCALL),             # 36
        E(Op.JAL, imm32=off_loop),                      # 40 self-loop
    ])
    return code


VECTOR_CODE = _build_vector()
USER_CODE = _build_user_stub()


def _build_rings() -> Dict[int, bytes]:
    """Pre-baked virtio-blk ring + 4 request buffers.

    Chains j=0..3 live at descriptors 3j..3j+2; even chains are reads,
    odd chains are writes. The avail ring is fully populated with
    ``ring[s] = 3*(s % 4)``; the guest only bumps ``avail.idx``.
    """
    desc = bytearray(RING_SIZE * 16)

    def put_desc(i, addr, length, flags, nxt):
        desc[i * 16:i * 16 + 16] = (
            addr.to_bytes(4, "little") + length.to_bytes(4, "little")
            + flags.to_bytes(4, "little") + nxt.to_bytes(4, "little")
        )

    buf = bytearray(PAGE)
    for j in range(4):
        slot = BUF_BASE + j * 0x400
        is_write = j % 2  # BLK_T_WRITE = 1
        put_desc(3 * j, slot, 12, 1, 3 * j + 1)  # header, F_NEXT
        data_flags = 1 | (0 if is_write else 2)  # reads need F_WRITE
        put_desc(3 * j + 1, slot + 0x10, 512, data_flags, 3 * j + 2)
        put_desc(3 * j + 2, slot + 0x3F0, 1, 2, 0)  # status, F_WRITE
        o = j * 0x400
        buf[o:o + 12] = (
            is_write.to_bytes(4, "little")
            + (j * 4).to_bytes(4, "little")  # sector
            + (1).to_bytes(4, "little")      # count
        )
        if is_write:
            pat = bytes((0x40 + j + (k % 29)) & 0xFF for k in range(512))
            buf[o + 0x10:o + 0x210] = pat

    avail = bytearray(4 + RING_SIZE * 4)
    for s in range(RING_SIZE):
        avail[4 + s * 4:8 + s * 4] = (3 * (s % 4)).to_bytes(4, "little")

    return {
        RING_DESC: bytes(desc),
        RING_AVAIL: bytes(avail),
        BUF_BASE: bytes(buf),
    }


RING_SEGMENTS = _build_rings()


# -- per-case layout --------------------------------------------------------

#: leaf-page flags for the primary root, keyed by virtual page number.
_BASE_MAP: Dict[int, int] = {
    1: P | W,           # vector
    2: P | W,           # preamble
    3: P | W, 4: P | W, 5: P | W,  # body
    6: P | U,           # user stub: user-executable, not writable
    7: P | W,           # trap log
    8: P | W | U, 9: P | W | U,    # user-visible data
    10: P | W, 11: P | W, 12: P | W, 13: P | W, 14: P | W, 15: P | W,
    16: P | W,          # stack
    17: P | W,          # virtio rings
    18: P | W,          # virtio buffers
}


@dataclass
class Layout:
    """Everything about a case that is *not* the body cells."""

    paging: bool
    reg_seeds: List[int]            # values for r1..r13
    aliases: List[Tuple[int, int, int, int]]  # (vpage, frame, flags0, flags1)


@dataclass
class CaseSpec:
    """One fuzz case: identity + layout + body cells.

    ``cells`` is the only mutable part (the shrinker edits it); layout
    re-derives from ``(root_seed, case_index)``.
    """

    root_seed: int
    case_index: int
    layout: Layout
    cells: List[bytes]
    template_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def body_instructions(self) -> int:
        """Upper bound on distinct body instructions (cells x 8 words)."""
        n = 0
        for cell in self.cells:
            i = 0
            while i < len(cell):
                word = int.from_bytes(cell[i:i + 4], "little")
                i += 8 if (word >> 24) & 0x80 else 4
                n += 1
        return n


def derive_layout(root_seed: int, case_index: int) -> Layout:
    """Layout is a pure function of the case identity (draw order fixed)."""
    rng = DeterministicRNG(root_seed).fork(case_index).fork(1)
    paging = rng.random() < 0.6
    seeds = []
    for _ in range(13):
        if rng.random() < 0.5:
            seeds.append(rng.choice([
                DATA_BASE, DATA_BASE + 0x1000, DATA_BASE + 0x4000,
                STACK_TOP - 0x100, LOG_BASE, RING_AVAIL, BUF_BASE,
                ALIAS_BASE, BODY_BASE,
            ]))
        else:
            seeds.append(rng.next_u64() & 0xFFFFFFFF)
    aliases = []
    for k in range(rng.randint(0, 6)):
        frame = rng.randint(8, 15)
        fl0 = P
        if rng.random() < 0.6:
            fl0 |= W
        if rng.random() < 0.4:
            fl0 |= U
        if rng.random() < 0.25:
            fl0 |= NX
        fl1 = P
        if rng.random() < 0.4:
            fl1 |= W
        if rng.random() < 0.4:
            fl1 |= U
        aliases.append((64 + k, frame, fl0, fl1))
    return Layout(paging=paging, reg_seeds=seeds, aliases=aliases)


def _build_page_tables(layout: Layout) -> Dict[int, bytes]:
    def leaf(restricted: bool) -> bytes:
        entries = [0] * 1024
        for vpn, flags in _BASE_MAP.items():
            if restricted:
                if vpn in (12, 13, 14, 15):
                    continue  # unmapped
                if vpn in (10, 11):
                    flags &= ~W
                if vpn == 9:
                    flags &= ~U
                if vpn == 5:
                    flags |= NX
            entries[vpn] = _pte(vpn, flags)
        for vpage, frame, fl0, fl1 in layout.aliases:
            entries[vpage] = _pte(frame, fl1 if restricted else fl0)
        return struct.pack("<1024I", *entries)

    def root(leaf_pa: int) -> bytes:
        entries = [0] * 1024
        entries[0] = _pte(leaf_pa >> 12, P | W | U)
        return struct.pack("<1024I", *entries)

    return {
        ROOT0: root(LEAF0), LEAF0: leaf(False),
        ROOT1: root(LEAF1), LEAF1: leaf(True),
    }


def _build_preamble(layout: Layout) -> bytes:
    E = encode
    parts = [
        E(Op.MOVI, rd=15, imm32=VEC_BASE),
        E(Op.CSRW, ra=15, simm12=int(CSR.VBAR)),
        E(Op.MOVI, rd=15, imm32=RING_DESC),
        E(Op.OUT, ra=15, simm12=_VIRTIO + 0),
        E(Op.MOVI, rd=15, imm32=RING_AVAIL),
        E(Op.OUT, ra=15, simm12=_VIRTIO + 1),
        E(Op.MOVI, rd=15, imm32=RING_USED),
        E(Op.OUT, ra=15, simm12=_VIRTIO + 2),
        E(Op.MOVI, rd=15, imm32=RING_SIZE),
        E(Op.OUT, ra=15, simm12=_VIRTIO + 3),
    ]
    if layout.paging:
        parts += [
            E(Op.MOVI, rd=15, imm32=ROOT0),
            E(Op.CSRW, ra=15, simm12=int(CSR.PTBR)),
        ]
    for i, value in enumerate(layout.reg_seeds, start=1):
        parts.append(E(Op.MOVI, rd=i, imm32=value))
    parts += [
        E(Op.MOVI, rd=14, imm32=0),
        E(Op.MOVI, rd=15, imm32=0),
        E(Op.JAL, imm32=BODY_BASE),
    ]
    return b"".join(parts)


# -- body templates ---------------------------------------------------------

_ALU_OPS = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR,
            Op.SAR, Op.MUL, Op.SLT, Op.SLTU, Op.MOV]
_BRANCHES = [Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU]
#: benign 4-byte instruction words the SMC template writes over code.
_SMC_PAYLOAD_OPS = [Op.NOP, Op.ADD, Op.XOR, Op.OR, Op.MOV]


def _cell_addr(index: int) -> int:
    return BODY_BASE + index * CELL


class _BodyGen:
    def __init__(self, rng: DeterministicRNG, layout: Layout, ncells: int):
        self.rng = rng
        self.layout = layout
        self.ncells = ncells
        self.counts: Dict[str, int] = {}

    # helpers

    def _reg(self) -> int:
        """r1..r13: never zero, the stack pointer or the link register."""
        return self.rng.randint(1, 13)

    def _target_cell(self) -> int:
        # ncells == the tail cell, a legal branch target
        return _cell_addr(self.rng.randint(0, self.ncells))

    def _safe_addr(self) -> int:
        pool = [
            DATA_BASE + 4 * self.rng.randint(0, (DATA_END - DATA_BASE) // 4 - 1),
            STACK_TOP - 4 * self.rng.randint(1, 64),
            LOG_BASE + 0x800 + 4 * self.rng.randint(0, 64),
            BUF_BASE + 4 * self.rng.randint(0, 255),
        ]
        if self.layout.paging and self.layout.aliases:
            vpage, _f, _a, _b = self.rng.choice(self.layout.aliases)
            pool.append((vpage << 12) + 4 * self.rng.randint(0, 1023))
        return self.rng.choice(pool)

    # templates: each returns instruction bytes (<= CELL)

    def t_alu(self):
        parts = []
        for _ in range(self.rng.randint(2, 4)):
            op = self.rng.choice(_ALU_OPS)
            if self.rng.random() < 0.4:
                parts.append(encode(op, rd=self._reg(), ra=self._reg(),
                                    imm32=self.rng.next_u64() & 0xFFFFFFFF))
            else:
                parts.append(encode(op, rd=self._reg(), ra=self._reg(),
                                    rb=self._reg()))
        return b"".join(parts)

    def t_movi(self):
        return encode(Op.MOVI, rd=self._reg(),
                      imm32=self.rng.next_u64() & 0xFFFFFFFF)

    def t_load(self):
        op = self.rng.choice([Op.LD, Op.LD, Op.LD, Op.LDB])
        if self.rng.random() < 0.5:  # known-good address
            return (encode(Op.MOVI, rd=14, imm32=self._safe_addr())
                    + encode(op, rd=self._reg(), ra=14))
        return encode(op, rd=self._reg(), ra=self._reg(),
                      simm12=self.rng.randint(-2048, 2047))

    def t_store_safe(self):
        op = self.rng.choice([Op.ST, Op.ST, Op.ST, Op.STB])
        return (encode(Op.MOVI, rd=14, imm32=self._safe_addr())
                + encode(op, ra=14, rb=self._reg()))

    def t_store_wild(self):
        op = self.rng.choice([Op.ST, Op.STB])
        return encode(op, ra=self._reg(), rb=self._reg(),
                      simm12=self.rng.randint(-2048, 2047))

    def t_branch(self):
        return encode(self.rng.choice(_BRANCHES), ra=self._reg(),
                      rb=self._reg(), imm32=self._target_cell())

    def t_jal(self):
        rd = self.rng.choice([0, 0, self._reg()])
        return encode(Op.JAL, rd=rd, imm32=self._target_cell())

    def t_jalr(self):
        return (encode(Op.MOVI, rd=14, imm32=self._target_cell())
                + encode(Op.JALR, rd=self.rng.choice([0, 0, 13]), ra=14))

    def t_jalr_wild(self):
        return encode(Op.JALR, ra=self._reg())

    def t_smc(self, index: int):
        # write a benign word over a cell >= 8 cells away, then jump to
        # the next cell so the write is never inside the executing block
        far = [i for i in range(self.ncells) if abs(i - index) >= 8]
        if not far:
            return self.t_alu()
        tcell = self.rng.choice(far)
        word_off = self.rng.randint(0, 7) * 4
        payload = encode(self.rng.choice(_SMC_PAYLOAD_OPS),
                         rd=self._reg(), ra=self._reg(), rb=self._reg())
        return (encode(Op.MOVI, rd=14, imm32=_cell_addr(tcell) + word_off)
                + encode(Op.MOVI, rd=15,
                         imm32=int.from_bytes(payload[:4], "little"))
                + encode(Op.ST, ra=14, rb=15)
                + encode(Op.JAL, imm32=_cell_addr(index + 1)))

    def t_smc_loop(self, index: int):
        """Three-cell prime/overwrite/re-enter self-modifying construction.

        A translation-caching engine only runs stale code when a block
        *keyed at the overwritten address* was cached before the store
        and re-dispatched after it; sequential fallthrough never does
        that, so this template forces the sequence explicitly:

        * cell A (``index``) holds the 8-byte victim at ``A+8`` -- an
          always-untaken-at-first ``BNE r15`` escape -- plus a real
          escape branch and a jump to the control cell,
        * cell B (``index+1``) primes a block keyed exactly at the
          victim address (jump to ``A+8`` with ``r15 == 0``) and on the
          second arrival dispatches to the writer,
        * cell W (``index+2``) overwrites the victim with
          ``MOVI rd, marker`` (two word stores) and jumps back to
          ``A+8``.

        Correct engines re-decode and set ``rd = marker``; an engine
        that kept the stale block takes the old ``BNE`` (``r15`` is the
        nonzero payload word by then) and skips the marker, leaving
        ``rd`` at its seeded value.
        """
        a = _cell_addr(index)
        b = _cell_addr(index + 1)
        w = _cell_addr(index + 2)
        escape = _cell_addr(index + 3)
        victim = a + 8
        rd = self._reg()
        marker = (self.rng.next_u64() & 0x7FFFFFFF) | 1
        payload = encode(Op.MOVI, rd=rd, imm32=marker)
        lo = int.from_bytes(payload[:4], "little")
        hi = int.from_bytes(payload[4:], "little")
        cell_a = (encode(Op.XOR, rd=14, ra=14, rb=14)
                  + encode(Op.XOR, rd=15, ra=15, rb=15)
                  + encode(Op.BNE, ra=15, rb=0, imm32=escape)   # victim
                  + encode(Op.BNE, ra=15, rb=0, imm32=escape)   # post-SMC
                  + encode(Op.JAL, imm32=b))
        cell_b = (encode(Op.BNE, ra=14, rb=0, imm32=w)
                  + encode(Op.MOVI, rd=14, imm32=victim)
                  + encode(Op.JAL, imm32=victim))               # prime
        cell_w = (encode(Op.MOVI, rd=15, imm32=lo)
                  + encode(Op.ST, ra=14, rb=15)
                  + encode(Op.MOVI, rd=15, imm32=hi)
                  + encode(Op.ST, ra=14, rb=15, simm12=4)
                  + encode(Op.JAL, imm32=victim))               # re-enter
        return [_pad_cell(cell_a), _pad_cell(cell_b), _pad_cell(cell_w)]

    def t_ic_loop(self, index: int):
        """Bounded load/store self-loop stressing the JIT inline caches.

        Cell S seeds a trip counter (r13) and a data pointer (r12);
        cell L is a tight load/store loop whose backward branch targets
        its own start, so the block JIT compiles it as a self-looping
        closure with per-site inline caches -- then drops one chaos op
        into every iteration, chosen per-case:

        * ``tight``       -- extra load only: steady-state IC hits and
          store->load forwarding,
        * ``invlpg``      -- INVLPG on the touched page: the cached
          translation dies every iteration, forcing the IC miss path,
        * ``invlpg_wild`` -- INVLPG on an unrelated page: must *not*
          disturb the IC for the touched page,
        * ``root``        -- CSRW PTBR mid-loop: a full TLB flush per
          iteration (sometimes the restricted root, so the accesses
          themselves start faulting),
        * ``smc``         -- store a NOP word into the body page's dead
          tail: fires the code-page write watcher and invalidates the
          loop's own block every iteration,
        * ``syscall``     -- a trap/IRET round-trip mid-loop: MODE is
          rewritten twice per iteration and the block re-enters through
          the partial-progress accounting path,
        * ``user``        -- after the loop drains, IRET into the user
          stub, which re-reads the just-touched data page in user mode.

        Only r9..r13 are used: the trap vector clobbers r14/r15, and
        the faulting variants must keep the trip counter alive so the
        loop always terminates.
        """
        variants = ["tight", "syscall", "smc"]
        if self.layout.paging:
            variants += ["invlpg", "invlpg_wild", "root"]
        if self.ncells - index >= 3:
            variants.append("user")
        kind = self.rng.choice(variants)

        trips = self.rng.randint(4, 10)
        setup = [
            encode(Op.MOVI, rd=13, imm32=trips),
            encode(Op.MOVI, rd=12, imm32=self._safe_addr()),
        ]
        loop_va = _cell_addr(index + 1)
        body = [
            encode(Op.LD, rd=11, ra=12),
            encode(Op.ST, ra=12, rb=11, simm12=4),
        ]
        if kind == "invlpg":
            body.append(encode(Op.INVLPG, ra=12))
        elif kind == "invlpg_wild":
            other = self.rng.choice([VEC_BASE, LOG_BASE, ALIAS_BASE,
                                     STACK_TOP - PAGE])
            setup.append(encode(Op.MOVI, rd=10, imm32=other))
            body.append(encode(Op.INVLPG, ra=10))
        elif kind == "root":
            root = self.rng.choice([ROOT0, ROOT0, ROOT1])
            setup.append(encode(Op.MOVI, rd=10, imm32=root))
            body.append(encode(Op.CSRW, ra=10, simm12=int(CSR.PTBR)))
        elif kind == "smc":
            # Dead tail: past build_tail(), inside the (executed, hence
            # write-watched) body page, never fetched.
            dead = (_cell_addr(self.ncells) + 16
                    + 4 * self.rng.randint(0, 16))
            setup.append(encode(Op.MOVI, rd=10, imm32=dead))
            setup.append(encode(Op.MOVI, rd=9,
                                imm32=int.from_bytes(_NOP, "little")))
            body.append(encode(Op.ST, ra=10, rb=9))
        elif kind == "syscall":
            body.append(encode(Op.SYSCALL, simm12=0x41))
        else:  # tight / user
            body.append(encode(Op.LD, rd=10, ra=12, simm12=8))
        body.append(encode(Op.SUB, rd=13, ra=13, imm32=1))
        body.append(encode(Op.BNE, ra=13, rb=0, imm32=loop_va))

        cells = [_pad_cell(b"".join(setup)), _pad_cell(b"".join(body))]
        if kind == "user":
            off = self.rng.choice([0, 12])  # 12 skips the PRIV fault
            cells.append(_pad_cell(
                encode(Op.MOVI, rd=14, imm32=1)
                + encode(Op.CSRW, ra=14, simm12=int(CSR.ESTATUS))
                + encode(Op.MOVI, rd=14, imm32=USER_STUB + off)
                + encode(Op.CSRW, ra=14, simm12=int(CSR.EPC))
                + encode(Op.IRET)))
        return cells

    def t_vbar(self):
        target = self.rng.choice([0, 0x500, DATA_BASE + 0x2000, VEC_BASE,
                                  VEC_BASE])
        return (encode(Op.MOVI, rd=14, imm32=target)
                + encode(Op.CSRW, ra=14, simm12=int(CSR.VBAR)))

    def t_ptbr(self):
        root = self.rng.choice([ROOT0, ROOT0, ROOT1])
        return (encode(Op.MOVI, rd=14, imm32=root)
                + encode(Op.CSRW, ra=14, simm12=int(CSR.PTBR)))

    def t_invlpg(self):
        va = self.rng.choice([DATA_BASE, DATA_BASE + 0x7000, BODY_BASE,
                              ALIAS_BASE, STACK_TOP - PAGE,
                              self.rng.next_u64() & 0xFFFFF000])
        return (encode(Op.MOVI, rd=14, imm32=va)
                + encode(Op.INVLPG, ra=14))

    def t_csrw(self):
        csr = self.rng.choice([CSR.SCRATCH, CSR.SCRATCH, CSR.EPC, CSR.EVAL,
                               CSR.ECAUSE, CSR.ESTATUS])
        value = self.rng.next_u64() & 0xFFFFFFFF
        if csr is CSR.EPC:
            # keep EPC pointing at harmless ground if something irets
            value = self.rng.choice([DATA_BASE + (value & 0x3FFC),
                                     _cell_addr(self.rng.randint(0, self.ncells))])
        return (encode(Op.MOVI, rd=14, imm32=value)
                + encode(Op.CSRW, ra=14, simm12=int(csr)))

    def t_csrr(self):
        csr = self.rng.choice([CSR.MODE, CSR.PTBR, CSR.VBAR, CSR.IE,
                               CSR.EPC, CSR.ECAUSE, CSR.EVAL, CSR.SCRATCH,
                               CSR.ESTATUS, CSR.CPUID])
        return encode(Op.CSRR, rd=self._reg(), simm12=int(csr))

    def t_syscall(self):
        return encode(Op.SYSCALL, simm12=self.rng.randint(0, 0x7FE))

    def t_brk(self):
        return encode(Op.BRK)

    def t_div0(self):
        op = self.rng.choice([Op.DIVU, Op.REMU])
        return (encode(Op.MOVI, rd=14, imm32=0)
                + encode(op, rd=self._reg(), ra=self._reg(), rb=14))

    def t_user(self):
        return (encode(Op.MOVI, rd=14, imm32=1)
                + encode(Op.CSRW, ra=14, simm12=int(CSR.ESTATUS))
                + encode(Op.MOVI, rd=14, imm32=USER_STUB)
                + encode(Op.CSRW, ra=14, simm12=int(CSR.EPC))
                + encode(Op.IRET))

    def t_kick(self):
        return (encode(Op.MOVI, rd=14, imm32=RING_AVAIL)
                + encode(Op.LD, rd=15, ra=14)
                + encode(Op.ADD, rd=15, ra=15, imm32=1)
                + encode(Op.ST, ra=14, rb=15)
                + encode(Op.OUT, ra=15, simm12=_VIRTIO + 4))

    def t_console(self):
        ch = self.rng.randint(0x21, 0x7E)
        return (encode(Op.MOVI, rd=14, imm32=ch)
                + encode(Op.OUT, ra=14, simm12=_CONS_TX))

    def t_in(self):
        port = self.rng.choice([_CONS_STATUS, _VIRTIO + 3, _VIRTIO + 5])
        return encode(Op.IN, rd=self._reg(), simm12=port)

    def t_hlt(self):
        return encode(Op.HLT)

    # interrupt-enabled templates: these run with IE set so the seeded
    # event schedule actually *delivers* -- preemption points, handler
    # round-trips and IE restore paths all become differential surface.

    def t_sti_cli(self):
        """IE churn: delivery windows open and close between cells."""
        parts = []
        for _ in range(self.rng.randint(2, 6)):
            parts.append(encode(self.rng.choice([Op.STI, Op.STI, Op.CLI])))
        return b"".join(parts)

    def t_irq_loop(self, index: int):
        """Timer-preemption loop: STI, then a counted self-loop.

        The JIT compiles cell L as a self-looping closure; a schedule
        event due mid-loop must still land at its exact retire edge
        (the closure's loop-edge ``_loop_stop`` check is the poll), and
        the handler's IRET drops straight back into the loop body.
        """
        trips = self.rng.randint(8, 24)
        loop_va = _cell_addr(index + 1)
        setup = (encode(Op.MOVI, rd=13, imm32=trips)
                 + encode(Op.STI))
        body = (encode(Op.ADD, rd=12, ra=12, imm32=1)
                + encode(Op.SUB, rd=13, ra=13, imm32=1)
                + encode(Op.BNE, ra=13, rb=0, imm32=loop_va))
        return [_pad_cell(setup), _pad_cell(body)]

    def t_iret_ie(self, index: int):
        """IRET that *sets* IE: ESTATUS=2 (kernel, IE), EPC=next cell."""
        return (encode(Op.MOVI, rd=14, imm32=2)
                + encode(Op.CSRW, ra=14, simm12=int(CSR.ESTATUS))
                + encode(Op.MOVI, rd=14, imm32=_cell_addr(index + 1))
                + encode(Op.CSRW, ra=14, simm12=int(CSR.EPC))
                + encode(Op.IRET))

    def t_kick_storm(self):
        """Virtio kick with IE open: the completion IRQ delivers."""
        return encode(Op.STI) + self.t_kick()

    # H-mode surface: the delegation CSRs are plain storage to a guest
    # in every engine (native CSR-file slots under hardware assist,
    # vcsr under the software monitors), and page-table churn is
    # exactly where the two-stage walker's behaviour must stay
    # invisible.

    def t_hdeleg(self):
        """Delegation-CSR churn: write HEDELEG/HIDELEG, read one back.

        The read-back lands in a compared register, so any engine that
        masks, traps on, or leaks host state through CSRs 12/13
        diverges immediately.
        """
        wcsr = self.rng.choice([CSR.HEDELEG, CSR.HIDELEG])
        rcsr = self.rng.choice([CSR.HEDELEG, CSR.HIDELEG])
        value = self.rng.next_u64() & 0xFFFFFFFF
        return (encode(Op.MOVI, rd=14, imm32=value)
                + encode(Op.CSRW, ra=14, simm12=int(wcsr))
                + encode(Op.CSRR, rd=self._reg(), simm12=int(rcsr)))

    def t_two_stage(self):
        """Root switch + touch + shootdown in one cell.

        Under H-mode the whole cell runs exit-free against the combined
        TLB (the load right after the PTBR write re-walks both stages);
        shadow engines exit on the CSRW *and* the INVLPG. Restricted
        roots make the touch itself fault sometimes -- survivable via
        the vector, and the fault cause must agree everywhere.
        """
        root = self.rng.choice([ROOT0, ROOT0, ROOT1])
        addr = self._safe_addr()
        return (encode(Op.MOVI, rd=14, imm32=root)
                + encode(Op.CSRW, ra=14, simm12=int(CSR.PTBR))
                + encode(Op.MOVI, rd=14, imm32=addr)
                + encode(Op.LD, rd=self._reg(), ra=14)
                + encode(Op.INVLPG, ra=14))


#: (name, weight, needs_paging) -- weights tuned so a typical case mixes
#: heavy ALU/memory churn with a steady drip of control-plane chaos.
_TEMPLATES = [
    ("alu", 20, False),
    ("movi", 8, False),
    ("load", 10, False),
    ("store_safe", 10, False),
    ("store_wild", 4, False),
    ("branch", 8, False),
    ("jal", 5, False),
    ("jalr", 3, False),
    ("jalr_wild", 1, False),
    ("smc", 2, False),
    ("smc_loop", 4, False),
    ("ic_loop", 6, False),
    ("vbar", 2, False),
    ("ptbr", 3, True),
    ("invlpg", 3, True),
    ("csrw", 4, False),
    ("csrr", 3, False),
    ("syscall", 3, False),
    ("brk", 1, False),
    ("div0", 2, False),
    ("user", 2, False),
    ("kick", 3, False),
    ("console", 2, False),
    ("in", 1, False),
    ("hlt", 1, False),
    ("sti_cli", 4, False),
    ("irq_loop", 5, False),
    ("iret_ie", 3, False),
    ("kick_storm", 3, False),
    ("hdeleg", 2, False),
    ("two_stage", 3, True),
]


def _pad_cell(code: bytes) -> bytes:
    assert len(code) <= CELL
    return code + _NOP * ((CELL - len(code)) // 4)


def build_tail(ncells: int) -> bytes:
    """Exit tail appended after the last generated cell."""
    addr = _cell_addr(ncells)
    return (encode(Op.SYSCALL, simm12=EXIT_SYSCALL)
            + encode(Op.HLT)
            + encode(Op.JAL, imm32=addr))  # skid guard: loop back


def generate_case(root_seed: int, case_index: int) -> CaseSpec:
    """Generate one case; pure function of ``(root_seed, case_index)``."""
    layout = derive_layout(root_seed, case_index)
    rng = DeterministicRNG(root_seed).fork(case_index).fork(2)
    ncells = rng.randint(4, MAX_CELLS)
    gen = _BodyGen(rng, layout, ncells)

    total = sum(w for _n, w, need_pg in _TEMPLATES
                if layout.paging or not need_pg)
    cells: List[bytes] = []
    while len(cells) < ncells:
        index = len(cells)
        pick = rng.randint(1, total)
        for name, weight, need_pg in _TEMPLATES:
            if need_pg and not layout.paging:
                continue
            pick -= weight
            if pick <= 0:
                break
        if name == "smc_loop":
            if ncells - index < 3:
                name = "alu"
                code = gen.t_alu()
            else:
                gen.counts[name] = gen.counts.get(name, 0) + 1
                cells.extend(gen.t_smc_loop(index))
                continue
        elif name == "ic_loop":
            if ncells - index < 2:
                name = "alu"
                code = gen.t_alu()
            else:
                gen.counts[name] = gen.counts.get(name, 0) + 1
                cells.extend(gen.t_ic_loop(index))
                continue
        elif name == "irq_loop":
            if ncells - index < 2:
                name = "alu"
                code = gen.t_alu()
            else:
                gen.counts[name] = gen.counts.get(name, 0) + 1
                cells.extend(gen.t_irq_loop(index))
                continue
        elif name == "smc":
            code = gen.t_smc(index)
        elif name == "iret_ie":
            code = gen.t_iret_ie(index)
        else:
            code = getattr(gen, "t_" + name)()
        gen.counts[name] = gen.counts.get(name, 0) + 1
        cells.append(_pad_cell(code))
    return CaseSpec(root_seed=root_seed, case_index=case_index,
                    layout=layout, cells=cells,
                    template_counts=dict(sorted(gen.counts.items())))


# -- image assembly ---------------------------------------------------------


def build_image(spec: CaseSpec) -> Dict[int, bytes]:
    """Assemble the guest-physical segments for a case.

    Returns ``{gpa: bytes}``; the harness copies each into guest RAM
    and starts the vCPU at :data:`PRE_BASE`. Everything else (vector
    install, virtio config, paging, register seeding) happens in-guest.
    """
    segments: Dict[int, bytes] = {
        VEC_BASE: VECTOR_CODE,
        PRE_BASE: _build_preamble(spec.layout),
        BODY_BASE: b"".join(spec.cells) + build_tail(len(spec.cells)),
        USER_STUB: USER_CODE,
    }
    segments.update(RING_SEGMENTS)
    if spec.layout.paging:
        segments.update(_build_page_tables(spec.layout))
    return segments
