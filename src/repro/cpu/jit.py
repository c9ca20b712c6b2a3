"""Host-side block compiler: guest basic blocks become Python closures.

The interpreter pays a per-instruction host tax -- a fetch (one
translation, one probe of the decode memo), the opcode-class tests of
``CPUCore.execute``, a call of the row's ``fn`` -- for every simulated
instruction. This module applies the binary-translation idea one level
down: decode a guest basic block **once**, then emit a single
specialized Python function for it with operands, immediates and
dispatch resolved at compile time. Constant cycle charges (fetch hit,
base instruction cost, MUL/DIV extras) are pre-summed per block; only
dynamic MMU charges are accumulated at run time.

Three fast-path layers stack on top of the block closures (see
DESIGN.md, "JIT memory fast path"):

* **Inline caches** -- each load/store site in a paging block owns a
  ``(vpn, pte, frame_base)`` slot in a per-closure list. A hit requires
  the site's cached vpn to match *and* the TLB to still cache the same
  leaf PTE for it (one dict probe + integer compare); then the access
  skips ``mmu.translate`` entirely while replaying the exact bookkeeping
  a TLB hit performs (LRU touch, hit count, hit cycles).
* **Access forwarding** -- consecutive memory ops often land on the same
  page (push/pop runs, load-after-store). The compiler threads the last
  translation through locals and forwards it when the page matches,
  without even an IC probe. Nothing between two adjacent accesses can
  touch the TLB, so presence is guaranteed; only a store forwarding from
  a load re-checks W|D bits (a clean page must miss and walk to set D).
* **Self-looping blocks** -- a conditional branch whose taken target is
  its own block start re-enters the closure without going through the
  dispatcher, re-arming only the per-iteration counters. Instruction
  and cycle budgets are honoured at each loop edge via limits the
  dispatcher publishes on the core (``_loop_stop`` / ``_cycle_stop``).

One compiler serves every MMU (bare, shadow, two-stage) and every
controls record: at a system instruction the block commits the boundary
and calls ``CPUCore.system`` / ``trap`` with the instruction already
decoded, so intercepts are tested where the interpreter tests them;
only after port I/O does the block go on, while every test of the run
loop's top still would. The MMU is reached through ``translate`` plus
the three dispatcher facts on ``MMUBase`` (DESIGN.md, "Compiled
execution under a VMM"). Compilation is paid for by a process-wide cache of code objects
and a hotness tier counted per block entry (``_block_code``,
``BlockJIT._block_at``).

Correctness contract (enforced by the differential tests): simulated
``cycles``/``instret``/register/CSR state, TLB statistics and TLB LRU
order are **bit-identical** to the reference interpreter. Anything the
straight-line fast path cannot reproduce exactly -- traps, page faults,
VM exits, self-modifying code, TLB eviction of the executing code page,
instruction-budget boundaries -- restores the precise architectural
boundary state and either delivers the trap exactly as the interpreter
would or falls back to :meth:`CPUCore.step`.

:class:`BlockJIT` is the per-core engine behind ``CPUCore.run()``:
blocks keyed by *physical* start address (content-addressed), a per-pc
dispatch cache revalidated by PTE compare (so ``set_root``, ``invlpg``,
flushes and evictions all stop the fast path until the next successful
re-probe), and -- under binary translation -- the translated blocks of
:mod:`repro.core.bt`, whose hot native runs are ``paging=False``
closures (DESIGN.md, "How translated blocks run"). Both kinds sit under
the core's one physmem write watch and one SMC epoch.
"""

import math
import struct
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cpu.exits import VMExit
from repro.cpu.isa import (
    BRANCH_OPS,
    Cause,
    DIV_OPS,
    DecodeError,
    Instruction,
    LAST_BRANCH_OP,
    LAST_MEM_OP,
    MEM_OPS,
    OPS,
    Op,
    STORE_OPS,
    decode,
)
from repro.cpu.mmu import BareMMU
from repro.mem.paging import AccessType, PageFault, PTE_DIRTY, PTE_NOEXEC, PTE_USER, PTE_WRITABLE
from repro.util.errors import MemoryError_

__all__ = ["BlockJIT"]

#: Maximum instructions fused into one compiled block.
MAX_BLOCK_INSTRUCTIONS = 32

#: Dispatch/pc-cache size bound (cleared wholesale when exceeded).
_PC_CACHE_MAX = 16384

#: Dispatches of a block head the process has never compiled before it
#: is: host ``compile()`` costs what ~45 interpreted visits of a short
#: block do, so code that runs once (fuzz bodies, the boot path of a
#: never-seen image) must never meet it.
HOT = 32

#: Entry bound of the process-wide code cache.
CODE_CACHE_MAX = 1024

#: key -> (make, static_cycles, mem_ops, head); see :func:`_block_code`.
_CODE: Dict[Tuple, Tuple] = {}
#: ``(va, first word, paging, bare, cost signature)`` of every block in
#: ``_CODE``: a head found here is compiled on sight (almost
#: always a cache hit), any other is interpreted until it is hot.
_HEADS: Set[Tuple] = set()

#: Store-forwarding W|D mask: a store may reuse a load's translation
#: only if the cached PTE is already writable *and* dirty (otherwise the
#: reference lookup misses and walks to set D).
_WD = PTE_WRITABLE | PTE_DIRTY

#: ``lookup``'s answer for a head not hot yet: the most steps before it asks again.
COLD = MAX_BLOCK_INSTRUCTIONS


def _r(index: int) -> str:
    """Register read expression; r0 folds to the literal 0."""
    return "0" if index == 0 else f"regs[{index}]"


def _addr_expr(ins: Instruction) -> str:
    if ins.ra == 0:
        return str(ins.simm12 & 0xFFFFFFFF)
    return f"(regs[{ins.ra}] + {ins.simm12}) & 0xFFFFFFFF"


def _ab(ins: Instruction) -> Tuple[str, str]:
    """An ALU instruction's ``{a}``/``{b}`` for its :data:`OPS` expr."""
    return _r(ins.ra), str(ins.imm32) if ins.b_imm else _r(ins.rb)


class _Src:
    """Indented source accumulator."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


#: Every cost the emitted source embeds as a literal.
_COST_FIELDS = ("instr_cycles", "tlb_hit_cycles") + tuple(
    sorted({s.extra for s in OPS.values() if s.extra})
)


def _item_const_cycles(costs, ins: Instruction, fetch_c: int) -> int:
    """One block item's charge on every path through it (a system
    instruction's ``extra`` comes after its privilege test)."""
    extra = ins.extra if ins.op <= LAST_BRANCH_OP else ""
    return costs.instr_cycles + fetch_c + (getattr(costs, extra) if extra else 0)


def _cost_sig(costs) -> Tuple[int, ...]:
    return tuple(getattr(costs, name) for name in _COST_FIELDS)


def _block_code(
    costs,
    items: List[Tuple[Instruction, int]],
    *,
    paging: bool = False,
    bare: bool = False,
    head: Optional[Tuple] = None,
) -> Tuple[Callable, int, int]:
    """The process-wide half of a block: ``(make, static_cycles, mem_ops)``.

    Host ``compile()`` is ~1 ms a block and every VM of a run boots the
    same few kernels, so code objects are shared: the key is everything
    the emitted source depends on, and ``make(epoch_cell, ic_cell,
    worst_cycles)`` instantiates one core's closure from it
    (inline caches and epoch cells stay per core). Bounded, LRU.
    ``head`` is remembered while the entry lives (the hotness tier's
    "known" test, see :class:`BlockJIT`).
    """
    key = (tuple(items), paging, bare, _cost_sig(costs))
    entry = _CODE.pop(key, None)
    if entry is None:
        entry = _emit_block(costs, items, paging, bare) + (head,)
        if len(_CODE) >= CODE_CACHE_MAX:
            evicted = _CODE.pop(next(iter(_CODE)))
            _HEADS.discard(evicted[3])
    _CODE[key] = entry  # youngest: eviction takes the least recently used
    if head is not None:
        _HEADS.add(head)
    return entry[:3]


def _emit_block(
    costs,
    items: List[Tuple[Instruction, int]],
    paging: bool,
    bare: bool,
) -> Tuple[Callable, int, int]:
    """Generate and compile one block's closure factory.

    ``items`` is a list of (instruction, va) in which only the last may
    end a block (``Instruction.ends_block``); the cycle/instret/trap
    semantics produced are bit-identical to the reference path
    (``CPUCore.step``). A port instruction before the last commits its
    boundary, runs as a terminator would, and goes on only while every
    test of the run loop's top still would (DESIGN.md "What ends a
    block").
    ``paging`` says fetches and data accesses go through the TLB
    (``mmu.tlb_active``): fetch hits are then counted and charged.
    ``bare`` says the MMU is the plain hardware one (``BareMMU``): only
    then is a real-mode address its own physical address. Every other
    MMU is reached through ``mmu.translate``.
    """
    n = len(items)
    vpn = items[0][1] >> 12
    # Real-mode data accesses go straight to physmem only on the bare
    # MMU; elsewhere (shadow real mode: VA is a guest-physical address)
    # each one is translated.
    via_tr = paging or not bare
    fetch_c = costs.tlb_hit_cycles if paging else 0
    hit_c = costs.tlb_hit_cycles

    pre = [0]
    # Port I/O the block goes on after: its guards read the mode, the
    # epoch and the code page's entry the block was entered under.
    has_io = False
    for k, (ins, _va) in enumerate(items):
        pre.append(pre[-1] + _item_const_cycles(costs, ins, fetch_c))
        has_io = has_io or k < n - 1 and ins.op > LAST_BRANCH_OP

    mem_indices = [
        k for k, (ins, _va) in enumerate(items) if ins.op in MEM_OPS
    ]
    has_mem = bool(mem_indices)
    has_store = any(ins.op in STORE_OPS for ins, _ in items)
    has_div = any(ins.op in DIV_OPS for ins, _ in items)
    guarded = has_mem  # only memory accesses can raise mid-block
    snapshot = guarded or has_div
    # A store that invalidated compiled code bails at its boundary, so
    # rewritten code is fetched fresh.
    smc_check = has_store
    # Inline-cached translations: for blocks fetched through a TLB. The
    # hit path is a pure function of the cached PTE; the miss path
    # calls ``mmu.translate``, which under a VMM may VM-exit.
    fast_mem = paging and has_mem
    # A conditional branch back to the block's own start re-enters the
    # closure directly (budgets permitting) instead of re-dispatching.
    last_ins = items[-1][0]
    selfloop = (
        last_ins.op in BRANCH_OPS
        and OPS[last_ins.op].expr != ""
        and last_ins.imm32 == items[0][1]
    )

    # Static forwarding plan: memory op k may reuse the translation of
    # the previous memory op (cross-iteration in self-looping blocks:
    # the first op forwards from the last, since nothing between the
    # last access and the loop edge can touch the TLB).
    prev_mem: Dict[int, int] = {}
    if fast_mem:
        for j, k in enumerate(mem_indices):
            if j > 0:
                prev_mem[k] = mem_indices[j - 1]
            elif selfloop:
                prev_mem[k] = mem_indices[-1]
    site_slot = {k: 1 + 3 * j for j, k in enumerate(mem_indices)}
    need_fwd = bool(prev_mem)

    def _is_store(k: int) -> bool:
        return items[k][0].op in STORE_OPS

    # A store forwarding from a load must re-check W|D on the cached
    # PTE, so every path then has to keep the last PTE in a local.
    need_lt = any(
        _is_store(k) and not _is_store(p) for k, p in prev_mem.items()
    )

    src = _Src()
    src.emit(0, "def _block(cpu):")
    src.emit(1, "regs = cpu.regs")
    if paging:
        src.emit(1, "te = cpu.mmu.tlb")
        src.emit(1, "st = te.stats")
        src.emit(1, "mv = te._entries.move_to_end")
        if has_mem or has_io:
            src.emit(1, "eg = te.entry_get")
    if smc_check or has_io:
        src.emit(1, "j0 = _jw[0]")
    if has_io:
        src.emit(1, "_m = cpu.csr[0]")
    if has_mem:
        if via_tr:
            src.emit(1, "mmu = cpu.mmu")
            src.emit(1, "tr = mmu.translate")
            src.emit(1, "u = cpu.csr[0] == 1")
            src.emit(1, "pm = mmu.physmem")
        else:
            src.emit(1, "pm = cpu.mmu.physmem")
        ops_used = {ins.op for ins, _ in items}
        if Op.LD in ops_used:
            src.emit(1, "r32 = pm.read_u32")
        if Op.ST in ops_used:
            src.emit(1, "w32 = pm.write_u32")
        if Op.LDB in ops_used:
            src.emit(1, "r8 = pm.read_u8")
        if Op.STB in ops_used:
            src.emit(1, "w8 = pm.write_u8")
    if fast_mem or paging and has_io:
        # Entry guards: snapshot the code page's cached PTE (every fetch
        # in the block must keep hitting exactly this translation) and
        # drop the site caches if the privilege mode changed since fill.
        src.emit(1, f"cpte = eg({vpn})")
    if fast_mem:
        src.emit(1, "if u is not _ic[0]:")
        src.emit(2, "_ic[1:] = _ICR")
        src.emit(2, "_ic[0] = u")
        if need_fwd:
            src.emit(1, "_lp = -1")
            src.emit(1, "_lb = 0")
            if need_lt:
                src.emit(1, "_lt = 0")
    if selfloop:
        src.emit(1, "_is = cpu._loop_stop")
        src.emit(1, "_cs = cpu._cycle_stop")
    if guarded:
        src.emit(1, "try:")
    depth = 2 if guarded else 1
    if selfloop:
        src.emit(depth, "while 1:")
        depth += 1
    if snapshot:
        src.emit(depth, "c0 = cpu.cycles")
        src.emit(depth, "i0 = cpu.instret")
        src.emit(depth, "mc = 0")
    if fast_mem:
        src.emit(depth, "_h = 0")
    if guarded:
        src.emit(depth, "_n = -1")
    # The fetch hits a handler commits are counted from the last port
    # instruction the block went on after (``base``, statically).
    hits_base = guarded and paging and has_io
    if hits_base:
        src.emit(depth, "_g = 0")
    base = 0  # items committed by the last port instruction emitted

    def counters(d: int, j: int, mv_mode: Optional[str]) -> None:
        """Commit cycles/instret (+TLB fetch stats) at boundary ``j``
        (``j`` items retired)."""
        hits_extra = f" + _h * {hit_c}" if fast_mem and hit_c else ""
        if snapshot:
            src.emit(d, f"cpu.cycles = c0 + {pre[j]} + mc{hits_extra}")
            src.emit(d, f"cpu.instret = i0 + {j}")
        else:
            src.emit(d, f"cpu.cycles += {pre[j] - pre[base]}")
            src.emit(d, f"cpu.instret += {j - base}")
        if paging:
            if fast_mem:
                src.emit(d, f"st.hits += {j - base} + _h")
                src.emit(d, "_ich[0] += _h")
            else:
                src.emit(d, f"st.hits += {j - base}")
            if mv_mode == "plain":
                src.emit(d, f"mv({vpn})")
            elif mv_mode == "guarded":
                src.emit(d, f"if {vpn} in te._entries:")
                src.emit(d + 1, f"mv({vpn})")

    for k, (ins, va) in enumerate(items):
        op = ins.op
        nxt = (va + ins.length) & 0xFFFFFFFF
        last = k == n - 1

        if op in MEM_OPS:
            is_store = op in STORE_OPS

            def access_stmt(loc: str) -> str:
                if op is Op.LD:
                    tgt = f"regs[{ins.rd}] = " if ins.rd else ""
                    return f"{tgt}r32({loc})"
                if op is Op.LDB:
                    tgt = f"regs[{ins.rd}] = " if ins.rd else ""
                    return f"{tgt}r8({loc})"
                if op is Op.ST:
                    return f"w32({loc}, {_r(ins.rb)})"
                return f"w8({loc}, {_r(ins.rb)} & 0xFF)"

            if not fast_mem:
                # Conservative path (real-mode blocks): every access
                # goes through translate / direct physmem.
                src.emit(depth, f"_n = {k}")
                addr = _addr_expr(ins)
                if via_tr:
                    at = "_AW" if is_store else "_AR"
                    src.emit(depth, f"_a, _c = tr({addr}, {at}, u)")
                    src.emit(depth, "mc += _c")
                    loc = "_a"
                else:
                    loc = addr
                src.emit(depth, access_stmt(loc))
                # Stores may have hit compiled code (jit epoch); bail at
                # the exact boundary so the next fetch re-validates.
                if is_store and smc_check and not last:
                    src.emit(depth, "if _jw[0] != j0:")
                    counters(depth + 1, k + 1, None)
                    src.emit(depth + 1, f"cpu.pc = {nxt}")
                    src.emit(depth + 1, "return")
                continue

            # Inline-cached path. Order per access, mirroring the
            # interpreter: fetch LRU touch, translate (forward / IC /
            # translate), access, then guard bailouts.
            b = site_slot[k]
            at = "_AW" if is_store else "_AR"
            src.emit(depth, f"_n = {k}")
            src.emit(depth, f"mv({vpn})")
            src.emit(depth, f"_va = {_addr_expr(ins)}")
            src.emit(depth, "_vp = _va >> 12")

            def smc_bail(d: int) -> None:
                if is_store and not last:
                    src.emit(d, "if _jw[0] != j0:")
                    counters(d + 1, k + 1, None)
                    src.emit(d + 1, f"cpu.pc = {nxt}")
                    src.emit(d + 1, "return")

            prev = prev_mem.get(k)
            head = "if"
            if prev is not None:
                cond = "_vp == _lp"
                if is_store and not _is_store(prev):
                    cond += f" and _lt & {_WD} == {_WD}"
                src.emit(depth, f"if {cond}:")
                src.emit(depth + 1, "mv(_vp)")
                src.emit(depth + 1, "_h += 1")
                src.emit(depth + 1, access_stmt("_lb | (_va & 0xFFF)"))
                smc_bail(depth + 1)
                head = "elif"
            src.emit(
                depth, f"{head} _ic[{b}] == _vp and eg(_vp) == _ic[{b + 1}]:"
            )
            src.emit(depth + 1, "mv(_vp)")
            src.emit(depth + 1, "_h += 1")
            if need_fwd:
                src.emit(depth + 1, "_lp = _vp")
                src.emit(depth + 1, f"_lb = _ic[{b + 2}]")
                if need_lt:
                    src.emit(depth + 1, f"_lt = _ic[{b + 1}]")
                src.emit(depth + 1, access_stmt("_lb | (_va & 0xFFF)"))
            else:
                src.emit(depth + 1, access_stmt(f"_ic[{b + 2}] | (_va & 0xFFF)"))
            smc_bail(depth + 1)
            src.emit(depth, "else:")
            src.emit(depth + 1, f"_a, _c = tr(_va, {at}, u)")
            src.emit(depth + 1, "mc += _c")
            src.emit(depth + 1, f"_ic[{b}] = _vp")
            if need_lt:
                src.emit(depth + 1, "_lt = eg(_vp)")
                src.emit(depth + 1, f"_ic[{b + 1}] = _lt")
            else:
                src.emit(depth + 1, f"_ic[{b + 1}] = eg(_vp)")
            src.emit(depth + 1, f"_ic[{b + 2}] = _a & 0xFFFFF000")
            if need_fwd:
                src.emit(depth + 1, "_lp = _vp")
                src.emit(depth + 1, f"_lb = _ic[{b + 2}]")
            src.emit(depth + 1, access_stmt("_a"))
            # The translate may have evicted or changed the executing
            # code page's entry (so the next fetch would miss); stores
            # may also have hit compiled code. Bail at the boundary.
            conds = [f"eg({vpn}) != cpte"]
            if is_store and smc_check:
                conds.append("_jw[0] != j0")
            if not last:
                src.emit(depth + 1, f"if {' or '.join(conds)}:")
                counters(depth + 2, k + 1, None)
                src.emit(depth + 2, f"cpu.pc = {nxt}")
                src.emit(depth + 2, "return")
            continue

        if op in DIV_OPS:
            a, b = _ab(ins)
            src.emit(depth, f"_b = {b}")
            src.emit(depth, "if not _b:")
            counters(depth + 1, k + 1, "guarded" if paging else None)
            src.emit(depth + 1, f"cpu.pc = {va}")
            if guarded:
                # Everything is committed (the DIV0 retires, as in
                # CPUCore.execute). Under deprivileged controls the trap
                # exits, and what unwinds out of it would land in our own
                # handlers and roll state back to the last *memory* op's
                # boundary -- disarm them.
                src.emit(depth + 1, "_n = -1")
            src.emit(depth + 1, f"cpu.trap(_DIV0, 0, {va})")
            src.emit(depth + 1, "return")
            if ins.rd:
                expr = OPS[op].expr.format(a=a, b="_b")
                src.emit(depth, f"regs[{ins.rd}] = {expr}")
            continue

        if op in BRANCH_OPS:
            mv_mode = "plain" if paging else None
            counters(depth, n, mv_mode)
            if op is Op.JAL:
                if ins.rd:
                    src.emit(depth, f"regs[{ins.rd}] = {nxt}")
                src.emit(depth, f"cpu.pc = {ins.imm32}")
            elif op is Op.JALR:
                src.emit(depth, f"_t = {_r(ins.ra)}")
                if ins.rd:
                    src.emit(depth, f"regs[{ins.rd}] = {nxt}")
                src.emit(depth, "cpu.pc = _t")
            else:
                taken = OPS[op].expr.format(a=_r(ins.ra), b=_r(ins.rb))
                if selfloop:
                    # Loop back without re-dispatching while both budget
                    # ceilings allow a whole further iteration; any
                    # other condition returns to the dispatcher, which
                    # re-validates everything before the next entry.
                    src.emit(depth, f"if {taken}:")
                    src.emit(depth + 1, f"cpu.pc = {ins.imm32}")
                    src.emit(
                        depth + 1,
                        f"if cpu.instret + {n} <= _is "
                        f"and cpu.cycles + _W < _cs:",
                    )
                    src.emit(depth + 2, "continue")
                    src.emit(depth + 1, "return")
                    src.emit(depth, f"cpu.pc = {nxt}")
                    src.emit(depth, "return")
                    continue
                src.emit(
                    depth,
                    f"cpu.pc = {ins.imm32} if {taken} else {nxt}",
                )
            src.emit(depth, "return")
            continue

        if op > LAST_BRANCH_OP:
            # Commit the boundary as before a branch, then what
            # CPUCore.execute does after fetch. Block keys carry no
            # mode, so privilege is a run-time test.
            counters(depth, k + 1, "plain" if paging else None)
            src.emit(depth, f"cpu.pc = {va}")
            if guarded:
                src.emit(depth, "_n = -1")  # as for DIV0: ours no more
            t = f"_I[{k}]"
            # An exit is a call that returns here (a "no" unwinds).
            arm = [f"cpu.system(cpu, cpu.controls, {t}, {t}.op, {va}, {nxt})"]
            if ins.extra:
                arm.insert(0, f"cpu.cycles += {getattr(costs, ins.extra)}")
            if ins.ends_block or last:
                user = ""  # what user mode does instead: trap, or ignore it
                if ins.user_traps:
                    user = f"cpu.trap(_PRIV, {int(op)}, {va}, {t})"
                elif ins.user_ignored:
                    user = f"cpu.pc = {nxt}"
                if user:
                    src.emit(depth, "if cpu.csr[0] == 1:")
                    src.emit(depth + 1, user)
                    src.emit(depth + 1, "return")
                for line in arm:
                    src.emit(depth, line)
                src.emit(depth, "return")
                continue
            # Port I/O: the same arms, then on only where the run loop's
            # top would be. Under a translator a user-mode one is always
            # reflected into the guest's kernel, which that top stops at.
            src.emit(depth, "if _m == 1:")
            src.emit(depth + 1, f"cpu.trap(_PRIV, {int(op)}, {va}, {t})")
            src.emit(depth + 1, "if cpu.translator is not None:")
            src.emit(depth + 2, "return")
            src.emit(depth, "else:")
            for line in arm:
                src.emit(depth + 1, line)
            stop = [f"cpu.pc != {nxt}", "cpu.csr[0] != _m", "cpu.halted",
                    "cpu.csr[3] and cpu.pending_irqs", "_jw[0] != j0"]  # csr 3: IE
            if paging:
                stop.append(f"eg({vpn}) != cpte")
            stop += [f"cpu.instret + {n - k - 1} > cpu._loop_stop",
                     "cpu.cycles + _W >= cpu._cycle_stop"]
            src.emit(depth, f"if {' or '.join(stop)}:")
            src.emit(depth + 1, "return")
            if not paging and not bare:
                # Shadow real mode: the host may have re-backed the frame.
                src.emit(depth, "try:")
                src.emit(depth + 1,
                         f"if cpu.mmu.real_pa({nxt}) != _pa + {nxt - items[0][1]}:")
                src.emit(depth + 2, "return")
                src.emit(depth, "except _RX:")
                src.emit(depth + 1, "return")
            base = k + 1
            if snapshot:
                src.emit(depth, f"c0 = cpu.cycles - {pre[base]}")
                src.emit(depth, f"i0 = cpu.instret - {base}")
                src.emit(depth, "mc = 0")
            if fast_mem:
                src.emit(depth, "_h = 0")
            if need_fwd:
                src.emit(depth, "_lp = -1")  # the service may have touched the TLB
            if hits_base:
                src.emit(depth, f"_g = {base}")
            if selfloop:
                src.emit(depth, "_is = cpu._loop_stop")
                src.emit(depth, "_cs = cpu._cycle_stop")
            continue

        # Pure ALU / moves.
        if ins.rd and OPS[op].expr:
            a, b = _ab(ins)
            src.emit(depth, f"regs[{ins.rd}] = {OPS[op].expr.format(a=a, b=b)}")

    # Fall-through block end (size/page limit).
    if last_ins.op <= LAST_MEM_OP:
        end_va = (items[-1][1] + last_ins.length) & 0xFFFFFFFF
        mv_mode = "plain" if paging and last_ins.op not in MEM_OPS else None
        counters(depth, n, mv_mode)
        src.emit(depth, f"cpu.pc = {end_va}")
        src.emit(depth, "return")

    if guarded:
        # A page fault retires the faulting access (the trap is
        # delivered with it architecturally complete), but a VMExit is
        # serviced by the monitor and the instruction re-executes or is
        # finished by the emulator -- that attempt does not retire,
        # mirroring the interpreter's rollback in CPUCore.execute.
        for handler, retired, tail in (
            (
                "except _PF as f:",
                "_n + 1",
                f"cpu.trap(_PFW if f.access is _AW else _PFR, "
                f"f.vaddr, _V[_n], _I[_n])",
            ),
            ("except _VX:", "_n", "raise"),
            ("except BaseException:", "_n + 1", "raise"),
        ):
            src.emit(1, handler)
            src.emit(2, "if _n < 0:")
            src.emit(3, "raise")
            hits_extra = f" + _h * {hit_c}" if fast_mem and hit_c else ""
            src.emit(2, f"cpu.cycles = c0 + _P[_n + 1] + mc{hits_extra}")
            src.emit(2, f"cpu.instret = i0 + {retired}")
            if paging:
                hits = "_n + 1 - _g" if hits_base else "_n + 1"
                if fast_mem:
                    src.emit(2, f"st.hits += {hits} + _h")
                    src.emit(2, "_ich[0] += _h")
                else:
                    src.emit(2, f"st.hits += {hits}")
                src.emit(2, f"if {vpn} in te._entries:")
                src.emit(3, f"mv({vpn})")
            src.emit(2, "cpu.pc = _V[_n]")
            src.emit(2, tail)
            if tail != "raise":
                src.emit(2, "return")

    # Everything per core arrives as an argument of the factory; the
    # module namespace holds only what every instance can share.
    make = _Src()
    make.emit(0, "def _make(_jw, _ich, _W, _pa=0):")
    if fast_mem:
        # [mode, site0_vpn, site0_pte, site0_base, site1_vpn, ...]
        make.emit(1, f"_ic = [False] + [-1, 0, 0] * {len(mem_indices)}")
    make.lines.extend("    " + line for line in src.lines)
    make.emit(1, "return _block")
    ns: Dict[str, object] = {
        "_P": tuple(pre),
        "_V": tuple(va for _, va in items),
        "_I": tuple(ins for ins, _ in items),
        "_PF": PageFault,
        "_VX": VMExit,
        "_AW": AccessType.WRITE,
        "_AR": AccessType.READ,
        "_PFW": Cause.PF_WRITE,
        "_PFR": Cause.PF_READ,
        "_DIV0": Cause.DIV0,
        "_PRIV": Cause.PRIV,
        "_RX": (MemoryError_, VMExit),
        "_ICR": (-1, 0, 0) * len(mem_indices),
    }
    exec(compile(make.text(), "<pyvisor-jit>", "exec"), ns)  # noqa: S102
    return ns["_make"], pre[n], len(mem_indices)


class BlockJIT:
    """Per-core compiled-block cache behind ``CPUCore.run()``.

    Serves every MMU alike. Blocks are keyed ``(pa, va, paging)`` --
    content-addressed by physical start so a root switch never runs
    stale code -- and dropped when a physmem write watcher reports a
    store into their frame. With the TLB in front of fetches
    (``mmu.tlb_active``) dispatch goes through a per-``(pc, mode)``
    cache revalidated by one PTE compare against the live TLB entry, so
    flush / invlpg / eviction / PTE change -- and under a VMM every
    host-side remap, which flushes or invalidates the same TLB -- force
    a fresh EXEC probe before any stale block runs. In real mode there
    is no entry to compare, so each dispatch re-asks the MMU for the
    pc's physical address (``mmu.real_pa``: the gfn -> hfn map under
    shadow paging, the identity on bare hardware).

    Compilation is tiered: a head this process has compiled before
    (``_HEADS``) is compiled on sight out of the shared code cache; any
    other is left to :meth:`CPUCore.step` until it has been dispatched
    ``HOT`` times.
    """

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self.mmu = cpu.mmu
        self.physmem = cpu.mmu.physmem
        #: The one MMU-class fact the compiler uses (see _emit_block).
        self._bare = type(cpu.mmu) is BareMMU
        self._blocks: Dict[Tuple[int, int, bool], Tuple] = {}
        self._frame_keys: Dict[int, set] = {}
        #: Dispatch caches: (pc << 1) | mode -> (block, vpn, pte) under
        #: paging; pc -> (block, pa) in real mode. Entries
        #: self-invalidate by PTE / pa compare; SMC clears them wholesale.
        self._pc_pg: Dict[int, Tuple] = {}
        self._pc_real: Dict[int, Tuple] = {}
        #: Block key -> dispatches while cold (the hotness tier).
        self._heat: Dict[Tuple[int, int, bool], int] = {}
        #: The vas of ``_heat``'s keys: a cold run stops before one.
        self.heating: Set[int] = set()
        #: The SMC epoch: bumped whenever blocks are dropped, so a block
        #: running now stops at its next store (compiled and translated).
        self._epoch_cell = [0]
        #: Shared across closures: data accesses served by inline caches
        #: or forwarding (host-side telemetry; sim stats are unaffected).
        self._ic_cell = [0]
        #: Every cost a compiled block embeds: a core's cost model is
        #: fixed for its life, so this is computed once.
        self.sig = _cost_sig(cpu.costs)
        self._costs_sig = self.sig + (self.mmu.translate_bound,)
        #: Binary translation's blocks (``repro.core.bt``), keyed (guest
        #: root, pc); the (va, va) pairs dispatch has chained; frame ->
        #: keys of the translated blocks fetched through a page table on
        #: it (a store there makes them suspect).
        self.translated: Dict[Tuple[Optional[int], int], object] = {}
        self.chains: Set[Tuple[int, int]] = set()
        self._table_keys: Dict[int, set] = {}
        self.blocks_compiled = 0
        self.blocks_invalidated = 0
        self.fallback_steps = 0
        self.cold_steps = 0

    # -- bookkeeping -----------------------------------------------------

    def watch(self, key, frames, tables) -> None:
        """A store into one of ``frames`` drops block ``key``; one into
        one of ``tables`` makes translated block ``key`` suspect."""
        for pfn in frames:
            self._frame_keys.setdefault(pfn, set()).add(key)
        for pfn in tables:
            self._table_keys.setdefault(pfn, set()).add(key)
        self.cpu._code_pfns.update(frames, tables)

    def invalidate_pfn(self, pfn: int) -> None:
        """A store hit a watched frame: the translated blocks fetched
        through a page table on it are suspect, the blocks with a byte on
        it are dropped."""
        translated = self.translated
        for key in self._table_keys.pop(pfn, ()):
            block = translated.get(key)
            if block is not None:
                block.suspect = True
        keys = self._frame_keys.pop(pfn, None)
        if keys:
            self.drop(keys)

    def drop(self, keys) -> None:
        """Forget the blocks ``keys`` name and bump the epoch. A
        translated block's key is (root, pc); the chains into and out of
        its pc go with it, whatever the root."""
        blocks, translated = self._blocks, self.translated
        vas = set()
        for key in keys:
            if len(key) == 2:
                translated.pop(key, None)
                vas.add(key[1])
            elif blocks.pop(key, None):
                self.blocks_invalidated += 1
        if vas:  # in place: a running dispatch holds the set
            self.chains.difference_update([
                link for link in self.chains if link[0] in vas or link[1] in vas])
        # The dispatch caches hold direct references to dropped blocks.
        self._pc_pg.clear()
        self._pc_real.clear()
        self._epoch_cell[0] += 1

    def translated_code(self, block) -> list:
        """A hot translated block's code: its callouts, and each native
        run between them as ``(fn, n, index, tail_store, end, worst)`` --
        a closure of :func:`_block_code`, the run's length and first
        item's index, whether its last item stores, the pc it falls
        through to, its charge if every access walks. ``paging=False`` is
        the walk's charge (no fetch; data through ``mmu.translate``); the
        closures' SMC cell is the epoch. A run never laps in place: each
        lap of a guest loop is a dispatch of its own.
        """
        items = block.items
        vas = list(accumulate((ins.length for _, ins in items),
                              initial=block.start_va))
        code: list = []
        index = 0
        for is_callout, group in groupby(items, itemgetter(0)):
            group = list(group)
            n = len(group)
            if is_callout:
                code += group
            else:
                run = [(ins, vas[index + k]) for k, (_, ins) in enumerate(group)]
                make, static_cycles, mem_ops = _block_code(
                    self.cpu.costs, run, head=(run[0][1], run[0][0], self.sig))
                code.append(((make(self._epoch_cell, None, math.inf), n, index,
                              run[-1][0].stores, vas[index + n] & 0xFFFFFFFF,
                              static_cycles + mem_ops * self.mmu.translate_bound), None))
                self.cpu.translator.runs_compiled += 1
            index += n
        return code

    def stats(self) -> Dict[str, int]:
        return {
            "blocks_compiled": self.blocks_compiled,
            "blocks_invalidated": self.blocks_invalidated,
            "fallback_steps": self.fallback_steps,
            "cold_steps": self.cold_steps,
            "blocks_cached": len(self._blocks),
            "ic_hits": self._ic_cell[0],
            "pc_cache_entries": len(self._pc_pg) + len(self._pc_real),
        }

    # -- dispatch --------------------------------------------------------

    def lookup(self, pc: int, mode: int = 0):
        """Return ``(closure, n_instructions, worst_cycles)``, or an int:
        how many instructions to step before asking again. 1: EXEC
        translation not cached (the step walks and refills), or nothing
        here compiles. :data:`COLD`: the head is not hot yet, and is
        stepped to where its block ends, so heat counts block entries.
        ``mode`` is the live MODE csr (privilege is part of the key).
        """
        mmu = self.mmu
        if mmu.tlb_active:
            key = (pc << 1) | mode
            ent = self._pc_pg.get(key)
            if ent is not None and mmu.tlb.entry_get(ent[1]) == ent[2]:
                blk = ent[0]
            else:
                vpn = pc >> 12
                # What TLB.lookup would hit for this fetch, without its
                # side effects (stats, LRU order): those are the step's.
                pte = mmu.tlb.entry_get(vpn)
                if pte is None or mode == 1 and not pte & PTE_USER or pte & PTE_NOEXEC:
                    self.fallback_steps += 1
                    return 1
                blk = self._block_at((pte >> 12 << 12) | (pc & 0xFFF), pc, True)
                if blk.__class__ is int:
                    return blk
                if len(self._pc_pg) > _PC_CACHE_MAX:
                    self._pc_pg.clear()
                self._pc_pg[key] = (blk, vpn, pte)
        else:
            try:
                pa = mmu.real_pa(pc)
            except (MemoryError_, VMExit):
                self.fallback_steps += 1
                return 1  # the step's fetch raises it
            ent = self._pc_real.get(pc)
            if ent is not None and ent[1] == pa:
                blk = ent[0]
            else:
                blk = self._block_at(pa, pc, False)
                if blk.__class__ is int:
                    return blk
                if len(self._pc_real) > _PC_CACHE_MAX:
                    self._pc_real.clear()
                self._pc_real[pc] = (blk, pa)
        if blk:
            return blk
        self.fallback_steps += 1
        return 1

    def _block_at(self, pa: int, va: int, paging: bool):
        """This core's block for ``(pa, va)`` (``()`` if nothing there
        compiles), or :data:`COLD` while its head is not hot."""
        key = (pa, va, paging)
        blk = self._blocks.get(key)
        if blk is not None:
            return blk
        try:
            word = struct.unpack_from("<I", self.physmem._data, pa)[0]
        except struct.error:  # past the end of RAM
            word = -1
        # The tier, decided before any decode: hot enough, or a head
        # the process already holds code for.
        heat = self._heat.get(key, 0) + 1
        head = (va, word, paging, self._bare, self._costs_sig)
        if heat < HOT and head not in _HEADS:
            if len(self._heat) > _PC_CACHE_MAX:
                self._heat.clear()
                self.heating.clear()
            self._heat[key] = heat
            self.heating.add(va)
            self.cold_steps += 1
            return COLD
        self._heat.pop(key, None)
        self.heating.discard(va)
        return self._compile(key, pa, va, paging, head)

    def _compile(self, key, pa: int, va: int, paging: bool, head) -> Tuple:
        """Build, cache and return the block at ``(pa, va)``. What ends
        a block: the first instruction that ``ends_block`` (a branch or a
        system instruction other than OUT/IN), ``MAX_BLOCK_INSTRUCTIONS``,
        the page (one that straddles it is the interpreter's) and an
        undecodable word."""
        read_u32 = self.physmem.read_u32
        items: List[Tuple[Instruction, int]] = []
        blk: Tuple = ()  # nothing here compiles
        room = 0x1000 - (va & 0xFFF) if pa < self.physmem.size else 0
        off = 0
        try:
            while off + 4 <= room and len(items) < MAX_BLOCK_INSTRUCTIONS:
                word = read_u32(pa + off)
                length = 8 if word >> 31 else 4
                if off + length > room:
                    break
                ins = decode(word, read_u32(pa + off + 4) if length == 8 else 0)
                items.append((ins, va + off))
                off += length
                if ins.ends_block:
                    break
        except DecodeError:
            pass  # undecodable tail: the block ends before it
        if items:
            make, static_cycles, mem_ops = _block_code(
                self.cpu.costs, items, paging=paging, bare=self._bare,
                head=head,
            )
            # What the block charges if every access walks: the
            # dispatcher's test that it fits a cycle budget.
            worst = static_cycles + mem_ops * self.mmu.translate_bound
            blk = (make(self._epoch_cell, self._ic_cell, worst, pa), len(items), worst)
            self.blocks_compiled += 1
        self._blocks[key] = blk
        pfn = pa >> 12
        self._frame_keys.setdefault(pfn, set()).add(key)
        self.cpu._code_pfns.add(pfn)
        return blk
