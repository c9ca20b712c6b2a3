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
controls record: a system instruction ends its block, which commits the
boundary and calls ``CPUCore.system`` / ``trap`` with the instruction
already decoded, so intercepts are tested where the interpreter tests
them, and the MMU is reached through ``translate`` plus the three
dispatcher facts on ``MMUBase`` (DESIGN.md, "Compiled execution under a
VMM"). Compilation is paid for by a process-wide cache of code objects
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

One consumer: :class:`BlockJIT`, the per-core engine behind
``CPUCore.run()``. Blocks are keyed by *physical* start address
(content-addressed), validated against physmem write watchers
(self-modifying code) and a per-pc dispatch cache revalidated by PTE
compare (so ``set_root``, ``invlpg``, flushes and evictions all stop the
fast path until the next successful re-probe). The binary translator's
kernel-mode half does not come here (DESIGN.md, "Why the translator has
no compiled path"); its user-mode half does, through ``cpu.run``.
"""

import struct
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
from repro.mem.paging import AccessType, PageFault, PTE_DIRTY, PTE_WRITABLE
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

#: Negative-cache marker for "starts with something we cannot compile".
_UNCOMPILABLE: Tuple = ()

_U32 = struct.Struct("<I")


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
_COST_FIELDS = ("instr_cycles", "tlb_hit_cycles", "tlb_miss_cycles") + tuple(
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
    be a branch or a system instruction; the cycle/instret/trap
    semantics produced are bit-identical to the reference path
    (``CPUCore.step``).
    ``paging`` says fetches and data accesses go through the TLB
    (``mmu.tlb_active``): fetch hits are then counted and charged.
    ``bare`` says the MMU is the plain hardware one (``BareMMU``): only
    then is a real-mode address its own physical address, and only then
    may the reference walk be inlined (``deep``). Every other MMU is
    reached through ``mmu.translate``.
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
    for ins, _va in items:
        pre.append(pre[-1] + _item_const_cycles(costs, ins, fetch_c))

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
    # Self-looping blocks are hot by construction, so their IC-miss
    # slow path additionally inlines the whole reference translate
    # (TLB probe + 2-level walk + insert/evict bookkeeping) straight
    # into the closure, replicating translate/walker.walk/TLB.insert
    # statement for statement -- BareMMU's, so only over it.
    # Dispatcher-bound blocks keep the plain `tr()` call: their
    # preamble must stay cheap.
    deep = fast_mem and selfloop and bare
    miss_c = costs.tlb_miss_cycles

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
        if has_mem:
            src.emit(1, "eg = te.entry_get")
    if smc_check:
        src.emit(1, "j0 = _jw[0]")
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
    if fast_mem:
        # Entry guards: snapshot the code page's cached PTE (every fetch
        # in the block must keep hitting exactly this translation) and
        # drop the site caches if the privilege mode changed since fill.
        src.emit(1, f"cpte = eg({vpn})")
        src.emit(1, "if u is not _ic[0]:")
        src.emit(2, "_ic[1:] = _ICR")
        src.emit(2, "_ic[0] = u")
        if deep:
            src.emit(1, "_e = te._entries")
            src.emit(1, "_wk = mmu.walker")
            src.emit(1, "_rpa = mmu.root_pa")
            src.emit(1, "_cap = te.capacity")
            src.emit(1, "_mb = pm._data")
            src.emit(1, "_msz = pm.size")
            src.emit(1, "pr32 = pm.read_u32")
            src.emit(1, "pw32 = pm.write_u32")
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

    def counters(d: int, j: int, mv_mode: Optional[str]) -> None:
        """Commit cycles/instret (+TLB fetch stats) at boundary ``j``
        (``j`` items retired)."""
        hits_extra = f" + _h * {hit_c}" if fast_mem and hit_c else ""
        if snapshot:
            src.emit(d, f"cpu.cycles = c0 + {pre[j]} + mc{hits_extra}")
            src.emit(d, f"cpu.instret = i0 + {j}")
        else:
            src.emit(d, f"cpu.cycles += {pre[j]}")
            src.emit(d, f"cpu.instret += {j}")
        if paging:
            if fast_mem:
                src.emit(d, f"st.hits += {j} + _h")
                src.emit(d, "_ich[0] += _h")
            else:
                src.emit(d, f"st.hits += {j}")
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
            if deep:
                # Inline replica of BareMMU.translate on this access
                # class: probe (reference lookup conditions + stats +
                # LRU), then walker.walk (raw reads, fault order, A/D
                # write visibility), then TLB.insert (LRU refresh or
                # evict + epoch), then the IC/forwarding fill.
                hit_cond = "not u or _pte & 4"
                if is_store:
                    hit_cond = f"({hit_cond}) and _pte & 18 == 18"
                src.emit(depth + 1, "_pte = _e.get(_vp)")
                src.emit(depth + 1, f"if _pte is not None and ({hit_cond}):")
                src.emit(depth + 2, "mv(_vp)")
                src.emit(depth + 2, "st.hits += 1")
                if hit_c:
                    src.emit(depth + 2, f"mc += {hit_c}")
                src.emit(depth + 2, "_fb = _pte & 0xFFFFF000")
                src.emit(depth + 1, "else:")
                d = depth + 2
                src.emit(d, "st.misses += 1")
                src.emit(d, "_wk.walks += 1")
                src.emit(d, "_p1 = _rpa + ((_va >> 22) & 0x3FF) * 4")
                src.emit(d, "if _p1 + 4 > _msz:")
                src.emit(d + 1, "pr32(_p1)")
                src.emit(d, "_pde = _up(_mb, _p1)[0]")
                src.emit(d, "if not _pde & 1:")
                src.emit(d + 1, "_wk.faults += 1")
                src.emit(d + 1, f"raise _PF(_va, {at}, u, False)")
                src.emit(d, "_p2 = (_pde >> 12 << 12) + ((_va >> 12) & 0x3FF) * 4")
                src.emit(d, "if _p2 + 4 > _msz:")
                src.emit(d + 1, "pr32(_p2)")
                src.emit(d, "_pte = _up(_mb, _p2)[0]")
                src.emit(d, "if not _pte & 1:")
                src.emit(d + 1, "_wk.faults += 1")
                src.emit(d + 1, f"raise _PF(_va, {at}, u, False)")
                src.emit(d, "if u and not _pde & _pte & 4:")
                src.emit(d + 1, "_wk.faults += 1")
                src.emit(d + 1, f"raise _PF(_va, {at}, u, True)")
                if is_store:
                    src.emit(d, "if not _pde & _pte & 2:")
                    src.emit(d + 1, "_wk.faults += 1")
                    src.emit(d + 1, f"raise _PF(_va, {at}, u, True)")
                src.emit(d, "if not _pde & 8:")
                src.emit(d + 1, "pw32(_p1, _pde | 8)")
                src.emit(d, f"_t = _pte | {24 if is_store else 8}")
                src.emit(d, "if _t != _pte:")
                src.emit(d + 1, "pw32(_p2, _t)")
                src.emit(d + 1, "_pte = _t")
                src.emit(d, "if _vp in _e:")
                src.emit(d + 1, "mv(_vp)")
                src.emit(d + 1, "if _e[_vp] != _pte:")
                src.emit(d + 2, "te.epoch += 1")
                src.emit(d + 1, "_e[_vp] = _pte")
                src.emit(d, "else:")
                src.emit(d + 1, "if len(_e) >= _cap:")
                src.emit(d + 2, "_e.popitem(last=False)")
                src.emit(d + 2, "st.evictions += 1")
                src.emit(d + 2, "te.epoch += 1")
                src.emit(d + 1, "_e[_vp] = _pte")
                src.emit(d, f"mc += {miss_c}")
                src.emit(d, "_fb = _pte & 0xFFFFF000")
                src.emit(depth + 1, f"_ic[{b}] = _vp")
                src.emit(depth + 1, f"_ic[{b + 1}] = _pte")
                src.emit(depth + 1, f"_ic[{b + 2}] = _fb")
                if need_fwd:
                    src.emit(depth + 1, "_lp = _vp")
                    src.emit(depth + 1, "_lb = _fb")
                    if need_lt:
                        src.emit(depth + 1, "_lt = _pte")
                src.emit(depth + 1, access_stmt("_fb | (_va & 0xFFF)"))
            else:
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
                # CPUCore.execute).  Under deprivileged
                # controls trap raises VMExit(GUEST_TRAP), which would
                # land in our own except-_VX handler and roll state
                # back to the last *memory* op's boundary -- disarm it.
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
            # Ends the block: commit the boundary as before a branch,
            # then what CPUCore.execute does after fetch. Block keys
            # carry no mode, so privilege is a run-time test.
            counters(depth, n, "plain" if paging else None)
            src.emit(depth, f"cpu.pc = {va}")
            if guarded:
                src.emit(depth, "_n = -1")  # as for DIV0: ours no more
            user = ""  # what user mode does instead: trap, or ignore it
            if ins.user_traps:
                user = f"cpu.trap(_PRIV, {int(op)}, {va}, _T)"
            elif ins.user_ignored:
                user = f"cpu.pc = {nxt}"
            if user:
                src.emit(depth, "if cpu.csr[0] == 1:")
                src.emit(depth + 1, user)
                src.emit(depth + 1, "return")
            if ins.extra:
                src.emit(depth, f"cpu.cycles += {getattr(costs, ins.extra)}")
            src.emit(depth, f"cpu.system(cpu, cpu.controls, _T, _T.op, {va}, {nxt})")
            src.emit(depth, "return")
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
                if fast_mem:
                    src.emit(2, "st.hits += _n + 1 + _h")
                    src.emit(2, "_ich[0] += _h")
                else:
                    src.emit(2, "st.hits += _n + 1")
                src.emit(2, f"if {vpn} in te._entries:")
                src.emit(3, f"mv({vpn})")
            src.emit(2, "cpu.pc = _V[_n]")
            src.emit(2, tail)
            if tail != "raise":
                src.emit(2, "return")

    # Everything per core arrives as an argument of the factory; the
    # module namespace holds only what every instance can share.
    make = _Src()
    make.emit(0, "def _make(_jw, _ich, _W):")
    if fast_mem:
        # [mode, site0_vpn, site0_pte, site0_base, site1_vpn, ...]
        make.emit(1, f"_ic = [False] + [-1, 0, 0] * {len(mem_indices)}")
    make.lines.extend("    " + line for line in src.lines)
    make.emit(1, "return _block")
    ns: Dict[str, object] = {
        "_P": tuple(pre),
        "_V": tuple(va for _, va in items),
        "_I": tuple(ins for ins, _ in items),
        "_T": last_ins,
        "_PF": PageFault,
        "_VX": VMExit,
        "_AW": AccessType.WRITE,
        "_AR": AccessType.READ,
        "_PFW": Cause.PF_WRITE,
        "_PFR": Cause.PF_READ,
        "_DIV0": Cause.DIV0,
        "_PRIV": Cause.PRIV,
        "_ICR": (-1, 0, 0) * len(mem_indices),
        "_up": _U32.unpack_from,
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
        #: self-invalidate by PTE / pa compare; SMC and cost changes
        #: clear them wholesale.
        self._pc_pg: Dict[int, Tuple] = {}
        self._pc_real: Dict[int, Tuple] = {}
        #: Block key -> dispatches while cold (the hotness tier).
        self._heat: Dict[Tuple[int, int, bool], int] = {}
        self._epoch_cell = [0]
        #: Shared across closures: data accesses served by inline caches
        #: or forwarding (host-side telemetry; sim stats are unaffected).
        self._ic_cell = [0]
        self._cpu_costs, self._mmu_costs = cpu.costs, cpu.mmu.costs
        self._costs_sig = self._sig()
        self.blocks_compiled = 0
        self.blocks_invalidated = 0
        self.fallback_steps = 0
        self.cold_steps = 0

    # -- bookkeeping -----------------------------------------------------

    def _sig(self) -> Tuple[int, ...]:
        return _cost_sig(self.cpu.costs) + (self.mmu.translate_bound,)

    def check_costs(self) -> None:
        """Drop compiled code if the cost model changed since compile.

        A ``CostModel`` is frozen, so the signature is a function of
        which two objects are installed: it is rebuilt only when one
        was swapped (this runs on every guest entry).
        """
        cpu_costs, mmu_costs = self.cpu.costs, self.mmu.costs
        if cpu_costs is self._cpu_costs and mmu_costs is self._mmu_costs:
            return
        self._cpu_costs, self._mmu_costs = cpu_costs, mmu_costs
        sig = self._sig()
        if sig != self._costs_sig:
            self._costs_sig = sig
            self.flush()

    def flush(self) -> None:
        self._blocks.clear()
        self._frame_keys.clear()
        self._pc_pg.clear()
        self._pc_real.clear()
        self._epoch_cell[0] += 1

    def invalidate_pfn(self, pfn: int) -> None:
        """A store hit a frame with compiled code: drop its blocks."""
        keys = self._frame_keys.pop(pfn, None)
        if not keys:
            return
        blocks = self._blocks
        for key in keys:
            if blocks.pop(key, None):
                self.blocks_invalidated += 1
        # The dispatch caches hold direct references to dropped blocks.
        self._pc_pg.clear()
        self._pc_real.clear()
        self._epoch_cell[0] += 1

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
        the va to interpret up to before asking again.

        0 is one ``step()`` (compiled code may start at the very next
        pc): EXEC translation not cached right now (the step will walk
        and refill), or nothing here compiles (undecodable or
        page-straddling code). Otherwise the head is still cold and the
        va is where its block ends, so heat counts block entries.
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
                pte = mmu.tlb.peek(vpn, AccessType.EXEC, mode == 1)
                if pte is None:
                    self.fallback_steps += 1
                    return 0
                blk = self._block_at((pte >> 12 << 12) | (pc & 0xFFF), pc, True)
                if blk.__class__ is int:
                    return blk
                if len(self._pc_pg) > _PC_CACHE_MAX:
                    self._pc_pg.clear()
                self._pc_pg[key] = (blk, vpn, pte)
        else:
            try:
                pa = mmu.real_pa(pc)
            except MemoryError_:
                self.fallback_steps += 1
                return 0  # the step's fetch raises it
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
        return 0

    def _block_at(self, pa: int, va: int, paging: bool):
        """This core's block for ``(pa, va)`` (``()`` if nothing there
        compiles); while its head is cold, the va it would end at."""
        key = (pa, va, paging)
        blk = self._blocks.get(key)
        if blk is not None:
            return blk
        try:
            word = self.physmem.read_u32(pa)
        except MemoryError_:
            word = -1
        # The tier, decided before any decode: hot enough, or a head
        # the process already holds code for.
        heat = self._heat.get(key, 0) + 1
        head = (va, word, paging, self._bare, self._costs_sig)
        if heat < HOT and head not in _HEADS:
            if len(self._heat) > _PC_CACHE_MAX:
                self._heat.clear()
            self._heat[key] = heat
            self.cold_steps += 1
            # To where _compile would stop, or to a head already heating
            # (a run resumed mid-block must not step past it).
            return va + self._line(pa, va, paging, self._heat)[-1]
        self._heat.pop(key, None)
        return self._compile(key, pa, va, paging, head)

    def _line(self, pa: int, va: int, paging: bool, heads=()) -> List[int]:
        """Byte offsets of the block that starts at ``(pa, va)``: where
        each instruction begins, then where the block ends. Read off the
        opcode bytes (top byte: class and length): the first branch or
        system instruction ends it, as do ``MAX_BLOCK_INSTRUCTIONS``, the
        page (one that straddles it is the interpreter's) and a key in
        ``heads``."""
        data, off, offs = self.physmem._data, 0, [0]
        room = 0x1000 - (va & 0xFFF) if pa < len(data) else 0
        while off + 4 <= room and len(offs) <= MAX_BLOCK_INSTRUCTIONS:
            opcode = data[pa + off + 3]
            off += 8 if opcode & 0x80 else 4
            if off > room:
                break
            offs.append(off)
            if (opcode & 0x7F > LAST_MEM_OP
                    or (pa + off, va + off, paging) in heads):
                break
        return offs

    def _compile(self, key, pa: int, va: int, paging: bool, head) -> Tuple:
        read_u32 = self.physmem.read_u32
        items: List[Tuple[Instruction, int]] = []
        offs = self._line(pa, va, paging)
        try:
            for off, end in zip(offs, offs[1:]):
                imm_word = read_u32(pa + off + 4) if end - off == 8 else 0
                items.append((decode(read_u32(pa + off), imm_word), va + off))
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
            fn = make(self._epoch_cell, self._ic_cell, worst)
            blk: Tuple = (fn, len(items), worst)
            self.blocks_compiled += 1
        else:
            blk = _UNCOMPILABLE
        self._blocks[key] = blk
        pfn = pa >> 12
        self._frame_keys.setdefault(pfn, set()).add(key)
        self.cpu._code_pfns.add(pfn)
        return blk
