"""Binary translation engine (VMware-style software VMM).

Guest **kernel** code never executes directly: the translator decodes
basic blocks on first touch, classifies each instruction, and caches a
*translated block*:

* innocuous instructions run natively: walked through
  ``CPUCore.execute`` while the block is cold, and once it is hot each
  run of them between two callouts is one closure of the block compiler
  (:mod:`repro.cpu.jit`), charged as the walk charges;
* privileged and sensitive instructions become **inline callouts** that
  run the core's own :meth:`~repro.cpu.interp.CPUCore.system` against
  the vCPU's virtual state -- no hardware world switch, cost
  :attr:`~repro.mem.costs.CostModel.bt_callout_cycles` each. This both
  restores Popek-Goldberg correctness (user-mode STI / CLI / CSRR of
  MODE and IE are rewritten, so the guest sees virtual state) and
  removes the trap-per-instruction tax of trap-and-emulate.

Which of the two an item is is decided at translate time, and a write
to any guest page a byte of the block lies on drops the block; the
watch follows a guest page to whatever host frame backs it now. A write
to a guest page table the block was fetched through makes the block
*suspect*: its next hit re-walks the guest tables (without side
effects) and drops it if a page now comes from another frame or leaf
table, or not at all -- an accessed / dirty write-back costs no miss.
Blocks end at control transfers. Block dispatch costs
``bt_dispatch_cycles`` (translation-cache hash lookup) unless the
(predecessor, successor) pair has been *chained*, after which dispatch
is free -- the measured benefit of chaining in experiment E9.

Guest **user** code still runs directly (traps exit to the VMM and are
reflected); the hypervisor switches between direct execution and the
translator on virtual privilege transitions.
"""

from dataclasses import dataclass, field
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.stats import VMStats
from repro.core.vcpu import VCPU
from repro.cpu import jit
from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.interp import TrapInfo
from repro.cpu.isa import (
    BRANCH_OPS,
    CSR,
    Cause,
    DecodeError,
    Instruction,
    LAST_BRANCH_OP,
    MODE_KERNEL,
    Op,
)
from repro.mem.costs import CostModel
from repro.mem.paging import AccessType, PageFault

#: Maximum instructions per translated block.
MAX_BLOCK_INSTRUCTIONS = 32

#: The translator's counters, bumped through their registry ``Counter``
#: (``counter_attr.bound``; created on first bump).
_block_hits, _misses, _chained, _callouts, _translated = (attr.bound for attr in (
    VMStats.bt_block_hits, VMStats.bt_block_misses, VMStats.bt_chained,
    VMStats.bt_callouts, VMStats.bt_translated_instructions))

#: Named per item, bound once (an ``Op.X`` spelling is an enum lookup).
_VMCALL, _CSRW, _PTBR, _MODE = Op.VMCALL, Op.CSRW, int(CSR.PTBR), int(CSR.MODE)
_IO_OPS, _TRAP_OPS = frozenset((Op.IN, Op.OUT)), frozenset((Op.SYSCALL, Op.BRK))
_BLOCK_ENDERS = frozenset((Op.IRET, Op.HLT, Op.SYSCALL, Op.VMCALL, Op.BRK))


@dataclass
class TranslatedBlock:
    """One guest basic block, translated."""

    start_va: int
    items: List[Tuple[bool, Instruction]]  # (is_callout, ins)
    #: vpn -> (gfn, gfn of the page table mapping it) of every page a
    #: byte of the block lies on; (vpn, None) with guest paging off.
    pages: Dict[int, Tuple[int, Optional[int]]] = field(default_factory=dict)
    #: A page table on the way to ``pages`` was written since the block
    #: was cached or last re-walked.
    suspect: bool = False
    #: Dispatches left before it compiles, then what runs instead of
    #: ``items`` (:meth:`BTEngine._compile`).
    heat: int = 0
    code: Optional[list] = None


class BTEngine:
    """Per-vCPU binary translator with block cache and chaining.

    The vCPU's MMU is always a :class:`~repro.core.shadow.ShadowMMU`
    (``GuestConfig.validate`` rejects BT over anything else).
    """

    def __init__(
        self,
        vcpu: VCPU,
        costs: CostModel,
        inject_virq: Callable[[VCPU], bool],
        hypercall_handler: Callable[[VCPU, int, int], None],
    ):
        self.vcpu = vcpu
        self.costs = costs
        self.hypercall_handler = hypercall_handler
        #: The hypervisor's virq injector: delivers one pending virtual
        #: IRQ if the guest's virtual IE allows; True if it injected
        #: (guest pc now at its vector).
        self.inject_virq = inject_virq
        #: E9's ablations switch these off.
        self.cache_enabled = True
        self.chaining_enabled = True
        self._power = vcpu.vm.devices["power"]
        self._sig = jit._cost_sig(costs)  # in compiled runs' heads
        #: Native runs made closures (host-side, like ``jit_stats``).
        self.runs_compiled = 0

        self._cache: Dict[Tuple[Optional[int], int], TranslatedBlock] = {}
        self._chains: Set[Tuple[int, int]] = set()
        #: Code gfn -> keys of the blocks with a byte on it (a write drops
        #: them); page-table gfn -> keys of the blocks fetched through it
        #: (a write makes them suspect; a block kept is registered again).
        self._gfn_blocks: Dict[int, Set[Tuple[Optional[int], int]]] = {}
        self._table_blocks: Dict[int, Set[Tuple[Optional[int], int]]] = {}
        #: Self-modifying-code protection: each watched gfn's host frame,
        #: and the watched frames' gfns, whose keys physical memory tests
        #: on every write (native stores, hypercalls and DMA all land there).
        self._frame: Dict[int, int] = {}
        self._watched: Dict[int, Set[int]] = {}
        #: Invalidation epoch: bumped on every cache invalidation so an
        #: in-flight block can bail at the store that rewrote
        #: translated code. The next fetch then re-translates from the
        #: new bytes -- same strict SMC-visible-at-next-fetch rule the
        #: bare-core JIT enforces. Compiled runs test the same cell.
        self._epoch = [0]
        vcpu.cpu.mmu.physmem.watch_writes(self._watched.keys(), self._on_code_write)
        vcpu.cpu.mmu.on_move = self._moved

    # -- public API ------------------------------------------------------

    def run(self, max_instructions: int, max_cycles: Optional[int]) -> None:
        """Execute translated guest-kernel code until the guest leaves
        virtual kernel mode, halts or powers off, or a budget is spent.

        The budgets are :meth:`CPUCore.run <repro.cpu.interp.CPUCore.run>`'s:
        it stops on the retire edge ``max_instructions`` past entry, cutting
        a block there if it must, with what is due at that edge fired and no
        virq delivered; and enters no block once ``max_cycles`` (None: no
        ceiling) are spent. VMExits raised during execution (guest faults,
        shadow fills) propagate to the hypervisor, which services them and
        re-enters here. Block hits and misses, chained dispatches and
        callouts are counted in locals and added to their counters on the
        way out.
        """
        vcpu = self.vcpu
        cpu = vcpu.cpu
        vcsr = vcpu.vcsr
        stats = vcpu.vm.stats
        virqs = vcpu.vm.pending_virqs
        inject = self.inject_virq
        power = self._power
        events = cpu.events
        epoch = self._epoch
        execute = cpu.execute
        callout = self._callout
        cache = self._cache if self.cache_enabled else None
        chains = self._chains if self.chaining_enabled else None
        costs = self.costs
        instr_cycles = costs.instr_cycles
        callout_cycles = costs.bt_callout_cycles
        dispatch_cycles = costs.bt_dispatch_cycles
        limit = cpu.instret + max_instructions
        stop = cpu.cycles + (max_cycles if max_cycles is not None else 1 << 62)
        compiling = cpu.jit_enabled and cache is not None
        # Each lap of a self-looping run is a dispatch of its own.
        cpu._loop_stop = 0
        prev_block_va: Optional[int] = None
        hits = misses = chained = callouts = 0
        try:
            while True:
                if events is not None and cpu.instret >= events.next_due:
                    # Retire-edge event firing, before the halt check: a
                    # raise can wake a virtually-halted guest, exactly as
                    # the hardware-assist core wakes in its run loop.
                    events.fire_due(cpu.instret)
                if cpu.instret >= limit:
                    return  # the core's loop-top order: nothing delivered
                if virqs and inject(vcpu):
                    # Unmasked pending virq: delivered before the next
                    # fetch (the same edge the hardware-assist core
                    # delivers at).
                    prev_block_va = None
                    continue
                if (vcsr[_MODE] != MODE_KERNEL or vcpu.halted
                        or power.shutdown_requested or cpu.cycles >= stop):
                    return
                key = (cpu.mmu.guest_root, cpu.pc)
                block = cache.get(key) if cache is not None else None
                if block is not None and block.suspect:
                    block = self._recheck(key, block)
                if block is None:
                    block = self._translate(cpu.pc)
                    if block is None:
                        # First fetch of the block faulted: the PF_EXEC
                        # was reflected into the guest, whose pc now sits
                        # at its vector. Re-dispatch from there.
                        prev_block_va = None
                        continue
                    misses += 1
                    if cache is not None:
                        cache[key] = block
                        self._watch_block(key, block)
                else:
                    hits += 1
                # Dispatch cost, unless chained from the previous block.
                if prev_block_va is None:
                    cpu.cycles += dispatch_cycles
                elif chains is not None and (prev_block_va, block.start_va) in chains:
                    chained += 1
                else:
                    cpu.cycles += dispatch_cycles
                    if chains is not None:
                        chains.add((prev_block_va, block.start_va))
                prev_block_va = block.start_va
                code = block.code
                if code is None:
                    code = block.items
                    if compiling:
                        block.heat -= 1
                        if block.heat <= 0:
                            code = block.code = self._compile(block)
                e0 = epoch[0]
                while code is not None:
                    todo, code = code, None
                    for kind, ins in todo:
                        if events is not None and cpu.instret >= events.next_due:
                            # An edge inside the block fires at its item
                            # boundary, and an unmasked virq is delivered
                            # there instead of at the block's end.
                            events.fire_due(cpu.instret)
                            if virqs and cpu.instret < limit and inject(vcpu):
                                break
                        if cpu.instret >= limit:
                            break  # the block is cut at the budget's edge
                        if kind is True:  # a callout
                            callouts += 1
                            cpu.cycles += callout_cycles
                            # After it retires, an unmasked pending virq is
                            # delivered before the next item, unless the
                            # budget ends on this edge.
                            if callout(ins) or (virqs and cpu.instret < limit
                                                and inject(vcpu)):
                                break
                        elif kind is False:  # a native item, walked
                            cpu.cycles += instr_cycles
                            execute(ins)  # VMExit may propagate (guest fault)
                            # The store may have rewritten translated code
                            # (ours included): stop at the boundary so the
                            # next fetch re-translates from the new bytes.
                            if ins.stores and epoch[0] != e0:
                                break
                        elif epoch[0] == e0 and cpu.instret + kind[1] <= limit and (
                                events is None
                                or cpu.instret + kind[1] <= events.next_due):
                            kind[0](cpu)  # a compiled run (see _compile)
                            # It bailed at a store that invalidated code,
                            # or ended with one: so does the block.
                            if epoch[0] != e0 and (kind[3] or cpu.pc != kind[4]):
                                break
                        else:
                            # The budget or an event is due inside the run,
                            # or a callout invalidated code: walk on from here.
                            code = block.items[kind[2]:]
                            break
        finally:
            if hits:
                _block_hits(stats).value += hits
            if misses:
                _misses(stats).value += misses
            if chained:
                _chained(stats).value += chained
            if callouts:
                _callouts(stats).value += callouts

    def invalidate_gfn(self, gfn: int) -> None:
        """Drop translations backed by a guest frame (self-modifying or
        re-used code pages)."""
        keys = self._gfn_blocks.pop(gfn, None)
        if keys:
            self._drop(keys)

    def _drop(self, keys) -> None:
        self._epoch[0] += 1
        for key in keys:
            self._cache.pop(key, None)
        # Drop only chains touching an invalidated block's entry point
        # (as predecessor or successor); unrelated links keep their
        # free-dispatch status. In place: a running dispatch holds it.
        dropped = {key[1] for key in keys}
        self._chains.difference_update([
            link for link in self._chains
            if link[0] in dropped or link[1] in dropped])

    def _watch_block(self, key, block: TranslatedBlock) -> None:
        """Arm write-watching for the frames backing a cached block and
        for the guest page tables it was fetched through."""
        tables = set()
        for gfn, table in block.pages.values():
            self._gfn_blocks.setdefault(gfn, set()).add(key)
            if table is not None:
                tables.update((table, key[0] >> 12))
        for gfn in tables:
            self._table_blocks.setdefault(gfn, set()).add(key)
        self._watch(tables.union(gfn for gfn, _table in block.pages.values()))

    def _watch(self, gfns) -> None:
        """Watch the host frames behind ``gfns`` (none for an unbacked one)."""
        guest_map = self.vcpu.vm.guest_mem.map
        for gfn in gfns:
            hfn = guest_map.get(gfn)
            if hfn is not None:
                self._frame[gfn] = hfn
                self._watched.setdefault(hfn, set()).add(gfn)

    def _moved(self, gfn: int, hfn: Optional[int]) -> None:
        """The host re-backed ``gfn`` with frame ``hfn``, or left it
        unbacked (None): a sharing merge, a COW break, swap, the balloon
        (``ShadowMMU.on_move``). Its watch goes with it, so a store into
        the new frame is seen and one into the frame it left is not."""
        old = self._frame.pop(gfn, None)
        if old is not None:
            gfns = self._watched[old]
            gfns.discard(gfn)
            if not gfns:
                del self._watched[old]
        if hfn is not None and (gfn in self._gfn_blocks or gfn in self._table_blocks):
            self._watch((gfn,))

    def _on_code_write(self, hfn: int) -> None:
        """Physmem write watcher: a store landed on translated code, or
        on a page table translated code was fetched through."""
        gfns = self._watched.pop(hfn)
        cache = self._cache
        for gfn in gfns:
            del self._frame[gfn]
            for key in self._table_blocks.pop(gfn, ()):
                block = cache.get(key)
                if block is not None:
                    block.suspect = True
        for gfn in gfns:
            self.invalidate_gfn(gfn)

    def _recheck(self, key, block: TranslatedBlock) -> Optional[TranslatedBlock]:
        """A suspect block's next hit: keep it (and watch its tables
        again) if every page is still fetched from the same frame through
        the same leaf table, else drop it (None: translate afresh)."""
        fetch = self.vcpu.cpu.mmu.kernel_fetch_gfn
        if all(fetch(vpn << 12) == page for vpn, page in block.pages.items()):
            block.suspect = False
            self._watch_block(key, block)
            return block
        self._drop((key,))
        return None

    # -- internals -------------------------------------------------------

    def _translate(self, va: int) -> Optional[TranslatedBlock]:
        """Decode one basic block starting at ``va``.

        Returns ``None`` when the *first* fetch takes a guest page
        fault: the fault is reflected into the guest exactly as a
        hardware instruction fetch would trap, and the caller
        re-dispatches from the guest's vector. A fault past the first
        instruction truncates the block at the faulting boundary --
        execution re-enters at the cursor and faults architecturally
        then. (Without this, a guest jump to a non-executable page
        escaped as a host-level PageFault instead of a guest trap.)
        An undecodable word is handled the same way: decoding ahead
        must not abort on bytes the guest may never execute, so the
        block ends before it; on the first instruction -- the guest
        really is about to execute it -- the error propagates.
        """
        cpu = self.vcpu.cpu
        vm = self.vcpu.vm
        mmu = cpu.mmu
        items: List[Tuple[bool, Instruction]] = []
        code_pages: Dict[int, Tuple[int, Optional[int]]] = {}
        cursor = va
        head = None  # of the first native run, as _compile registers it
        for _ in range(MAX_BLOCK_INSTRUCTIONS):
            try:
                ins = cpu.fetch(cursor)  # may raise VMExit (shadow fill)
            except DecodeError:
                if items:
                    break
                raise
            except PageFault as fault:
                if items:
                    break
                cpu.cycles += self.costs.trap_cycles
                if cursor == self.vcpu.vcsr[CSR.VBAR]:
                    # Fetching the guest's own trap vector faulted:
                    # reflecting would re-enter the vector and fault
                    # again forever. Same terminal condition as the
                    # hardware-assist triple-fault guard.
                    raise VMExit(ExitReason.TRIPLE_FAULT, guest_pc=cursor,
                                 cause=Cause.PF_EXEC, value=fault.vaddr)
                self.vcpu.reflect_trap(
                    TrapInfo(Cause.PF_EXEC, fault.vaddr, epc=cursor)
                )
                return None
            # The last byte too: an 8-byte instruction may straddle.
            for vpn in (cursor >> 12, (cursor + ins.length - 1) >> 12):
                if vpn in code_pages:
                    continue
                if mmu.guest_root is None:
                    # Guest paging off: VA is the guest-physical address.
                    code_pages[vpn] = (vpn, None)
                else:
                    walk = mmu._guest_walk(vpn << 12, AccessType.EXEC)
                    code_pages[vpn] = (walk.gfn, walk.pt_gfn)
            if ins.op > LAST_BRANCH_OP:  # system op: monitor callout
                items.append((True, ins))
                if ins.op in _BLOCK_ENDERS:
                    break
                if ins.op is _CSRW and ins.simm12 & 0xFFF == _PTBR:
                    # A PTBR write changes instruction-fetch translation;
                    # the rest of this block was decoded under the old
                    # root. End the block so dispatch re-fetches (and, if
                    # the new root does not map the next pc, re-faults)
                    # under the new root, exactly like hardware.
                    break
            else:
                items.append((False, ins))
                if head is None:
                    head = (cursor, ins, self._sig)
                if ins.op in BRANCH_OPS:
                    break
            cursor += ins.length
        cpu.cycles += self.costs.bt_translate_cycles * len(items)
        _translated(vm.stats).value += len(items)
        # The compiler's tier: a block whose head the process holds code
        # for compiles on its first dispatch, any other after HOT.
        return TranslatedBlock(start_va=va, items=items, pages=code_pages,
                               heat=0 if head in jit._HEADS else jit.HOT)

    def _compile(self, block: TranslatedBlock) -> list:
        """A hot block's code: its callouts, and each native run between
        them as ``(fn, n, index, tail_store, end)`` -- a block-compiler
        closure, the run's length and first item's index, whether its last
        item stores, the pc it falls through to. ``paging=False`` is the
        walk's charge (no fetch; data through ``mmu.translate``); the
        closures' SMC cell is the translator's epoch.
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
                make = jit._block_code(self.costs, run,
                                       head=(run[0][1], run[0][0], self._sig))[0]
                code.append(((make(self._epoch, None, 0), n, index,
                              run[-1][0].stores, vas[index + n] & 0xFFFFFFFF), None))
                self.runs_compiled += 1
            index += n
        return code

    def _callout(self, ins: Instruction) -> bool:
        """Run monitor logic for one rewritten instruction.

        Returns True when the block must stop (privilege change, halt,
        power-off, trap reflection). What is due at its retire edge has
        fired; a pending virq is the caller's to deliver.
        """
        vcpu = self.vcpu
        cpu = vcpu.cpu
        # A rewritten instruction retires like any other guest
        # instruction. Under hardware assist the same instruction bumps
        # instret in the core before its intercept exit is serviced
        # (CPUCore.execute never rolls privileged exits back), so
        # retiring here keeps instret -- and everything metered by it:
        # run-loop instruction budgets, watchdog beats, guest CSRR
        # INSTRET -- comparable across virtualization engines instead
        # of silently undercounting emulated work.
        cpu.instret += 1
        op = ins.op

        if op is _VMCALL:
            vcpu.vm.stats.hypercalls += 1
            cpu.cycles += self.costs.hypercall_cycles
            self.hypercall_handler(
                vcpu, ins.simm12 & 0xFFF, (cpu.pc + ins.length) & 0xFFFFFFFF
            )
        else:
            if op in _IO_OPS:
                cpu.cycles += self.costs.emulate_cycles
            elif op in _TRAP_OPS:
                cpu.cycles += self.costs.trap_cycles
            pc = cpu.pc
            if cpu.system(vcpu, None, ins, op, pc,
                          (pc + ins.length) & 0xFFFFFFFF):
                # It trapped into the guest (SYSCALL, BRK, an illegal
                # CSR): pc is at the vector, the rest of this block is
                # not what executes next.
                return True
        if (vcpu.halted or vcpu.vcsr[_MODE] != MODE_KERNEL
                or self._power.shutdown_requested):
            return True
        # The delivery edge after it retires: fire what is due there
        # (device raises from the emulated instruction itself come first,
        # matching the hardware core's execute-then-fire order -- and
        # keeping the timer-vs-device priority race identical).
        events = cpu.events
        if events is not None and cpu.instret >= events.next_due:
            events.fire_due(cpu.instret)
        return False
