"""Binary translation engine (VMware-style software VMM).

Guest **kernel** code never executes directly: while the vCPU's virtual
mode is kernel, the core's run loop dispatches *translated blocks* from
its block compiler (``BlockJIT.translated``, under its one write watch).
This module holds what is the translator's own: a block's identity
(guest root, pc) and shape (it ends at a branch, at IRET / HLT / SYSCALL
/ VMCALL / BRK, after CSRW PTBR and at 32 items, and may span pages);
its items' classification -- innocuous instructions run natively,
privileged and sensitive ones become inline **callouts**, the core's own
:meth:`~repro.cpu.interp.CPUCore.system` run against the vCPU's virtual
state (no world switch; Popek-Goldberg correct); the suspect re-walk
after a page-table write; the charges -- ``bt_translate_cycles`` per
item translated, ``bt_dispatch_cycles`` per dispatch unless chained (E9
measures the difference), ``bt_callout_cycles`` per callout; counters.
Guest **user** code runs directly; its traps exit and are reflected.
"""

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.stats import VMStats
from repro.core.vcpu import VCPU
from repro.cpu import jit
from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.interp import TrapInfo
from repro.cpu.isa import (
    BRANCH_OPS, CSR, Cause, DecodeError, Instruction, LAST_BRANCH_OP, MODE_KERNEL, Op)
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
_EXEC = AccessType.EXEC
_IO_OPS, _TRAP_OPS = frozenset((Op.IN, Op.OUT)), frozenset((Op.SYSCALL, Op.BRK))
_BLOCK_ENDERS = frozenset((Op.IRET, Op.HLT, Op.SYSCALL, Op.VMCALL, Op.BRK))


@dataclass
class TranslatedBlock:
    """One guest basic block, translated."""

    start_va: int
    items: List[Tuple[bool, Instruction]]  # (is_callout, ins)
    #: vpn -> (gfn, leaf table gfn or None: paging off) of each page it lies on.
    pages: Dict[int, Tuple[int, Optional[int]]]
    #: ``ncode`` code gfns, then the tables they were fetched through; and
    #: the frames that backed them when it was translated.
    gfns: Tuple[int, ...]
    frames: Tuple[int, ...]
    ncode: int
    suspect: bool = False  # a table on the way to ``pages`` was written
    #: Dispatches left before it compiles, then its code (``BlockJIT.translated_code``).
    heat: int = 0
    code: Optional[list] = None


class BTEngine:
    """Per-vCPU binary translator over a :class:`~repro.core.shadow.ShadowMMU`
    (``GuestConfig.validate`` rejects BT over anything else)."""

    def __init__(self, vcpu: VCPU, costs: CostModel, inject_virq: Callable[[VCPU], bool],
                 hypercall_handler: Callable[[VCPU, int, int], None]):
        self.vcpu, self.costs, self.hypercall_handler = vcpu, costs, hypercall_handler
        #: Delivers one pending virq if the guest's virtual IE allows;
        #: True if it did (the guest's pc is at its vector).
        self.inject_virq = inject_virq
        #: E9's ablations switch these off.
        self.cache_enabled = True
        self.chaining_enabled = True
        #: Native runs made closures (host-side, like ``jit_stats``).
        self.runs_compiled = 0
        #: (pc, last block's va, a block's cache key, the block, its rest)
        #: where a limit stopped a translated run (``CPUCore._run_translated``).
        self.resume = None
        vcpu.cpu.translator = self
        self.jit = vcpu.cpu._jit = jit.BlockJIT(vcpu.cpu)

    def tally(self, *counts: int) -> None:
        """Add a translated run's hits, misses, chained dispatches and callouts."""
        for bound, n in zip((_block_hits, _misses, _chained, _callouts), counts):
            if n:
                bound(self.vcpu.vm.stats).value += n

    def watch(self, key, block: TranslatedBlock) -> None:
        """Put a cached block under the core's write watch."""
        self.jit.watch(key, block.frames[:block.ncode], block.frames[block.ncode:])

    def recheck(self, key, block: TranslatedBlock) -> Optional[TranslatedBlock]:
        """A hit on a suspect or re-backed block: keep it (watched again)
        if every page still comes from the same frame through the same
        leaf table, else drop it (None: translate afresh). A page is
        re-walked as a kernel fetch with no side effect
        (``ShadowMMU.peek_walker``): a fault, or an unbacked table
        (KeyError), drops the block too."""
        mmu = self.vcpu.cpu.mmu
        if tuple(map(self.vcpu.vm.guest_mem.map.get, block.gfns)) == block.frames:
            for vpn, page in block.pages.items():
                try:
                    pde, pte = mmu.peek_walker.walk(mmu.guest_root, vpn << 12, _EXEC,
                                                    False, False)
                except (PageFault, KeyError):
                    break
                if (pte >> 12, pde >> 12) != page:
                    break
            else:
                block.suspect = False
                self.watch(key, block)
                return block
        self.jit.drop((key,))
        return None

    def translate(self, va: int) -> Optional[TranslatedBlock]:
        """Decode one block at ``va``; None if its first fetch faulted (the
        fault is reflected: the guest's pc is at its vector). A fault or
        an undecodable word further on ends the block before it."""
        vcpu = self.vcpu
        cpu, gmap, mmu = vcpu.cpu, vcpu.vm.guest_mem.map, vcpu.cpu.mmu
        items: List[Tuple[bool, Instruction]] = []
        pages: Dict[int, Tuple[int, Optional[int]]] = {}
        cursor, tables = va, set()
        head = None  # of the first native run, as translated_code registers it
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
                if cursor == vcpu.vcsr[CSR.VBAR]:  # would fault again forever
                    raise VMExit(ExitReason.TRIPLE_FAULT, guest_pc=cursor,
                                 cause=Cause.PF_EXEC, value=fault.vaddr)
                vcpu.reflect_trap(TrapInfo(Cause.PF_EXEC, fault.vaddr, epc=cursor))
                return None
            # The last byte too: an 8-byte instruction may straddle.
            for vpn in (cursor >> 12, (cursor + ins.length - 1) >> 12):
                if vpn in pages:
                    continue
                if mmu.guest_root is None:  # guest paging off: va is the gpa
                    pages[vpn] = (vpn, None)
                else:
                    pde, pte = mmu.guest_walker.walk(mmu.guest_root, vpn << 12, _EXEC,
                                                     mmu.guest_user_mode, False)
                    pages[vpn] = (pte >> 12, pde >> 12)
                    tables.update((pde >> 12, mmu.guest_root >> 12))
            if ins.op > LAST_BRANCH_OP:  # system op: monitor callout
                items.append((True, ins))
                # After a PTBR write the rest was decoded under the old root.
                if ins.op in _BLOCK_ENDERS or (
                        ins.op is _CSRW and ins.simm12 & 0xFFF == _PTBR):
                    break
            else:
                items.append((False, ins))
                if head is None:
                    head = (cursor, ins, self.jit.sig)
                if ins.op in BRANCH_OPS:
                    break
            cursor += ins.length
        cpu.cycles += self.costs.bt_translate_cycles * len(items)
        _translated(vcpu.vm.stats).value += len(items)
        gfns = (*map(itemgetter(0), pages.values()), *tables)
        # The compiler's tier: a head the process holds code for compiles
        # on its first dispatch, any other after HOT.
        return TranslatedBlock(va, items, pages, gfns, tuple(map(gmap.get, gfns)),
                               len(pages), heat=0 if head in jit._HEADS else jit.HOT)

    def callout(self, ins: Instruction) -> bool:
        """Monitor logic for one rewritten instruction. True: the block
        stops here (privilege change, halt, a trap reflected). Its retire
        edge -- what is due there, a pending virq, the end of the run a
        power-off asked for -- is the run loop's."""
        vcpu = self.vcpu
        cpu = vcpu.cpu
        cpu.instret += 1  # it retires, as an intercepted one does under hw assist
        op = ins.op
        if op is _VMCALL:
            vcpu.vm.stats.hypercalls += 1
            cpu.cycles += self.costs.hypercall_cycles
            self.hypercall_handler(vcpu, ins.simm12 & 0xFFF, (cpu.pc + ins.length) & 0xFFFFFFFF)
        else:
            if op in _IO_OPS:
                cpu.cycles += self.costs.emulate_cycles
            elif op in _TRAP_OPS:
                cpu.cycles += self.costs.trap_cycles
            pc = cpu.pc
            if cpu.system(vcpu, None, ins, op, pc, (pc + ins.length) & 0xFFFFFFFF):
                return True  # it trapped into the guest: pc is at the vector
        return vcpu.halted or vcpu.vcsr[_MODE] != MODE_KERNEL
