"""Binary translation engine (VMware-style software VMM).

Guest **kernel** code never executes directly: the translator decodes
basic blocks on first touch, classifies each instruction, and caches a
*translated block*:

* innocuous instructions are executed natively (``CPUCore.execute``);
* privileged and sensitive instructions become **inline callouts** that
  run the core's own :meth:`~repro.cpu.interp.CPUCore.system` against
  the vCPU's virtual state -- no hardware world switch, cost
  :attr:`~repro.mem.costs.CostModel.bt_callout_cycles` each. This both
  restores Popek-Goldberg correctness (user-mode STI / CLI / CSRR of
  MODE and IE are rewritten, so the guest sees virtual state) and
  removes the trap-per-instruction tax of trap-and-emulate.

Which of the two an item is is decided at translate time, and a write
to any guest page a byte of the block lies on drops the block.
Blocks end at control transfers. Block dispatch costs
``bt_dispatch_cycles`` (translation-cache hash lookup) unless the
(predecessor, successor) pair has been *chained*, after which dispatch
is free -- the measured benefit of chaining in experiment E9.

Guest **user** code still runs directly (traps exit to the VMM and are
reflected); the hypervisor switches between direct execution and the
translator on virtual privilege transitions.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.stats import VMStats
from repro.core.vcpu import VCPU
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

#: The per-block and per-callout counters, bumped through their
#: registry ``Counter`` (``counter_attr.bound``; created on first bump).
_block_hits = VMStats.bt_block_hits.bound
_chained = VMStats.bt_chained.bound
_callouts = VMStats.bt_callouts.bound

#: Named per item, bound once (an ``Op.X`` spelling is an enum lookup).
_VMCALL, _CSRW, _PTBR = Op.VMCALL, Op.CSRW, int(CSR.PTBR)
_IO_OPS, _TRAP_OPS = frozenset((Op.IN, Op.OUT)), frozenset((Op.SYSCALL, Op.BRK))
_BLOCK_ENDERS = frozenset((Op.IRET, Op.HLT, Op.SYSCALL, Op.VMCALL, Op.BRK))


@dataclass
class TranslatedBlock:
    """One guest basic block, translated."""

    start_va: int
    items: List[Tuple[bool, Instruction]]  # (is_callout, ins)
    code_gfns: Set[int] = field(default_factory=set)


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
        hypercall_handler: Optional[Callable[[VCPU, int, int], None]] = None,
        cache_enabled: bool = True,
        chaining_enabled: bool = True,
    ):
        self.vcpu = vcpu
        self.costs = costs
        self.hypercall_handler = hypercall_handler
        #: The hypervisor's virq injector: delivers one pending virtual
        #: IRQ if the guest's virtual IE allows; True if it injected
        #: (guest pc now at its vector).
        self.inject_virq = inject_virq
        self.cache_enabled = cache_enabled
        self.chaining_enabled = chaining_enabled
        self._power = vcpu.vm.devices["power"]

        self._cache: Dict[Tuple[Optional[int], int], TranslatedBlock] = {}
        self._chains: Set[Tuple[int, int]] = set()
        self._gfn_blocks: Dict[int, Set[Tuple[Optional[int], int]]] = {}
        #: Self-modifying-code protection: host frames backing translated
        #: guest code, watched for writes on the physical memory (stores
        #: the translator runs natively, hypercall side effects and
        #: device DMA all land there). A write drops every translation
        #: backed by the written frame's guest page(s).
        self._watched_hfns: Set[int] = set()
        self._hfn_gfns: Dict[int, Set[int]] = {}
        #: Invalidation epoch: bumped on every cache invalidation so an
        #: in-flight block can bail at the store that rewrote
        #: translated code. The next fetch then re-translates from the
        #: new bytes -- same strict SMC-visible-at-next-fetch rule the
        #: bare-core JIT enforces.
        self._epoch = [0]
        self.vcpu.cpu.mmu.physmem.watch_writes(
            self._watched_hfns, self._on_code_write
        )

    # -- public API ------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> str:
        """Execute translated guest-kernel code until a stop condition.

        Returns ``"mode_switch"`` (guest dropped to virtual user mode or
        powered off), ``"halted"`` (virtual HLT), or ``"budget"``.
        VMExits raised during execution (guest faults, shadow fills)
        propagate to the hypervisor, which services them and re-enters
        here.
        """
        stats = self.vcpu.vm.stats
        cpu = self.vcpu.cpu
        start_cycles = cpu.cycles
        prev_block_va: Optional[int] = None
        events = cpu.events
        while True:
            if events is not None and cpu.instret >= events.next_due:
                # Retire-edge event firing, before the halt check: a
                # raise can wake a virtually-halted guest, exactly as
                # the hardware-assist core wakes in its run loop.
                events.fire_due(cpu.instret)
            if self.inject_virq(self.vcpu):
                # Unmasked pending virq: delivered before the next fetch
                # (the same edge the hardware-assist core delivers at).
                prev_block_va = None
                continue
            if (self.vcpu.virtual_mode != MODE_KERNEL or self.vcpu.halted
                    or self._power.shutdown_requested):
                break
            if max_cycles is not None and cpu.cycles - start_cycles >= max_cycles:
                return "budget"
            key = (cpu.mmu.guest_root, cpu.pc)
            block = self._cache.get(key) if self.cache_enabled else None
            if block is None:
                block = self._translate(cpu.pc)
                if block is None:
                    # First fetch of the block faulted: the PF_EXEC was
                    # reflected into the guest, whose pc now sits at its
                    # vector. Re-dispatch from there.
                    prev_block_va = None
                    continue
                stats.bt_block_misses += 1
                if self.cache_enabled:
                    self._cache[key] = block
                    for gfn in block.code_gfns:
                        self._gfn_blocks.setdefault(gfn, set()).add(key)
                    self._watch_block(block)
            else:
                _block_hits(stats).value += 1
            # Dispatch cost, unless chained from the previous block.
            if prev_block_va is not None:
                link = (prev_block_va, block.start_va)
                if self.chaining_enabled and link in self._chains:
                    _chained(stats).value += 1
                else:
                    cpu.cycles += self.costs.bt_dispatch_cycles
                    if self.chaining_enabled:
                        self._chains.add(link)
            else:
                cpu.cycles += self.costs.bt_dispatch_cycles
            prev_block_va = block.start_va
            self._execute_block(block, events)
        return "halted" if self.vcpu.halted else "mode_switch"

    def invalidate_gfn(self, gfn: int) -> None:
        """Drop translations backed by a guest frame (self-modifying or
        re-used code pages)."""
        keys = self._gfn_blocks.pop(gfn, None)
        if not keys:
            return
        self._epoch[0] += 1
        for key in keys:
            self._cache.pop(key, None)
        # Drop only chains touching an invalidated block's entry point
        # (as predecessor or successor); unrelated links keep their
        # free-dispatch status instead of being rebuilt from scratch.
        dropped = {key[1] for key in keys}
        self._chains = {
            link
            for link in self._chains
            if link[0] not in dropped and link[1] not in dropped
        }

    def flush(self) -> None:
        self._epoch[0] += 1
        self._cache.clear()
        self._chains.clear()
        self._gfn_blocks.clear()
        self._watched_hfns.clear()
        self._hfn_gfns.clear()

    @property
    def cached_blocks(self) -> int:
        return len(self._cache)

    def _watch_block(self, block: TranslatedBlock) -> None:
        """Arm write-watching for the frames backing a cached block."""
        guest_map = self.vcpu.vm.guest_mem.map
        for gfn in block.code_gfns:
            hfn = guest_map.get(gfn)
            if hfn is None:
                continue
            self._hfn_gfns.setdefault(hfn, set()).add(gfn)
            self._watched_hfns.add(hfn)

    def _on_code_write(self, hfn: int) -> None:
        """Physmem write watcher: a store landed on translated code."""
        gfns = self._hfn_gfns.pop(hfn, None)
        self._watched_hfns.discard(hfn)
        if gfns:
            for gfn in gfns:
                self.invalidate_gfn(gfn)

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
        #: vpn -> gfn of every page a byte of the block lies on.
        code_pages: Dict[int, int] = {}
        cursor = va
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
                # Guest paging off: VA is the guest-physical address.
                code_pages[vpn] = vpn if mmu.guest_root is None else (
                    mmu._guest_walk(vpn << 12, AccessType.EXEC).gfn)
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
                if ins.op in BRANCH_OPS:
                    break
            cursor += ins.length
        cpu.cycles += self.costs.bt_translate_cycles * len(items)
        vm.stats.bt_translated_instructions += len(items)
        return TranslatedBlock(
            start_va=va, items=items, code_gfns=set(code_pages.values())
        )

    def _execute_block(self, block: TranslatedBlock, events) -> None:
        """Walk the block item by item.

        When a scheduled edge lands inside the block, the item boundary
        it is due at fires it and delivers an unmasked virq at that
        exact retire edge instead of the block boundary.
        """
        cpu = self.vcpu.cpu
        execute = cpu.execute
        instr_cycles = self.costs.instr_cycles
        callout_cycles = self.costs.bt_callout_cycles
        epoch = self._epoch
        e0 = epoch[0]
        for is_callout, ins in block.items:
            if events is not None and cpu.instret >= events.next_due:
                events.fire_due(cpu.instret)
                if self.inject_virq(self.vcpu):
                    return
            if is_callout:
                cpu.cycles += callout_cycles
                if self._callout(ins):
                    return
            else:
                cpu.cycles += instr_cycles
                execute(ins)  # VMExit may propagate (guest fault)
                # The store may have rewritten translated code (ours
                # included): stop at the boundary so the next fetch
                # re-translates from the new bytes.
                if ins.stores and epoch[0] != e0:
                    return

    def _callout(self, ins: Instruction) -> bool:
        """Run monitor logic for one rewritten instruction.

        Returns True when the block must stop (privilege change, halt,
        power-off, trap reflection).
        """
        vcpu = self.vcpu
        cpu = vcpu.cpu
        stats = vcpu.vm.stats
        _callouts(stats).value += 1
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
            if self.hypercall_handler is None:
                raise RuntimeError("BT guest issued VMCALL with no handler")
            stats.hypercalls += 1
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
        if (vcpu.halted or vcpu.virtual_mode != MODE_KERNEL
                or self._power.shutdown_requested):
            return True
        return self._post_retire_inject()

    def _post_retire_inject(self) -> bool:
        """Delivery edge after a non-stopping callout retires.

        First fire any schedule event due at this retire edge (device
        raises from the emulated instruction itself come first, matching
        the hardware core's execute-then-fire order -- and keeping the
        timer-vs-device priority race identical), then deliver an
        unmasked pending virq before the next item executes. Returns
        True when an injection redirected the pc (the block must stop).
        """
        vcpu = self.vcpu
        cpu = vcpu.cpu
        events = cpu.events
        if events is not None and cpu.instret >= events.next_due:
            events.fire_due(cpu.instret)
        return self.inject_virq(vcpu)
