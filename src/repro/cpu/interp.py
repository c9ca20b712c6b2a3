"""The VISA interpreter core.

One :class:`CPUCore` executes instructions against a pluggable MMU and
port bus, charging cycles from a :class:`~repro.mem.costs.CostModel`.
Virtualization interposes through ``CPUCore.controls``, an immutable
:class:`~repro.cpu.exits.ExecControls` record the VMM programs once: at
each architecturally sensitive point (trap delivery, PTBR write, I/O,
HLT, VMCALL, INVLPG) the core tests the matching field and, when it
intercepts, calls the VMM's exit service once the instruction has done
what bare hardware does (:mod:`repro.cpu.exits`). Which instructions
leave the guest is therefore plain data, readable without executing
anything. ALU, memory and branch instructions never consult the record.

With ``controls=None`` the core is exactly a bare machine; this is the
"native" baseline in experiment E1.

:meth:`CPUCore.run` executes compiled blocks (:mod:`repro.cpu.jit`)
under every MMU and every controls record: a block spells out ALU,
memory and branch instructions only and *calls* :meth:`CPUCore.system`
for a system instruction (the one that ends it, or port I/O), so each
intercept is still tested in :meth:`CPUCore.trap` /
:meth:`CPUCore.system`. With
``jit_enabled = False`` the same loop steps every instruction:
:meth:`CPUCore.step` is the oracle.

What a system instruction, trap entry and IRET *do* is written once,
in :meth:`CPUCore.system` / :meth:`CPUCore.enter_trap` /
:meth:`CPUCore.leave_trap`, against a *privileged-state holder*: the
object with the guest's ``csr`` list, its ``halted`` flag, its
``port_bus``, ``set_mode(mode)`` and ``trap(cause, value, epc, ins)``.
The core is its own holder; a deprivileged guest's is its
:class:`~repro.core.vcpu.VCPU`, which the monitor passes in to emulate
the same instruction against virtual state.
"""

import enum
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Set

from repro.cpu.exits import ExecControls, ExitReason, ExitUnwind, VMExit
from repro.cpu.isa import (
    CSR,
    Cause,
    DECODED,
    DIV_OPS,
    Instruction,
    LAST_ALU_OP,
    LAST_BRANCH_OP,
    LAST_MEM_OP,
    MODE_KERNEL,
    MODE_USER,
    Op,
    READONLY_CSRS,
    decode,
)
from repro.cpu.mmu import MMUBase
from repro.devices.bus import PortBus
from repro.mem.paging import AccessType, PTE_DIRTY, PTE_NOEXEC, PTE_USER, PTE_WRITABLE, PageFault
from repro.util.errors import GuestError
from repro.util.units import PAGE_SHIFT

#: What the oracle, trap entry and the system arms name on every
#: execution, bound once: spelled ``CSR.MODE`` / ``AccessType.EXEC`` /
#: ``Op.LD``, each is a lookup through the enum's metaclass (~90 ns).
_MODE, _IE, _VBAR, _PTBR, _ESTATUS, _EPC, _ECAUSE, _EVAL, _CYCLES, _INSTRET = map(int, (
    CSR.MODE, CSR.IE, CSR.VBAR, CSR.PTBR, CSR.ESTATUS, CSR.EPC, CSR.ECAUSE, CSR.EVAL,
    CSR.CYCLES, CSR.INSTRET))
_EXEC, _READ, _WRITE = AccessType.EXEC, AccessType.READ, AccessType.WRITE
_LD, _ST, _JAL, _SYSCALL, _BRK, _IRET, _CSRR, _CSRW, _OUT, _IN, _STI, _CLI, _HLT, _INVLPG = (
    Op.LD, Op.ST, Op.JAL, Op.SYSCALL, Op.BRK, Op.IRET, Op.CSRR, Op.CSRW, Op.OUT, Op.IN,
    Op.STI, Op.CLI, Op.HLT, Op.INVLPG)
_ILLEGAL, _PRIV, _SYSCALL_TRAP, _BREAK_TRAP = Cause.ILLEGAL, Cause.PRIV, Cause.SYSCALL, Cause.BREAK
_GUEST_TRAP, _TRIPLE_FAULT, _IO_OUT, _IO_IN, _CSR_WRITE, _PRIV_INSTR, _HLT_EXIT, _VMCALL = (
    ExitReason.GUEST_TRAP, ExitReason.TRIPLE_FAULT, ExitReason.IO_OUT, ExitReason.IO_IN,
    ExitReason.CSR_WRITE, ExitReason.PRIV_INSTR, ExitReason.HLT, ExitReason.VMCALL)

_WD = PTE_WRITABLE | PTE_DIRTY
_u32 = struct.Struct("<I").unpack_from

#: IRQ delivery priority (first match wins).
_IRQ_PRIORITY = (Cause.IRQ_TIMER, Cause.IRQ_DEVICE)


class TrapInfo(NamedTuple):
    """A trap that is about to be (or was) delivered."""

    cause: Cause
    value: int
    epc: int


class StopReason(enum.Enum):
    HALT = "halt"
    INSTR_LIMIT = "instr_limit"
    CYCLE_LIMIT = "cycle_limit"
    #: The caller (a VMM pump) gets control before re-entry: a fire of
    #: the EventSchedule or the timer left a virq pending (the pump
    #: injects), or the exit service passed to :meth:`CPUCore.run`
    #: answered that the guest may not simply resume.
    EVENT = "event"


@dataclass
class RunResult:
    """Outcome of one :meth:`CPUCore.run` call."""

    stop: StopReason
    instructions: int
    cycles: int


class CPUCore:
    """One VISA hardware thread."""

    def __init__(
        self,
        mmu: MMUBase,
        port_bus: Optional[PortBus] = None,
        jit: Optional[bool] = None,
    ):
        self.mmu = mmu
        #: The cost model is the MMU's: one table prices the whole core.
        self.costs = mmu.costs
        #: Where IN / OUT go; by default an empty bus (reads 0, drops writes).
        self.port_bus = PortBus() if port_bus is None else port_bus
        #: Which events exit to a VMM; None = bare machine.
        self.controls: Optional[ExecControls] = None

        self.regs: List[int] = [0] * 16
        self.pc = 0
        self.csr: List[int] = [0] * 16  # CPUID 0: one core per machine
        self.cycles = 0
        self.instret = 0
        self.pending_irqs = set()
        self.halted = False
        #: Optional :class:`~repro.devices.schedule.EventSchedule`:
        #: asynchronous device events keyed on this core's retire count,
        #: fired at exact instruction edges by every run loop. None
        #: means no schedule (the common case).
        self.events = None
        #: The board's timer, whose deadline (in this core's cycles) stops
        #: the run; a deprivileged guest's virq queue, which its VMM
        #: injects (None: interrupts reach this core).
        self.timer = self.virqs = None
        #: The run's ceilings, absolute instret/cycles values (the
        #: sentinel: none), and the folded stops, recomputed, never saved:
        #: ``_loop_stop`` = min(``_limit_stop``, the next due event edge)
        #: (:meth:`_retire_edge`), ``_cycle_stop`` = min(``_cycle_limit``,
        #: the timer's deadline) (:meth:`fold_deadline`). The run loop and
        #: a self-looping compiled block test both before going on.
        self._limit_stop = self._loop_stop = self._cycle_limit = self._cycle_stop = 1 << 62
        #: The exit service lent to the run in progress (``run``'s
        #: ``on_exit``), which an intercept calls; None outside one.
        self._service = None

        #: Frames holding compiled or translated code (or a page table
        #: translated code was fetched through); the core's one physmem
        #: write watcher fires :meth:`_on_code_write` for these.
        self._code_pfns: Set[int] = set()
        #: True/False = explicit; None = default on. False is the
        #: reference run the differential tests compare against.
        self.jit_enabled = True if jit is None else jit
        self._jit = None  # lazily: BlockJIT
        #: The binary translator that runs a guest's virtual kernel mode
        #: (:class:`~repro.core.bt.BTEngine`, see :meth:`run`), or None.
        self.translator = None
        physmem = getattr(mmu, "physmem", None)
        if physmem is not None and hasattr(physmem, "watch_writes"):
            physmem.watch_writes(self._code_pfns, self._on_code_write)

    # -- architectural helpers ----------------------------------------------

    def set_mode(self, mode: int) -> None:
        self.csr[_MODE] = mode

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = value & 0xFFFFFFFF

    def assert_irq(self, cause: Cause) -> None:
        """Latch an interrupt for delivery at the next instruction edge."""
        if cause not in (Cause.IRQ_TIMER, Cause.IRQ_DEVICE):
            raise ValueError(f"{cause} is not an interrupt cause")
        self.pending_irqs.add(cause)
        self.halted = False

    def reset(self, pc: int) -> None:
        """Architectural reset: kernel mode, paging off, IRQs clear."""
        self.regs = [0] * 16
        self.pc = pc & 0xFFFFFFFF
        self.csr = [0] * 16
        self.csr[CSR.MODE] = MODE_KERNEL
        self.pending_irqs.clear()
        self.halted = False

    # -- trap machinery -----------------------------------------------------

    def enter_trap(self, h, info: TrapInfo) -> None:
        """Trap entry against holder ``h``: save MODE/IE in ESTATUS, enter
        kernel mode with interrupts off, record EPC/ECAUSE/EVAL, vector."""
        csr = h.csr
        vbar = csr[_VBAR]
        if vbar == 0:
            if self.controls is not None:
                raise VMExit(_TRIPLE_FAULT, guest_pc=self.pc,
                             cause=info.cause, value=info.value)
            raise GuestError(
                f"triple fault: trap {info.cause.name} with no vector "
                f"installed (pc={self.pc:#x}, value={info.value:#x})"
            )
        csr[_ESTATUS] = csr[_MODE] | (csr[_IE] << 1)
        h.set_mode(MODE_KERNEL)
        csr[_IE] = 0
        csr[_EPC] = info.epc & 0xFFFFFFFF
        csr[_ECAUSE] = int(info.cause)
        csr[_EVAL] = info.value & 0xFFFFFFFF
        self.pc = vbar

    def leave_trap(self, h) -> None:
        """IRET against holder ``h``: restore MODE/IE from ESTATUS, resume
        at EPC."""
        csr = h.csr
        estatus = csr[_ESTATUS]
        h.set_mode(estatus & 1)
        csr[_IE] = (estatus >> 1) & 1
        self.pc = csr[_EPC]

    def deliver_trap(self, info: TrapInfo) -> None:
        """Unconditionally vector a trap into the (guest) kernel.

        Public because VMMs use it to *inject* events (reflected traps,
        virtual interrupts) exactly the way hardware event injection
        works on VM entry.
        """
        self.enter_trap(self, info)
        self.cycles += self.costs.trap_cycles

    def trap(self, cause: Cause, value: int, epc: int,
             ins: Optional[Instruction] = None) -> None:
        info = TrapInfo(cause, value, epc)
        ctl = self.controls
        if ctl is not None and (ctl.trap_exits >> cause) & 1:
            service = self._service
            if service is None:
                raise VMExit(_GUEST_TRAP, self.pc,
                             ins.length if ins is not None else 0,
                             trap=info, ins=ins)
            if not service(_GUEST_TRAP, ins, self.pc, info):
                raise ExitUnwind
            return
        self.deliver_trap(info)

    # -- fetch/decode ---------------------------------------------------------

    def fetch(self, va: int) -> Instruction:
        """Fetch and decode the instruction at ``va`` (charges MMU cycles).

        The bytes are read on every fetch and the decode memo is keyed
        by them alone, so code a store (or DMA) has rewritten decodes
        as what is there now: nothing to invalidate. A TLB hit is taken
        here by ``TLB.lookup``'s rule (a load's or store's in
        :meth:`execute`); a miss, and real mode, are ``mmu.translate``'s.
        """
        mmu = self.mmu
        user = self.csr[_MODE] == MODE_USER
        tlb = mmu.tlb
        pte = tlb._entries.get(va >> PAGE_SHIFT)
        if pte is not None and (not user or pte & PTE_USER) and not pte & PTE_NOEXEC:
            tlb._entries.move_to_end(va >> PAGE_SHIFT)
            tlb.stats.hits += 1
            self.cycles += self.costs.tlb_hit_cycles
            pa = (pte >> PAGE_SHIFT << PAGE_SHIFT) | (va & 0xFFF)
        else:
            pa, cyc = mmu.translate(va, _EXEC, user)
            self.cycles += cyc
        pm = mmu.physmem
        word = _u32(pm._data, pa)[0] if pa + 4 <= pm.size else pm.read_u32(pa)
        if not (word >> 24) & 0x80:
            return DECODED.get(word) or decode(word)
        if (va & 0xFFF) + 8 > 0x1000:
            # The immediate word is on the next page: its own EXEC
            # translation, charged on every fetch.
            imm_pa, cyc = mmu.translate(va + 4, _EXEC, user)
            self.cycles += cyc
        else:
            imm_pa = pa + 4
        imm_word = _u32(pm._data, imm_pa)[0] if imm_pa + 4 <= pm.size else pm.read_u32(imm_pa)
        return DECODED.get((word, imm_word)) or decode(word, imm_word)

    def _on_code_write(self, pfn: int) -> None:
        """Physmem write watcher: a store landed on a watched frame."""
        jit = self._jit
        if jit:
            jit.invalidate_pfn(pfn)
        self._code_pfns.discard(pfn)

    # -- execution -------------------------------------------------------------

    def step(self) -> Optional[Instruction]:
        """Execute one instruction and return it (None: an IRQ or a fetch fault)."""
        if self.csr[_IE] and self.pending_irqs:
            for cause in _IRQ_PRIORITY:
                if cause in self.pending_irqs:
                    self.pending_irqs.discard(cause)
                    self.trap(cause, 0, epc=self.pc)
                    return
        pc = self.pc
        try:
            ins = self.fetch(pc)
        except PageFault as fault:
            self.cycles += self.costs.instr_cycles
            if pc == self.csr[_VBAR] and self.csr[_MODE] != MODE_USER:
                # The kernel-mode fetch of the trap vector itself faulted:
                # delivering PF_EXEC would re-enter the vector with
                # identical translation state and fault again, forever
                # (so run() would never terminate -- no instruction ever
                # retires). Same terminal condition as a trap with no
                # vector installed.
                if self.controls is not None:
                    raise VMExit(_TRIPLE_FAULT, guest_pc=pc,
                                 cause=Cause.PF_EXEC, value=fault.vaddr)
                raise GuestError(
                    f"triple fault: PF_EXEC fetching the trap vector "
                    f"(pc={pc:#x}, value={fault.vaddr:#x})"
                )
            self.trap(Cause.PF_EXEC, fault.vaddr, epc=pc)
            return
        self.cycles += self.costs.instr_cycles
        self.execute(ins)
        return ins

    def execute(self, ins: Instruction) -> None:
        """Execute one decoded instruction at the current pc.

        Exposed (not underscored) because the binary translator drives
        it directly for innocuous instructions.
        """
        self.instret += 1
        pc = self.pc
        next_pc = (pc + ins.length) & 0xFFFFFFFF
        op = ins.op
        regs = self.regs

        if op <= LAST_ALU_OP:  # ALU / moves
            fn = ins.fn
            if fn is not None:  # not NOP
                b = ins.imm32 if ins.b_imm else regs[ins.rb]
                if ins.extra:
                    self.cycles += getattr(self.costs, ins.extra)
                    if not b and op in DIV_OPS:
                        self.trap(Cause.DIV0, 0, epc=pc)
                        return
                if ins.rd:
                    regs[ins.rd] = fn(regs[ins.ra], b)  # a row's fn is u32
            self.pc = next_pc
            return

        if op <= LAST_MEM_OP:  # loads/stores
            addr = (regs[ins.ra] + ins.simm12) & 0xFFFFFFFF
            mmu = self.mmu
            pm = mmu.physmem
            user = self.csr[_MODE] == MODE_USER
            tlb = mmu.tlb  # a hit is fetch()'s test, for R or W
            pte = tlb._entries.get(addr >> PAGE_SHIFT)
            try:
                if pte is not None and (not user or pte & PTE_USER) and (
                        not ins.stores or pte & _WD == _WD):
                    tlb._entries.move_to_end(addr >> PAGE_SHIFT)
                    tlb.stats.hits += 1
                    self.cycles += self.costs.tlb_hit_cycles
                    pa = (pte >> PAGE_SHIFT << PAGE_SHIFT) | (addr & 0xFFF)
                else:
                    pa, cyc = mmu.translate(addr, _WRITE if ins.stores else _READ, user)
                    self.cycles += cyc
                if ins.stores:  # a byte store keeps the low byte
                    (pm.write_u32 if op is _ST else pm.write_u8)(pa, regs[ins.rb])
                else:  # past RAM, the accessor raises
                    value = (_u32(pm._data, pa)[0] if op is _LD and pa + 4 <= pm.size
                             else (pm.read_u32 if op is _LD else pm.read_u8)(pa))
                    if ins.rd:
                        regs[ins.rd] = value
            except PageFault as fault:
                cause = (
                    Cause.PF_WRITE
                    if fault.access is _WRITE
                    else Cause.PF_READ
                )
                self.trap(cause, fault.vaddr, epc=pc, ins=ins)
                return
            except VMExit:
                # The monitor services the exit (shadow fill, dirty
                # log, PT-write emulation) and the instruction either
                # re-executes or is completed by the emulator; either
                # way this attempt did not retire. Compiled blocks
                # restore the same boundary state on their exception
                # path, keeping instret bit-identical across engines.
                self.instret -= 1
                raise
            self.pc = next_pc
            return

        if op <= LAST_BRANCH_OP:  # control transfer
            taken = ins.fn
            if taken is not None:
                if taken(regs[ins.ra], regs[ins.rb]):
                    next_pc = ins.imm32
                self.pc = next_pc
                return
            target = ins.imm32 if op is _JAL else regs[ins.ra]
            if ins.rd:
                regs[ins.rd] = next_pc
            self.pc = target
            return

        # System instruction. Privilege and the row's extra charge are
        # the executing core's business; what the instruction then does
        # is system()'s, against this core's own privileged state.
        if self.csr[_MODE] == MODE_USER:
            if ins.user_traps:
                self.trap(_PRIV, int(op), pc, ins)
                return
            if ins.user_ignored:
                # Non-trapping: silently ignored in user mode (the
                # Popek-Goldberg violation). No control intercepts it:
                # a deprivileged guest kernel really loses the write.
                self.pc = next_pc
                return
        if ins.extra:
            self.cycles += getattr(self.costs, ins.extra)
        self.system(self, self.controls, ins, op, pc, next_pc)

    def run(
        self,
        max_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
        on_exit: Optional[Callable[..., bool]] = None,
    ) -> RunResult:
        """Run until halt, a limit, or an event stop.

        One loop for every engine. It runs compiled blocks, or with
        ``jit_enabled`` False steps every instruction and builds no
        :class:`~repro.cpu.jit.BlockJIT`: :meth:`step` is the oracle the
        blocks are held to, and both stop at the same retire edge with
        the same state, under every MMU and controls record. A block is
        entered only if it cannot retire past the folded stop and its
        worst-case charge fits the cycle budget -- then every instruction
        in it starts inside the budget, as a step does; otherwise one
        ``step()``. Where ``lookup`` answers a count instead (1, or
        ``jit.COLD``: a cold head) the core is stepped, each step behind
        the full loop-top, until what ``step()`` ran ends a block by
        ``_compile``'s rule or the next pc is a head already heating
        (``jit.heating``); then it asks.

        Every retire edge is :meth:`_retire_edge`'s, the edge a run
        returns on too, so a run never leaves an event due behind it; a
        fire or a tick that leaves a virq pending (``virqs``) returns
        :data:`StopReason.EVENT`, for the VMM to inject. The first
        loop-top at or past the timer's deadline fires it, and a halt
        nothing else wakes sleeps to it (:meth:`sleep`).

        ``on_exit`` is a VMM's exit service, lent for this call only.
        An intercept calls it as ``on_exit(reason, ins, pc, trap)`` once
        the instruction has run; the loop hands it each :class:`VMExit`
        it catches as ``on_exit(reason, None, pc, exit_)``. True: the
        guest resumes where it was (a service that lowered the cycle
        ceiling, :meth:`charge_cycle_budget`, answers True too: the loop
        reads the ceiling at its next test). False unwinds to the loop,
        which returns :data:`StopReason.EVENT`. Without a service every
        exit is a :class:`VMExit`, raised before the instruction did
        anything.

        With a ``translator`` a run covers one virtual privilege level,
        and ends (:data:`StopReason.EVENT`) where the guest leaves it;
        virtual kernel mode is :meth:`_run_translated`'s.
        """
        bt = self.translator
        kernel = bt is not None and bt.vcpu.vcsr[_MODE] == MODE_KERNEL
        jit = self._jit
        if jit is None and (self.jit_enabled or kernel):
            from repro.cpu.jit import BlockJIT

            jit = self._jit = BlockJIT(self)
        start_instr, start_cycles = self.instret, self.cycles
        self._limit_stop = 1 << 62 if max_instructions is None else start_instr + max_instructions
        self._cycle_limit = self._cycle_stop = (
            1 << 62 if max_cycles is None else start_cycles + max_cycles)
        if self.timer is not None and self.timer.deadline is not None:
            self.fold_deadline()
        # A run starts on a retire edge: under a schedule the loop-top's
        # first test calls _retire_edge, which folds in the next due edge.
        self._loop_stop = self._limit_stop if self.events is None else 0
        if kernel:
            return RunResult(self._run_translated(bt, jit, on_exit),
                             self.instret - start_instr, self.cycles - start_cycles)
        virqs = self.virqs
        self._service = on_exit
        stepping = not self.jit_enabled
        lookup, heating = (None, None) if jit is None else (jit.lookup, jit.heating)
        step = self.step
        csr = self.csr
        cold_pc, left = -1, 0  # a cold run's next pc, and its steps left
        vcsr = None if bt is None else bt.vcpu.vcsr
        try:
            while True:
                if self.instret >= self._loop_stop and self._retire_edge() and virqs:
                    stop = StopReason.EVENT  # the VMM injects: its pump's turn
                    break
                if self.halted:
                    if csr[_IE] and self.pending_irqs:
                        self.halted = False
                    elif not self.sleep():
                        stop = StopReason.HALT
                        break
                if self.instret >= self._limit_stop:
                    stop = StopReason.INSTR_LIMIT
                    break
                try:
                    if vcsr is not None and vcsr[_MODE] == MODE_KERNEL:
                        stop = StopReason.EVENT  # an exit took the guest into its kernel
                        break
                    if self.cycles >= self._cycle_stop:
                        if self.cycles >= self._cycle_limit:
                            stop = StopReason.CYCLE_LIMIT
                            break
                        self.timer.tick(self.cycles)
                        if virqs:  # the VMM injects: its pump's turn
                            stop = StopReason.EVENT
                            break
                        continue
                    if stepping or csr[_IE] and self.pending_irqs:
                        step()
                        continue
                    pc = self.pc
                    if pc != cold_pc:
                        blk = lookup(pc, csr[_MODE])
                        if blk.__class__ is int:
                            left = blk
                        elif (
                            self.instret + blk[1] > self._loop_stop
                            or self.cycles + blk[2] >= self._cycle_stop
                        ):
                            # No straight-line block may retire past a budget
                            # or a due event edge: step, so the edge lands
                            # between instructions.
                            left = 1
                        else:
                            blk[0](self)
                            continue
                    cold_pc = -1  # an unwind ends the run
                    ins = step()
                    nxt = self.pc
                    if (left > 1 and ins is not None and not ins.ends_block and nxt not in heating
                            and nxt == pc + ins.length and nxt >> 12 == pc >> 12):
                        cold_pc, left = nxt, left - 1
                    continue
                except ExitUnwind:
                    pass
                except VMExit as exit_:
                    if on_exit is None:
                        raise
                    if on_exit(exit_.reason, None, self.pc, exit_):
                        continue
                # The pump's turn, on an edge with nothing due.
                if self.instret >= self._loop_stop:
                    self._retire_edge()
                stop = StopReason.EVENT
                break
        finally:
            self._service = None
        return RunResult(
            stop, self.instret - start_instr, self.cycles - start_cycles
        )

    def _run_translated(self, bt, jit, on_exit) -> StopReason:
        """:meth:`run` in a translator's virtual kernel mode: translated
        blocks, charged as :mod:`repro.core.bt` says. No service is lent:
        an exit is a :class:`VMExit`, handed to ``on_exit`` as the core
        finished it, that ends the run. Every edge is the loop top's, in
        one order: what is due fires, the limits stop, a virq is
        delivered. Items go on while no edge is due (a compiled run only
        if it cannot cross one) and no callout left a virq pending; else
        the top takes the edge and the block goes on with its rest. A
        limit leaves that rest and the block dispatched last in
        ``bt.resume``: the next run at that pc goes on as this one would
        have, translating and charging nothing again.
        """
        vcpu, execute, callout, epoch = bt.vcpu, self.execute, bt.callout, jit._epoch_cell
        vcsr, virqs, inject, timer = vcpu.vcsr, self.virqs, bt.inject_virq, self.timer
        backing = vcpu.vm.guest_mem.map.get
        translated = jit.translated if bt.cache_enabled else None
        chains = jit.chains if bt.chaining_enabled else None
        compiling = self.jit_enabled and translated is not None
        instr_c, callout_c, dispatch_c = (
            self.costs.instr_cycles, self.costs.bt_callout_cycles, self.costs.bt_dispatch_cycles)
        # The start va of the block dispatched last, that block's cache
        # key, the block, and the rest of it to go on with (None:
        # dispatch at pc).
        prev = key = block = rest = None
        resume, bt.resume = bt.resume, None
        if resume is not None and resume[0] == self.pc:
            prev, key, block, rest = resume[1:]
            if rest is not None and (block.suspect or translated is not None and translated.get(
                    key) is not block or tuple(map(backing, block.gfns)) != block.frames):
                rest = None  # its code moved or was dropped: dispatch at pc
        e0 = epoch[0]  # the code epoch ``rest`` runs under
        hits = misses = chained = callouts = 0
        try:
            while True:
                if self.instret >= self._loop_stop:
                    self._retire_edge()
                if self.cycles >= self._cycle_stop:
                    timer.tick(self.cycles)  # its deadline, or the limit: a no-op
                if self.instret >= self._limit_stop or self.cycles >= self._cycle_limit:
                    bt.resume = (self.pc, prev, key, block, rest)
                    return (StopReason.INSTR_LIMIT if self.instret >= self._limit_stop
                            else StopReason.CYCLE_LIMIT)
                if virqs and inject(vcpu):
                    prev = rest = None
                    continue
                if vcsr[_MODE] != MODE_KERNEL or vcpu.halted:
                    return StopReason.EVENT
                if rest is None:
                    key = (self.mmu.guest_root, self.pc)
                    block = translated.get(key) if translated is not None else None
                    if block is not None and (
                            block.suspect or tuple(map(backing, block.gfns)) != block.frames):
                        block = bt.recheck(key, block)
                    if block is None:
                        block = bt.translate(self.pc)
                        if block is None:  # a fetch fault took the guest to its vector
                            prev = None
                            continue
                        misses += 1
                        if translated is not None:
                            translated[key] = block
                            bt.watch(key, block)
                    else:
                        hits += 1
                    link = None if prev is None or chains is None else (prev, block.start_va)
                    if link is not None and link in chains:
                        chained += 1
                    else:
                        self.cycles += dispatch_c
                        if link is not None:
                            chains.add(link)
                    prev = block.start_va
                    rest = block.code
                    if rest is None:
                        rest = block.items
                        block.heat -= 1
                        if compiling and block.heat <= 0:
                            rest = block.code = jit.translated_code(block)
                    e0 = epoch[0]
                code, rest = rest, None
                while code is not None:
                    todo, code = iter(code), None
                    for kind, ins in todo:
                        if self.instret >= self._loop_stop or self.cycles >= self._cycle_stop:
                            rest = [(kind, ins), *todo]  # the edge is the top's
                            break
                        if kind is True:  # a callout
                            callouts += 1
                            self.cycles += callout_c
                            if callout(ins):
                                break
                            if virqs:  # injected at its edge, if it unmasked them
                                rest = list(todo) or None
                                break
                        elif kind is False:  # a native item, walked
                            self.cycles += instr_c
                            execute(ins)
                            # A store that dropped code: the next
                            # fetch translates the new bytes.
                            if ins.stores and epoch[0] != e0:
                                break
                        elif (epoch[0] == e0 and self.instret + kind[1] <= self._loop_stop
                              and self.cycles + kind[5] < self._cycle_stop):
                            kind[0](self)  # a compiled run, which may bail so too
                            if epoch[0] != e0 and (kind[3] or self.pc != kind[4]):
                                break
                        else:  # it would cross a stop, or code dropped
                            code = block.items[kind[2]:]
                            break
        except VMExit as exit_:
            if on_exit is None:
                raise
            q = exit_.qualification  # serviced as the core finished it
            on_exit(exit_.reason, q.get("ins"), self.pc, q.get("trap", exit_))
            # The pump's turn, on an edge with nothing due.
            if self.instret >= self._loop_stop:
                self._retire_edge()
            return StopReason.EVENT
        finally:
            bt.tally(hits, misses, chained, callouts)

    def _retire_edge(self) -> int:
        """The retire edge the run loop stops at: fire what is due here
        (DESIGN.md "Asynchronous event delivery") and republish the
        folded stop, min(instruction limit, next due edge), that every
        test of the loop compares against. Returns how many fired.

        Callers test ``instret >= _loop_stop`` first; an edge with
        nothing due fires nothing."""
        events = self.events
        if events is None:
            self._loop_stop = self._limit_stop
            return 0
        fired = events.fire_due(self.instret)
        self._loop_stop = min(self._limit_stop, events.next_due)
        return fired

    def charge_cycle_budget(self, cycles: int) -> None:
        """Count ``cycles`` spent outside the core against ``max_cycles``
        of the run in progress.

        An exit service whose caller budgets in VM time (core cycles +
        VMM cycles) calls this with what the exit cost the VMM, so the
        budget ends on the same retire edge as if the core had been left
        and re-entered with the remainder. The timer's deadline stays.
        """
        self._cycle_limit -= cycles
        self._cycle_stop = min(self._cycle_stop, self._cycle_limit)

    def fold_deadline(self) -> None:
        """Republish ``_cycle_stop`` after the timer's deadline moved."""
        deadline = self.timer.deadline
        self._cycle_stop = min(self._cycle_limit, 1 << 62 if deadline is None else deadline)

    def sleep(self) -> bool:
        """Idle a halted core to the timer's deadline and fire it; False
        (nothing moved) when the timer is off: no tick will wake it."""
        timer = self.timer
        if timer is None or timer.deadline is None:
            return False
        self.cycles = max(self.cycles, timer.deadline)
        timer.tick(self.cycles)
        return True

    def end_run(self) -> None:
        """A power-off: the run in progress ends on this retire edge, as
        at its instruction limit."""
        self._limit_stop = self._loop_stop = self.instret

    def jit_stats(self) -> Dict[str, int]:
        """Host-compiler counters (all zero when the JIT never engaged).

        ``cold_steps``: entries of a block whose head was not hot yet
        (one probe, then stepped to where the block ends). ``fallback_steps``:
        single steps where no block could start (EXEC translation not
        cached, nothing compilable); budget misfits are not counted.
        """
        from repro.cpu.jit import BlockJIT

        jit = self._jit or BlockJIT(self)  # a new engine's counters are zero
        return {"enabled": int(self.jit_enabled), "active": int(bool(self._jit)),
                **jit.stats()}

    # -- system instructions --------------------------------------------------

    def system(self, h, ctl: Optional[ExecControls], ins: Instruction,
               op: Op, pc: int, next_pc: int) -> bool:
        """What system instruction ``ins`` at ``pc`` does; True if it trapped.

        ``h`` is the privileged-state holder (module docstring): this
        core with ``ctl`` its installed controls when the instruction
        runs natively, a vCPU with ``ctl=None`` when a monitor emulates
        it. The caller has checked privilege and charged the row.

        An intercept does not change what the arm does (a VMCALL's arm
        is the hypercall, the VMM's): the run's exit service is called
        after it -- or, none lent, the :class:`VMExit` raised before it.
        """
        if op is _SYSCALL:
            # EPC points past the instruction so IRET resumes after it.
            h.trap(_SYSCALL_TRAP, ins.simm12 & 0xFFF, next_pc, ins)
            return True
        if op is _BRK:
            h.trap(_BREAK_TRAP, 0, next_pc, ins)
            return True
        if op is _IRET:
            self.leave_trap(h)
            return False
        reason = None  # the intercept met, reported once the arm has run
        if op is _CSRR:
            n = ins.simm12 & 0xFFF
            csr = h.csr
            if n == _CYCLES:
                value = self.cycles & 0xFFFFFFFF
            elif n == _INSTRET:
                value = self.instret & 0xFFFFFFFF
            elif n < len(csr):
                value = csr[n]
            else:
                h.trap(_ILLEGAL, n, pc, ins)
                return True
            self.write_reg(ins.rd, value)
        elif op is _CSRW:
            n = ins.simm12 & 0xFFF
            csr = h.csr
            if ctl is not None and ctl.paging and n == _PTBR:
                if self._service is None:
                    raise VMExit(_CSR_WRITE, pc, ins.length, ins=ins)
                reason = _CSR_WRITE
            elif n in READONLY_CSRS or n >= len(csr):
                h.trap(_ILLEGAL, n, pc, ins)
                return True
            value = self.regs[ins.ra]
            csr[n] = value & 0xFFFFFFFF
            if n == _PTBR:
                self.mmu.set_root(value)
        elif op is _OUT:
            if ctl is not None and ctl.io:
                if self._service is None:
                    raise VMExit(_IO_OUT, pc, ins.length, ins=ins)
                reason = _IO_OUT
            h.port_bus.io_out(ins.simm12 & 0xFFF, self.regs[ins.ra])
        elif op is _IN:
            if ctl is not None and ctl.io:
                if self._service is None:
                    raise VMExit(_IO_IN, pc, ins.length, ins=ins)
                reason = _IO_IN
            self.write_reg(ins.rd, h.port_bus.io_in(ins.simm12 & 0xFFF))
        elif op is _STI or op is _CLI:
            h.csr[_IE] = 1 if op is _STI else 0
        elif op is _HLT:
            if ctl is not None and ctl.hlt:
                if self._service is None:
                    raise VMExit(_HLT_EXIT, pc, ins.length, ins=ins)
                reason = _HLT_EXIT
            h.halted = True
        elif op is _INVLPG:
            if ctl is not None and ctl.paging:
                if self._service is None:
                    raise VMExit(_PRIV_INSTR, pc, ins.length, ins=ins)
                reason = _PRIV_INSTR
            self.mmu.invlpg(self.regs[ins.ra])
        else:  # VMCALL
            if ctl is None or not ctl.vmcall:
                h.trap(_ILLEGAL, 0, pc, ins)
                return True
            if self._service is None:
                raise VMExit(_VMCALL, pc, ins.length, ins=ins)
            reason = _VMCALL
        self.pc = next_pc
        if reason is not None and not self._service(reason, ins, pc, None):
            raise ExitUnwind
        return False
