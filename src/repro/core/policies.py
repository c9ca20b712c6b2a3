"""Virtualization policies installed on guest cores.

A policy decides, at each architecturally sensitive point, whether the
event stays in the guest or becomes a VM exit. Two policies cover the
execution modes:

* :class:`HWAssistPolicy` -- VT-x style. Guest privilege is tracked by
  the hardware; only I/O, VMCALL, HLT and (under shadow paging) PTBR
  writes and INVLPG exit. Guest traps deliver natively.
* :class:`HModePolicy` -- the H-mode extension on top of hardware
  assist: trap *delegation*. Causes whose HEDELEG/HIDELEG bit is set
  deliver natively in the guest with no VMM involvement at all; only
  non-delegated causes exit. Paging is never intercepted (the G-stage
  MMU handles memory virtualization in hardware).
* :class:`DeprivilegedPolicy` -- trap-and-emulate, binary translation
  and paravirt. The guest runs entirely in real user mode, so *every*
  trap exits to the VMM (which reflects or emulates), and VMCALL exits
  as a hypercall. Crucially, the sensitive non-trapping instructions
  (user-mode STI/CLI, CSRR of MODE/IE) stay native and silently observe
  host state -- the measured Popek-Goldberg violation. Binary
  translation avoids this not through the policy but by never executing
  those instructions directly (the translator rewrites them).
"""

from typing import Callable, Optional

from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.interp import CPUCore, HANDLED, NATIVE, TrapInfo, VirtPolicy
from repro.cpu.isa import CSR, IRQ_CAUSES, Op


class HWAssistPolicy(VirtPolicy):
    """Hardware-assisted execution: exit only on configured events."""

    def __init__(self, vcpu, intercept_paging: bool):
        #: True under shadow paging (PTBR writes and INVLPG must exit so
        #: the VMM can maintain shadows); False under nested paging.
        self.vcpu = vcpu
        self.intercept_paging = intercept_paging

    def io(self, cpu: CPUCore, is_in: bool, port: int, value: int, ins):
        reason = ExitReason.IO_IN if is_in else ExitReason.IO_OUT
        raise VMExit(reason, guest_pc=cpu.pc, instruction_length=ins.length,
                     port=port, value=value)

    def vmcall(self, cpu: CPUCore, num: int, ins):
        raise VMExit(ExitReason.VMCALL, guest_pc=cpu.pc,
                     instruction_length=ins.length, num=num)

    def hlt(self, cpu: CPUCore, ins):
        raise VMExit(ExitReason.HLT, guest_pc=cpu.pc,
                     instruction_length=ins.length)

    def csr_write(self, cpu: CPUCore, csr: int, value: int, ins):
        if csr == CSR.PTBR and self.intercept_paging:
            raise VMExit(ExitReason.CSR_WRITE, guest_pc=cpu.pc,
                         instruction_length=ins.length, csr=csr, value=value)
        return NATIVE

    def invlpg(self, cpu: CPUCore, va: int, ins):
        if self.intercept_paging:
            raise VMExit(ExitReason.PRIV_INSTR, guest_pc=cpu.pc,
                         instruction_length=ins.length, op=Op.INVLPG, va=va)
        return NATIVE


class HModePolicy(HWAssistPolicy):
    """H-mode guest execution: hardware trap delegation over HW assist.

    ``hedeleg``/``hideleg`` are the *host-programmed* delegation masks
    (bit = :class:`~repro.cpu.isa.Cause`): a delegated cause vectors
    straight into the guest kernel -- the policy returns NATIVE and the
    core's own :meth:`~repro.cpu.interp.CPUCore.deliver_trap` runs, so
    the guest-visible CSR/cycle effects are bit-identical to a bare
    machine. Non-delegated causes exit with the full trap context and
    the VMM re-injects (or handles) them.

    The guest's own view of CSRs HEDELEG/HIDELEG is virtualized against
    ``vcpu.vcsr``: reads and writes from the guest kernel never touch
    the host's masks (a guest cannot grant itself delegation), and the
    observable behaviour matches every other engine, where those CSR
    slots are plain storage.

    ``deleg_miss_fn`` is the ``hmode.delegation_miss`` fault hook: when
    it fires, one delegated trap spuriously exits anyway (modelling a
    microarchitectural delegation miss) and the VMM re-injects it --
    guest-visible state converges, only host-side timing differs.
    """

    def __init__(
        self,
        vcpu,
        hedeleg: int,
        hideleg: int,
        deleg_miss_fn: Optional[Callable[[], bool]] = None,
    ):
        super().__init__(vcpu, intercept_paging=False)
        self.hedeleg = hedeleg & 0xFFFFFFFF
        self.hideleg = hideleg & 0xFFFFFFFF
        self.deleg_miss_fn = deleg_miss_fn

    def trap(self, cpu: CPUCore, info: TrapInfo, ins):
        mask = self.hideleg if info.cause in IRQ_CAUSES else self.hedeleg
        if (mask >> int(info.cause)) & 1:
            extra = cpu.costs.hmode_deleg_extra_cycles
            if extra:
                # Charged whether delivery completes natively or via the
                # injected-after-spurious-exit path: the guest cycle
                # stream stays identical either way.
                cpu.cycles += extra
            if self.deleg_miss_fn is None or not self.deleg_miss_fn():
                return NATIVE
            raise VMExit(
                ExitReason.GUEST_TRAP,
                guest_pc=cpu.pc,
                instruction_length=ins.length if ins is not None else 0,
                trap=info,
                ins=ins,
                deleg_miss=True,
            )
        raise VMExit(
            ExitReason.GUEST_TRAP,
            guest_pc=cpu.pc,
            instruction_length=ins.length if ins is not None else 0,
            trap=info,
            ins=ins,
        )

    def csr_read(self, cpu: CPUCore, csr: int, user: bool):
        if csr in (int(CSR.HEDELEG), int(CSR.HIDELEG)):
            return self.vcpu.vcsr[csr]
        return NATIVE

    def csr_write(self, cpu: CPUCore, csr: int, value: int, ins):
        if csr in (int(CSR.HEDELEG), int(CSR.HIDELEG)):
            self.vcpu.vcsr[csr] = value & 0xFFFFFFFF
            return HANDLED
        return super().csr_write(cpu, csr, value, ins)


class DeprivilegedPolicy(VirtPolicy):
    """Software virtualization: every trap is intercepted."""

    def __init__(self, vcpu):
        self.vcpu = vcpu

    def trap(self, cpu: CPUCore, info: TrapInfo, ins):
        raise VMExit(
            ExitReason.GUEST_TRAP,
            guest_pc=cpu.pc,
            instruction_length=ins.length if ins is not None else 0,
            trap=info,
            ins=ins,
        )

    def vmcall(self, cpu: CPUCore, num: int, ins):
        raise VMExit(ExitReason.VMCALL, guest_pc=cpu.pc,
                     instruction_length=ins.length, num=num)

    # Sensitive non-trapping instructions and public-CSR reads stay
    # NATIVE deliberately: the guest silently sees *hardware* state.
    # (Inherited VirtPolicy defaults.)
