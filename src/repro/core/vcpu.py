"""Virtual CPU: a core plus the virtual privileged state.

Under the deprivileged modes (trap-and-emulate, binary translation,
paravirt) the real core always runs in user mode and the guest's
privileged state -- its MODE, IE, VBAR, PTBR, trap CSRs -- lives here in
``vcsr``. Emulation callouts and exit handlers read and write ``vcsr``;
the real core's CSRs belong to the host.

Under HW_ASSIST the hardware tracks guest state natively, so the real
core's CSR file *is* the guest's and ``vcsr`` is unused.
"""

from typing import List

from repro.core.modes import VirtMode
from repro.core.stats import VMStats
from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.interp import CPUCore, TrapInfo
from repro.cpu.isa import CSR, MODE_KERNEL, MODE_USER


class VCPU:
    """One virtual CPU of a VM."""

    def __init__(self, vm, cpu: CPUCore, index: int = 0):
        self.vm = vm
        self.cpu = cpu
        self.index = index
        #: Virtual CSR file (deprivileged modes only).
        self.vcsr: List[int] = [0] * 16
        self.vcsr[CSR.MODE] = MODE_KERNEL
        self.halted = False
        #: Shadow MMU hook invoked when the *virtual* privilege changes
        #: (ring compression view switch); set by the hypervisor.
        self.on_virtual_mode_change = None
        #: Correctness probe: set when the guest observed hardware state
        #: that contradicts its virtual state (Popek-Goldberg violation
        #: under pure trap-and-emulate).
        self.incorrectness_observed = False
        #: Hypervisor-private fault state (``vcpu.stall`` injection): a
        #: stalled vCPU burns cycles without retiring instructions. Not
        #: guest-architectural, so snapshots and migration ignore it --
        #: a micro-reboot clears it by construction.
        self.stalled = False

    # -- virtual privilege ----------------------------------------------------

    @property
    def virtual_mode(self) -> int:
        return self.vcsr[CSR.MODE]

    @property
    def virtual_user(self) -> bool:
        return self.vcsr[CSR.MODE] == MODE_USER

    def set_virtual_mode(self, mode: int) -> None:
        if self.vcsr[CSR.MODE] != mode:
            self.vcsr[CSR.MODE] = mode
            if self.on_virtual_mode_change is not None:
                self.on_virtual_mode_change(mode == MODE_KERNEL)

    def rebuild_translation(self) -> None:
        """Rebuild host-local translation state from the guest's PTBR.

        Shadow tables and combined TLB entries never travel with a
        snapshot or a migration; after the architectural state has been
        restored, point the MMU at the restored root (and, for a
        ring-compressed shadow, at the restored privilege view).
        """
        hw = self.vm.config.virt_mode is VirtMode.HW_ASSIST
        root = self.cpu.csr[CSR.PTBR] if hw else self.vcsr[CSR.PTBR]
        if root:
            self.cpu.mmu.set_root(root)
            if self.on_virtual_mode_change is not None:
                self.on_virtual_mode_change(not self.virtual_user)

    # -- trap reflection -----------------------------------------------------

    def reflect_trap(self, info: TrapInfo) -> None:
        """Deliver a trap into the guest using *virtual* state.

        This is what the VMM does after intercepting a guest-destined
        trap (syscall, guest page fault, virtual interrupt) in a
        deprivileged mode: perform, in software, exactly what the
        hardware trap-delivery microcode would have done.
        """
        vbar = self.vcsr[CSR.VBAR]
        if vbar == 0:
            raise VMExit(
                ExitReason.TRIPLE_FAULT,
                guest_pc=self.cpu.pc,
                cause=info.cause,
                value=info.value,
            )
        self.vcsr[CSR.ESTATUS] = self.vcsr[CSR.MODE] | (self.vcsr[CSR.IE] << 1)
        self.set_virtual_mode(MODE_KERNEL)
        self.vcsr[CSR.IE] = 0
        self.vcsr[CSR.EPC] = info.epc & 0xFFFFFFFF
        self.vcsr[CSR.ECAUSE] = int(info.cause)
        self.vcsr[CSR.EVAL] = info.value & 0xFFFFFFFF
        self.cpu.pc = vbar
        VMStats.reflected_traps.bound(self.vm.stats).value += 1

    def emulate_iret(self) -> None:
        """The guest kernel executed IRET; apply it to virtual state."""
        estatus = self.vcsr[CSR.ESTATUS]
        self.vcsr[CSR.IE] = (estatus >> 1) & 1
        self.set_virtual_mode(estatus & 1)
        self.cpu.pc = self.vcsr[CSR.EPC]

    def __repr__(self) -> str:
        return f"<VCPU {self.vm.name}#{self.index} pc={self.cpu.pc:#x}>"
