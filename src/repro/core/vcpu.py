"""Virtual CPU: a core plus the virtual privileged state.

Under the deprivileged modes (trap-and-emulate, binary translation,
paravirt) the real core always runs in user mode and the guest's
privileged state -- its MODE, IE, VBAR, PTBR, trap CSRs -- lives here in
``vcsr``. Emulation callouts and exit handlers read and write ``vcsr``;
the real core's CSRs belong to the host.

Under HW_ASSIST the hardware tracks guest state natively, so the real
core's CSR file *is* the guest's; ``vcsr`` is then written only by the
PV hypercalls that name it (``SET_VBAR`` / ``SET_PTBR`` / ``SET_IE``
from an HVM guest's PV driver) and still travels in the snapshot blob.

A :class:`VCPU` is a privileged-state holder in the sense of
:mod:`repro.cpu.interp`: the monitor emulates a system instruction, a
trap entry or an IRET by running the core's own routine against it.
"""

from typing import List

from repro.core.modes import VirtMode
from repro.core.stats import VMStats
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

    # -- the privileged-state holder (see repro.cpu.interp) ---------------------

    @property
    def csr(self) -> List[int]:
        """The list that holds this guest's privileged registers: the
        core's own under HW_ASSIST, ``vcsr`` when deprivileged."""
        if self.vm.config.virt_mode is VirtMode.HW_ASSIST:
            return self.cpu.csr
        return self.vcsr

    @property
    def port_bus(self):
        return self.vm.port_bus

    # The virtual privilege level stays on ``vcsr`` rather than going
    # through ``csr``: only the deprivileged engines consult it, and the
    # translator reads it at every block dispatch, where the accessor's
    # cost shows. Under HW_ASSIST nothing reads it; the one writer there
    # is a PV IRET hypercall issued by an HVM guest.

    @property
    def virtual_mode(self) -> int:
        return self.vcsr[CSR.MODE]

    @property
    def virtual_user(self) -> bool:
        return self.vcsr[CSR.MODE] == MODE_USER

    def set_mode(self, mode: int) -> None:
        if self.vcsr[CSR.MODE] != mode:
            self.vcsr[CSR.MODE] = mode
            if self.on_virtual_mode_change is not None:
                self.on_virtual_mode_change(mode == MODE_KERNEL)

    def trap(self, cause, value: int, epc: int, ins=None) -> None:
        self.reflect_trap(TrapInfo(cause, value, epc))

    def reflect_trap(self, info: TrapInfo) -> None:
        """Deliver a trap into the guest using *virtual* state.

        This is what the VMM does after intercepting a guest-destined
        trap (syscall, guest page fault, virtual interrupt) in a
        deprivileged mode: perform, in software, exactly what the
        hardware trap-delivery microcode would have done -- by running
        that microcode (:meth:`CPUCore.enter_trap`) against this vCPU.
        """
        self.cpu.enter_trap(self, info)
        VMStats.reflected_traps.bound(self.vm.stats).value += 1

    def rebuild_translation(self) -> None:
        """Rebuild host-local translation state from the guest's PTBR.

        Shadow tables and combined TLB entries never travel with a
        snapshot or a migration; after the architectural state has been
        restored, point the MMU at the restored root (and, for a
        ring-compressed shadow, at the restored privilege view).
        """
        root = self.csr[CSR.PTBR]
        if root:
            self.cpu.mmu.set_root(root)
            if self.on_virtual_mode_change is not None:
                self.on_virtual_mode_change(not self.virtual_user)

    def __repr__(self) -> str:
        return f"<VCPU {self.vm.name}#{self.index} pc={self.cpu.pc:#x}>"
