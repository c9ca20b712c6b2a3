"""VM exits: the control transfers from guest execution to the VMM.

On real hardware these are defined by the virtualization extension
(VT-x exit reasons / SVM exit codes); placing them in the CPU package
mirrors that. Which events exit is register state the VMM programs once
(:class:`ExecControls`: VT-x execution controls, RISC-V
``hedeleg``/``hideleg``), not code the core calls out to. The
interpreter tests the record and raises :class:`VMExit` at an exit
point. The core's run loop catches it and hands it to the exit service
its caller lent it for that run (``CPUCore.run(on_exit=...)``); the
service -- ``Hypervisor.run``'s -- handles the exit and says whether the
guest may resume in place or the VMM's pump must see it first. Without
a service the exception reaches whoever called ``run``.
"""

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional


class ExitReason(enum.Enum):
    """Why the guest stopped running."""

    PRIV_INSTR = "priv_instr"  # trapping privileged instruction
    CSR_WRITE = "csr_write"  # write to an intercepted CSR (e.g. PTBR)
    IO_IN = "io_in"
    IO_OUT = "io_out"
    VMCALL = "vmcall"  # explicit hypercall
    HLT = "hlt"
    PAGE_FAULT = "page_fault"  # shadow fill or nested (EPT-style) violation
    GUEST_TRAP = "guest_trap"  # trap that must be reflected into the guest
    TRIPLE_FAULT = "triple_fault"


@dataclass(frozen=True)
class ExecControls:
    """Which guest events leave the guest (a core's ``controls``).

    ``None`` on the core is the bare machine. An all-default record
    intercepts nothing but still marks the core as a guest: a triple
    fault exits instead of raising, and the block JIT stays off.
    """

    #: IN/OUT exit with IO_IN / IO_OUT.
    io: bool = False
    #: VMCALL exits as a hypercall (otherwise it is an illegal opcode).
    vmcall: bool = False
    hlt: bool = False
    #: PTBR writes (CSR_WRITE) and INVLPG (PRIV_INSTR) exit: the VMM
    #: maintains shadow page tables.
    paging: bool = False
    #: Bit per :class:`~repro.cpu.isa.Cause`: a set bit makes that trap
    #: exit with GUEST_TRAP instead of vectoring into the guest.
    trap_exits: int = 0
    #: H-mode delegation: a trap that stays in the guest additionally
    #: costs ``CostModel.hmode_deleg_extra_cycles``.
    hmode: bool = False
    #: The ``hmode.delegation_miss`` fault hook: when it returns True
    #: one delegated trap exits anyway (tagged ``deleg_miss``) and the
    #: VMM re-injects it.
    delegation_miss: Optional[Callable[[], bool]] = None


class VMExit(Exception):
    """Raised inside guest execution to transfer control to the VMM.

    ``qualification`` carries reason-specific detail (faulting address,
    port number, CSR index, ...), mirroring the VMCS exit-qualification
    field.
    """

    def __init__(
        self,
        reason: ExitReason,
        guest_pc: int = 0,
        instruction_length: int = 0,
        **qualification: Any,
    ):
        # No super().__init__: one of these is built per exit, and
        # __str__ below is all the base class would have kept.
        self.reason = reason
        self.guest_pc = guest_pc
        self.instruction_length = instruction_length
        self.qualification: Dict[str, Any] = qualification

    def __str__(self) -> str:
        return self.reason.value

    def qual(self, key: str, default: Optional[Any] = None) -> Any:
        return self.qualification.get(key, default)

    def __repr__(self) -> str:
        return (
            f"<VMExit {self.reason.value} @ {self.guest_pc:#x} "
            f"{self.qualification}>"
        )
