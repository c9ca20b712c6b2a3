"""VM exits: the control transfers from guest execution to the VMM.

On real hardware these are defined by the virtualization extension
(VT-x exit reasons / SVM exit codes); placing them in the CPU package
mirrors that. Which events exit is register state the VMM programs once
(:class:`ExecControls`: VT-x execution controls, RISC-V
``hedeleg``/``hideleg``), not code the core calls out to. Where the
core itself tests an intercept (an intercepted system
instruction, a trap the controls send out) it *calls* the exit service
its caller lent it for the run (``CPUCore.run(on_exit=...)``) and
returns into the step or compiled block that made it; only the
service's "no" -- the pump's turn -- unwinds (:class:`ExitUnwind`). A
cycle budget is no reason to: the service lowers the core's ceiling
and answers True. What has to unwind is a :class:`VMExit`: an exit from
inside ``mmu.translate``, a triple fault, and every exit of a run with
no service lent (a bare ``cpu.run()``, a translated run in virtual
kernel mode), which reaches whoever called ``run``.
"""

import enum
from dataclasses import dataclass
from typing import Any, Dict


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


class VMExit(Exception):
    """Raised inside guest execution where an exit has to unwind.

    ``qualification`` carries reason-specific detail (faulting address,
    the intercepted instruction, the trap, ...), mirroring the VMCS
    exit-qualification field.
    """

    def __init__(
        self,
        reason: ExitReason,
        guest_pc: int = 0,
        instruction_length: int = 0,
        **qualification: Any,
    ):
        # No super().__init__: __str__ below is all the base class
        # would have kept.
        self.reason = reason
        self.guest_pc = guest_pc
        self.instruction_length = instruction_length
        self.qualification: Dict[str, Any] = qualification

    def __str__(self) -> str:
        return self.reason.value

    def qual(self, key: str) -> Any:
        return self.qualification.get(key)

    def __repr__(self) -> str:
        return (
            f"<VMExit {self.reason.value} @ {self.guest_pc:#x} "
            f"{self.qualification}>"
        )


class ExitUnwind(Exception):
    """An exit service's "no": unwinds to ``CPUCore.run``'s loop."""
