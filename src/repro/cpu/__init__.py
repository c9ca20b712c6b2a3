"""The VISA CPU: ISA definition, assembler, interpreter, MMU interface.

VISA is a 32-bit RISC-like ISA designed to expose the exact structure
that CPU-virtualization results depend on (Popek & Goldberg 1974):

* **privileged** instructions (CSRW, IRET, HLT, IN/OUT, INVLPG, and CSRR
  of privileged registers) trap when executed in user mode;
* **sensitive but unprivileged** instructions (STI, CLI, and CSRR of the
  MODE/IE registers) execute in user mode *without trapping* and observe
  or silently fail to change privileged state -- the deliberate
  Popek-Goldberg violation, mirroring x86's 17 non-virtualizable
  instructions, that motivates binary translation and paravirtualization;
* everything else is innocuous.

The interpreter charges cycles from :class:`repro.mem.costs.CostModel`
and delegates every translation to a pluggable MMU object, which is how
the hypervisor layers in shadow or nested paging without touching the
interpreter.
"""

from repro.cpu.isa import (
    Op,
    CSR,
    Cause,
    Reg,
    Instruction,
    decode,
    encode,
    MODE_KERNEL,
    MODE_USER,
    PRIVILEGED_OPS,
    SENSITIVE_UNPRIV_OPS,
    PUBLIC_CSRS,
)
from repro.cpu.exits import ExecControls, VMExit, ExitReason
from repro.cpu.assembler import Assembler, Program, AssemblyError
from repro.cpu.disasm import disassemble, disassemble_one
from repro.cpu.mmu import MMUBase, BareMMU
from repro.cpu.interp import CPUCore, RunResult, StopReason, TrapInfo

__all__ = [
    "Op",
    "CSR",
    "Cause",
    "Reg",
    "Instruction",
    "decode",
    "encode",
    "MODE_KERNEL",
    "MODE_USER",
    "PRIVILEGED_OPS",
    "SENSITIVE_UNPRIV_OPS",
    "PUBLIC_CSRS",
    "ExecControls",
    "VMExit",
    "ExitReason",
    "Assembler",
    "Program",
    "AssemblyError",
    "disassemble",
    "disassemble_one",
    "MMUBase",
    "BareMMU",
    "CPUCore",
    "RunResult",
    "StopReason",
    "TrapInfo",
]
