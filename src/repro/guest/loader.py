"""Boot helpers and the diagnostic-page reader."""

from dataclasses import dataclass

from repro.core.hypervisor import Hypervisor, RunOutcome
from repro.core.machine import Machine, MachineOutcome
from repro.core.vm import VirtualMachine
from repro.cpu.assembler import Program
from repro.guest.layout import DIAG_MAGIC, DiagField, GuestLayout as L
from repro.util.errors import GuestError

#: Guest RAM the NanoOS layout requires.
MIN_GUEST_MEMORY = L.MIN_MEMORY


@dataclass(frozen=True)
class DiagReport:
    """Decoded diagnostic page."""

    magic_ok: bool
    boot_ok: bool
    mode_ok: int  # 1 ok, 0 violated, 2 n/a
    ie_ok: int
    ticks: int
    syscalls: int
    user_result: int
    fault_cause: int
    demand_faults: int
    device_irqs: int

    @property
    def clean(self) -> bool:
        """Booted, ran, exited without an unexpected trap."""
        return self.magic_ok and self.boot_ok and self.fault_cause == 0

    @property
    def correct_virtualization(self) -> bool:
        """No sensitive-instruction probe detected host-state leakage."""
        return self.mode_ok != 0 and self.ie_ok != 0


def read_diag(mem) -> DiagReport:
    """Decode the diagnostic page from any u32-readable memory view."""
    base = L.DIAG

    def field(f: DiagField) -> int:
        return mem.read_u32(base + int(f))

    return DiagReport(
        magic_ok=field(DiagField.MAGIC) == DIAG_MAGIC,
        boot_ok=field(DiagField.BOOT_OK) == 1,
        mode_ok=field(DiagField.MODE_OK),
        ie_ok=field(DiagField.IE_OK),
        ticks=field(DiagField.TICKS),
        syscalls=field(DiagField.SYSCALLS),
        user_result=field(DiagField.USER_RESULT),
        fault_cause=field(DiagField.FAULT_CAUSE),
        demand_faults=field(DiagField.DEMAND_FAULTS),
        device_irqs=field(DiagField.DEVICE_IRQS),
    )


def boot_native(
    machine: Machine,
    kernel: Program,
    workload: Program,
    max_instructions: int = 5_000_000,
) -> DiagReport:
    """Load and run NanoOS on bare metal; returns the diagnostics."""
    if machine.physmem.size < MIN_GUEST_MEMORY:
        raise GuestError(
            f"machine has {machine.physmem.size} bytes; NanoOS needs "
            f"{MIN_GUEST_MEMORY}"
        )
    machine.load_program(kernel)
    machine.load_program(workload)
    machine.cpu.reset(kernel.entry)
    outcome = machine.run(max_instructions=max_instructions)
    if outcome is MachineOutcome.INSTR_LIMIT:
        raise GuestError("native NanoOS run hit the instruction limit")
    return read_diag(machine.physmem)


def boot_vm(
    hypervisor: Hypervisor,
    vm: VirtualMachine,
    kernel: Program,
    workload: Program,
    max_guest_instructions: int = 5_000_000,
) -> DiagReport:
    """Load and run NanoOS inside a VM; returns the diagnostics."""
    if vm.guest_mem.size < MIN_GUEST_MEMORY:
        raise GuestError(
            f"VM {vm.name} has {vm.guest_mem.size} bytes; NanoOS needs "
            f"{MIN_GUEST_MEMORY}"
        )
    hypervisor.load_program(vm, kernel)
    hypervisor.load_program(vm, workload)
    hypervisor.reset_vcpu(vm, kernel.entry)
    outcome = hypervisor.run(vm, max_guest_instructions=max_guest_instructions)
    if outcome is RunOutcome.INSTR_LIMIT:
        raise GuestError(f"VM {vm.name} NanoOS run hit the instruction limit")
    return read_diag(vm.guest_mem)
