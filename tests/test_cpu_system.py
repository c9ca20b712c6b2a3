"""System instructions: traps, CSRs, privilege, interrupts, I/O."""

import pytest

from repro.cpu.assembler import Assembler
from repro.cpu.interp import CPUCore, StopReason
from repro.cpu.isa import CSR, Cause, MODE_KERNEL, MODE_USER
from repro.cpu.mmu import BareMMU
from repro.mem.costs import CostModel
from repro.mem.paging import AddressSpace, PTE_USER, PTE_WRITABLE
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.units import MIB


class PortStub:
    def __init__(self):
        self.writes = []
        self.value = 0x77

    def io_out(self, port, value):
        self.writes.append((port, value))

    def io_in(self, port):
        return self.value


def build(src, port_bus=None):
    prog = Assembler().assemble(".org 0x1000\n" + src)
    pm = PhysicalMemory(1 * MIB)
    prog.load(pm)
    cpu = CPUCore(BareMMU(pm, CostModel()), port_bus=port_bus)
    cpu.reset(0x1000)
    cpu.regs[13] = 0x80000
    return cpu, pm


class TestTrapsAndIret:
    def test_syscall_roundtrip(self):
        cpu, _ = build("""
    li a0, vec
    csrw VBAR, a0
    syscall 5
    li a3, 99          ; must execute after iret
    hlt
vec:
    csrr a1, ECAUSE
    csrr a2, EVAL
    iret
""")
        cpu.run(max_instructions=100)
        assert cpu.regs[2] == int(Cause.SYSCALL)
        assert cpu.regs[3] == 5
        assert cpu.regs[4] == 99

    def test_trap_saves_and_restores_mode_and_ie(self):
        cpu, _ = build("""
    li a0, vec
    csrw VBAR, a0
    sti
    syscall 1
    csrr a2, IE        ; IE restored by iret
    hlt
vec:
    csrr a1, IE        ; IE cleared during handler
    iret
""")
        cpu.run(max_instructions=100)
        assert cpu.regs[2] == 0  # inside handler
        assert cpu.regs[3] == 1  # restored after iret
        assert cpu.csr[CSR.MODE] == MODE_KERNEL

    def test_estatus_encodes_prior_state(self):
        cpu, _ = build("""
    li a0, vec
    csrw VBAR, a0
    sti
    syscall 0
    hlt
vec:
    csrr a1, ESTATUS
    iret
""")
        cpu.run(max_instructions=100)
        assert cpu.regs[2] == (MODE_KERNEL | (1 << 1))


class TestPrivilege:
    def _user_setup(self, body_user, body_vec):
        """Run kernel that drops to user mode at 0x3000."""
        src = f"""
    li a0, vec
    csrw VBAR, a0
    li a0, user
    csrw EPC, a0
    li a0, 1           ; prior mode = user, IE off
    csrw ESTATUS, a0
    iret
vec:
{body_vec}
.space 64
user:
{body_user}
"""
        cpu, pm = build(src)
        # Identity map everything user-accessible so user code can run.
        alloc = FrameAllocator(pm, reserved_frames=64)
        space = AddressSpace(pm, alloc)
        for page in range(0, 0x30):
            space.map(page * 4096, page * 4096, PTE_WRITABLE | PTE_USER)
        cpu.mmu.set_root(space.root_pa)
        return cpu

    def test_privileged_instruction_traps_in_user_mode(self):
        cpu = self._user_setup(
            body_user="    csrw VBAR, a0\n    hlt\n",
            body_vec="    csrr a1, ECAUSE\n    hlt\n",
        )
        cpu.run(max_instructions=100)
        assert cpu.regs[2] == int(Cause.PRIV)
        assert cpu.csr[CSR.MODE] == MODE_KERNEL

    def test_privileged_csr_read_traps_in_user_mode(self):
        cpu = self._user_setup(
            body_user="    csrr a0, PTBR\n    hlt\n",
            body_vec="    csrr a1, ECAUSE\n    hlt\n",
        )
        cpu.run(max_instructions=100)
        assert cpu.regs[2] == int(Cause.PRIV)

    def test_sensitive_instructions_silently_misbehave(self):
        # STI in user mode is ignored; CSRR MODE reads the real mode.
        cpu = self._user_setup(
            body_user="""
    sti
    csrr a1, IE
    csrr a2, MODE
    syscall 0
""",
            body_vec="    hlt\n",
        )
        cpu.run(max_instructions=100)
        assert cpu.regs[2] == 0  # STI had no effect
        assert cpu.regs[3] == MODE_USER  # hardware mode leaked
        assert cpu.csr[CSR.IE] == 0

    def test_public_counters_readable_from_user(self):
        cpu = self._user_setup(
            body_user="    csrr a1, CYCLES\n    csrr a2, INSTRET\n    syscall 0\n",
            body_vec="    hlt\n",
        )
        cpu.run(max_instructions=100)
        assert cpu.regs[2] > 0 and cpu.regs[3] > 0


class TestCSRs:
    def test_readonly_csr_write_is_illegal(self):
        cpu, _ = build("""
    li a0, vec
    csrw VBAR, a0
    csrw CYCLES, a0
    hlt
vec:
    csrr a1, ECAUSE
    hlt
""")
        cpu.run(max_instructions=100)
        assert cpu.regs[2] == int(Cause.ILLEGAL)

    def test_scratch_roundtrip(self):
        cpu, _ = build("""
    li a0, 0x1234
    csrw SCRATCH, a0
    csrr a1, SCRATCH
    hlt
""")
        cpu.run(max_instructions=100)
        assert cpu.regs[2] == 0x1234

    def test_ptbr_write_installs_root(self):
        cpu, pm = build("    hlt\n")
        alloc = FrameAllocator(pm, reserved_frames=64)
        space = AddressSpace(pm, alloc)
        space.map(0x1000, 0x1000, PTE_WRITABLE)
        cpu.csr[CSR.VBAR] = 0  # irrelevant
        cpu.regs[1] = space.root_pa
        prog = Assembler().assemble(".org 0x1000\n    csrw PTBR, a0\n    hlt\n")
        prog.load(pm)
        cpu.reset(0x1000)
        cpu.regs[1] = space.root_pa
        cpu.run(max_instructions=10)
        assert cpu.mmu.tlb_active
        assert cpu.mmu.root_pa == space.root_pa


class TestInterrupts:
    def test_irq_delivered_when_enabled(self):
        cpu, _ = build("""
    li a0, vec
    csrw VBAR, a0
    sti
spin:
    jmp spin
vec:
    csrr a1, ECAUSE
    hlt
""")
        cpu.run(max_instructions=10)
        cpu.assert_irq(Cause.IRQ_TIMER)
        cpu.run(max_instructions=50)
        assert cpu.regs[2] == int(Cause.IRQ_TIMER)

    def test_irq_held_while_disabled(self):
        cpu, _ = build("""
    li a0, vec
    csrw VBAR, a0
spin:
    jmp spin
vec:
    hlt
""")
        cpu.assert_irq(Cause.IRQ_TIMER)
        result = cpu.run(max_instructions=30)
        assert result.stop is StopReason.INSTR_LIMIT  # never delivered
        assert Cause.IRQ_TIMER in cpu.pending_irqs

    def test_timer_priority_over_device(self):
        cpu, _ = build("""
    li a0, vec
    csrw VBAR, a0
    sti
spin:
    jmp spin
vec:
    csrr a1, ECAUSE
    hlt
""")
        cpu.assert_irq(Cause.IRQ_DEVICE)
        cpu.assert_irq(Cause.IRQ_TIMER)
        cpu.run(max_instructions=100)
        assert cpu.regs[2] == int(Cause.IRQ_TIMER)
        assert Cause.IRQ_DEVICE in cpu.pending_irqs

    def test_hlt_wakes_on_irq(self):
        cpu, _ = build("""
    li a0, vec
    csrw VBAR, a0
    sti
    hlt
    li a2, 7
    hlt
vec:
    csrr a1, ECAUSE
    iret
""")
        result = cpu.run(max_instructions=100)
        assert result.stop is StopReason.HALT
        cpu.assert_irq(Cause.IRQ_TIMER)
        cpu.run(max_instructions=100)
        # woke, vectored, returned to the instruction after hlt
        assert cpu.regs[2] == int(Cause.IRQ_TIMER)
        assert cpu.regs[3] == 7

    def test_invalid_irq_cause_rejected(self):
        cpu, _ = build("hlt\n")
        with pytest.raises(ValueError):
            cpu.assert_irq(Cause.SYSCALL)


class TestPortIO:
    def test_out_reaches_bus(self):
        stub = PortStub()
        cpu, _ = build("""
    li a0, 0xAB
    out 0x40, a0
    hlt
""", port_bus=stub)
        cpu.run(max_instructions=10)
        assert stub.writes == [(0x40, 0xAB)]

    def test_in_reads_bus(self):
        stub = PortStub()
        cpu, _ = build("    in a1, 0x50\n    hlt\n", port_bus=stub)
        cpu.run(max_instructions=10)
        assert cpu.regs[2] == 0x77

    def test_io_without_bus_reads_zero(self):
        cpu, _ = build("    li a1, 5\n    in a1, 0x50\n    out 0x10, a1\n    hlt\n")
        cpu.run(max_instructions=10)
        assert cpu.regs[2] == 0

    def test_io_charges_cycles(self):
        costs = CostModel()
        stub = PortStub()
        cpu, _ = build("    in a1, 0x50\n    hlt\n", port_bus=stub)
        cpu.run(max_instructions=10)
        assert cpu.cycles >= costs.io_port_cycles


class TestBreakpoint:
    def test_brk_traps(self):
        cpu, _ = build("""
    li a0, vec
    csrw VBAR, a0
    brk
    li a2, 1
    hlt
vec:
    csrr a1, ECAUSE
    iret
""")
        cpu.run(max_instructions=100)
        assert cpu.regs[2] == int(Cause.BREAK)
        assert cpu.regs[3] == 1  # resumed after brk
