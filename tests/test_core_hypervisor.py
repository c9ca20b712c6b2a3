"""Hypervisor: VM lifecycle, exits, hypercalls, ballooning."""

from dataclasses import FrozenInstanceError

import pytest

from repro.bench.common import MODE_MATRIX
from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import HypercallNumbers, RunOutcome, shared_info_gfn
from repro.core.machine import Machine
from repro.cpu.assembler import Assembler
from repro.cpu.exits import ExitReason
from repro.cpu.isa import Cause, Op, encode
from repro.util.errors import ConfigError, GuestError
from repro.util.units import MIB

GUEST_MEM = 16 * MIB


def make_vm(hv, name="vm", virt_mode=VirtMode.HW_ASSIST,
            mmu_mode=MMUVirtMode.NESTED, **kw):
    return hv.create_vm(GuestConfig(name=name, memory_bytes=GUEST_MEM,
                                    virt_mode=virt_mode, mmu_mode=mmu_mode,
                                    **kw))


def load_and_run(hv, vm, src, max_instructions=100_000):
    prog = Assembler().assemble(".org 0x1000\n" + src)
    hv.load_program(vm, prog)
    hv.reset_vcpu(vm, prog.entry if prog.symbols.get("start") else 0x1000)
    return hv.run(vm, max_guest_instructions=max_instructions)


class TestLifecycle:
    def test_create_allocates_guest_memory(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        free_before = hv.allocator.free_frames
        vm = make_vm(hv)
        assert free_before - hv.allocator.free_frames >= vm.num_pages
        assert vm.name in hv.vms

    def test_duplicate_name_rejected(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        make_vm(hv, name="x")
        with pytest.raises(ConfigError):
            make_vm(hv, name="x")

    def test_destroy_returns_all_frames(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        before = hv.allocator.allocated_frames
        vm = make_vm(hv)
        hv.destroy_vm(vm)
        assert hv.allocator.allocated_frames == before
        assert vm.name not in hv.vms

    def test_device_accessor(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        assert vm.device("console") is vm.devices["console"]
        with pytest.raises(ConfigError):
            vm.device("flux_capacitor")

    def test_multiple_vms_isolated_memory(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        a = make_vm(hv, name="a")
        b = make_vm(hv, name="b")
        a.guest_mem.write_u32(0x1000, 0xAAAA)
        b.guest_mem.write_u32(0x1000, 0xBBBB)
        assert a.guest_mem.read_u32(0x1000) == 0xAAAA
        assert b.guest_mem.read_u32(0x1000) == 0xBBBB


class TestRunLoop:
    def test_shutdown_via_power_port(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        outcome = load_and_run(hv, vm, """
    li a0, 1
    out 0xf0, a0
    hlt
""")
        assert outcome is RunOutcome.SHUTDOWN
        assert vm.devices["power"].code == 1

    def test_halted_when_idle_without_timer(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        outcome = load_and_run(hv, vm, "    hlt\n")
        assert outcome is RunOutcome.HALTED

    def test_instruction_limit(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        outcome = load_and_run(hv, vm, "loop: jmp loop\n",
                               max_instructions=5000)
        assert outcome is RunOutcome.INSTR_LIMIT

    def test_io_exit_reaches_virtual_device(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        load_and_run(hv, vm, """
    li a0, 72
    out 0x10, a0
    li a0, 1
    out 0xf0, a0
    hlt
""")
        assert vm.devices["console"].text == "H"
        assert vm.exit_stats.counts.get("io_out:port_0x10") == 1

    def test_in_exit_returns_device_value(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        load_and_run(hv, vm, """
    in a1, 0x11          ; console status port reads 1
    li a0, 1
    out 0xf0, a0
    hlt
""")
        assert vm.vcpus[0].cpu.regs[2] == 1

    def test_triple_fault_is_guest_error(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        with pytest.raises(GuestError, match="triple fault"):
            load_and_run(hv, vm, "    syscall 0\n    hlt\n")

    def test_timer_wakes_halted_guest(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        outcome = load_and_run(hv, vm, """
    li a0, vec
    csrw VBAR, a0
    li t0, 5000
    out 0x40, t0         ; timer period (cycles)
    li t0, 1
    out 0x41, t0         ; one-shot
    sti
    hlt                  ; sleep until the timer fires
    li a0, 1
    out 0xf0, a0         ; shutdown proves we woke
    hlt
vec:
    in t1, 0x20
    out 0x20, t1         ; ack
    iret
""")
        assert outcome is RunOutcome.SHUTDOWN
        assert vm.devices["timer"].expirations == 1


class TestHypercalls:
    def test_console_putc_hypercall(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        load_and_run(hv, vm, f"""
    li a0, 80            ; 'P'
    vmcall {int(HypercallNumbers.CONSOLE_PUTC)}
    li a0, 1
    out 0xf0, a0
    hlt
""")
        assert vm.devices["console"].text == "P"
        assert vm.stats.hypercalls == 1

    def test_unknown_hypercall_returns_minus_one(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        load_and_run(hv, vm, """
    vmcall 999
    mov a3, a0
    li a0, 1
    out 0xf0, a0
    hlt
""")
        assert vm.vcpus[0].cpu.regs[4] == 0xFFFFFFFF

    def test_halt_hypercall(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        outcome = load_and_run(hv, vm, f"""
    vmcall {int(HypercallNumbers.HALT)}
    hlt
""")
        assert outcome is RunOutcome.HALTED

    def test_balloon_give_and_take(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        free_before = hv.allocator.free_frames
        # Give away gfn 2000 (unused high memory), then take it back.
        load_and_run(hv, vm, f"""
    li a0, 2000
    vmcall {int(HypercallNumbers.BALLOON_GIVE)}
    mov a3, a0
    li a0, 1
    out 0xf0, a0
    hlt
""")
        assert vm.vcpus[0].cpu.regs[4] == 0
        assert 2000 in vm.ballooned_gfns
        assert hv.allocator.free_frames == free_before + 1
        assert not vm.guest_mem.is_mapped(2000)

    def test_balloon_give_bad_gfn_fails(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        load_and_run(hv, vm, f"""
    li a0, 999999
    vmcall {int(HypercallNumbers.BALLOON_GIVE)}
    mov a3, a0
    li a0, 1
    out 0xf0, a0
    hlt
""")
        assert vm.vcpus[0].cpu.regs[4] == 0xFFFFFFFF


def long_form(op, rd=0, ra=0, simm12=0):
    """``op`` in its 8-byte form (IMM_FLAG set), as assembler ``.word`` lines.

    The immediate word is not a decodable instruction, so a handler
    that resumes 4 bytes on -- inside it -- cannot go unnoticed.
    """
    raw = encode(op, rd, ra, 0, simm12, imm32=0xDEADBEEF)
    return "\n".join(
        f"    .word {int.from_bytes(raw[i:i + 4], 'little'):#x}"
        for i in (0, 4)
    )


class TestLongFormExits:
    """Intercepted instructions resume past their real encoding.

    Any opcode may carry IMM_FLAG; the exit handler used to advance pc
    by a literal 4, so under hardware assist the 8-byte OUT/IN/HLT/
    VMCALL forms resumed inside the immediate word and a host
    DecodeError escaped ``Hypervisor.run``.
    """

    #: The six VMM rows of the experiment matrix (all but "native").
    CONFIGS = [row for row in MODE_MATRIX if row[1] is not None]
    all_configs = pytest.mark.parametrize(
        "virt_mode,mmu_mode", [c[1:3] for c in CONFIGS],
        ids=[c[0] for c in CONFIGS])

    # s0 = r9, a1 = r2: 'A' out, console status (1) in, 'B' out, halt.
    PORT_IO = f"""
    li s0, 65
{long_form(Op.OUT, ra=9, simm12=0x10)}
{long_form(Op.IN, rd=2, simm12=0x11)}
    add s0, s0, a1
    out 0x10, s0
{long_form(Op.HLT)}
"""

    @all_configs
    def test_out_in_hlt_match_the_bare_machine(self, virt_mode, mmu_mode):
        machine = Machine()
        machine.load_program(Assembler().assemble(".org 0x1000\n" + self.PORT_IO))
        machine.cpu.reset(0x1000)
        bare_outcome = machine.run(max_instructions=1000)
        assert machine.console.text == "AB"

        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv, virt_mode=virt_mode, mmu_mode=mmu_mode)
        outcome = load_and_run(hv, vm, self.PORT_IO, max_instructions=1000)
        assert vm.devices["console"].text == machine.console.text
        assert vm.vcpus[0].cpu.pc == machine.cpu.pc
        assert outcome.value == bare_outcome.value == "halted"

    @all_configs
    def test_vmcall(self, virt_mode, mmu_mode):
        # VMCALL is illegal on the bare machine, so the six engines are
        # held to the one architected answer instead.
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv, virt_mode=virt_mode, mmu_mode=mmu_mode)
        outcome = load_and_run(hv, vm, f"""
    li a0, 86            ; 'V'
{long_form(Op.VMCALL, simm12=int(HypercallNumbers.CONSOLE_PUTC))}
{long_form(Op.VMCALL, simm12=999)}
    mov a3, a0
    li a0, 1
    out 0xf0, a0
    hlt
""", max_instructions=1000)
        assert outcome is RunOutcome.SHUTDOWN
        assert vm.devices["console"].text == "V"
        assert vm.vcpus[0].cpu.regs[4] == 0xFFFFFFFF  # unknown hypercall: -1
        assert vm.stats.hypercalls == 2


class TestInterceptMatrix:
    """Which instructions leave the guest, per engine row.

    One kernel-mode guest issues every interceptable event; the exit
    reasons each row records are the table its execution controls
    encode (and, for binary translation, what the translator keeps out
    of the exit path altogether).
    """

    R = ExitReason
    HW = {R.IO_OUT, R.IO_IN, R.VMCALL, R.HLT}
    EXPECTED = {
        # Deprivileged: every privileged instruction and trap arrives
        # as GUEST_TRAP; shadow paging adds its fill exits.
        "trap-emulate": {R.GUEST_TRAP, R.VMCALL, R.PAGE_FAULT},
        "paravirt": {R.GUEST_TRAP, R.VMCALL, R.PAGE_FAULT},
        # Translated kernel code calls out inline (VMCALL included); only
        # the natively executed DIVU's trap exits.
        "bin-transl": {R.GUEST_TRAP, R.PAGE_FAULT},
        # Hardware assist: traps deliver natively; paging instructions
        # exit only where the VMM maintains shadows.
        "hw+shadow": HW | {R.CSR_WRITE, R.PRIV_INSTR, R.PAGE_FAULT},
        "hw+nested": HW,
        "hw+hmode": HW,
    }

    # Identity-maps the code page, then: OUT, IN, CSRW PTBR, INVLPG,
    # SYSCALL, DIVU by zero, VMCALL, HLT. The handler steps over the
    # DIVU (its EPC is the faulting pc) and returns.
    GUEST = f"""
    li a0, handler
    csrw VBAR, a0
    li t0, 0x10000
    li t1, 0x11003
    st [t0+0], t1        ; PD[0] -> PT, present|writable
    li t0, 0x11000
    li t1, 0x1003
    st [t0+4], t1        ; PT[1] -> this code page
    li s0, 65            ; 'A'
    out 0x10, s0
    in a1, 0x11
    li t0, 0x10000
    csrw PTBR, t0
    li t1, 0x2000
    invlpg t1
    syscall 7
    divu a2, s0, zero
    li a0, 86            ; 'V'
    vmcall {int(HypercallNumbers.CONSOLE_PUTC)}
    hlt
handler:
    csrr t2, ECAUSE
    li t3, {int(Cause.DIV0)}
    bne t2, t3, done
    csrr t2, EPC
    li t3, 4
    add t2, t2, t3
    csrw EPC, t2
done:
    iret
"""

    @TestLongFormExits.all_configs
    def test_exit_reasons_per_row(self, virt_mode, mmu_mode):
        row = next(r[0] for r in MODE_MATRIX if r[1:3] == (virt_mode, mmu_mode))
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv, virt_mode=virt_mode, mmu_mode=mmu_mode)
        outcome = load_and_run(hv, vm, self.GUEST, max_instructions=1000)
        assert outcome is RunOutcome.HALTED
        assert vm.devices["console"].text == "AV"
        seen = {ExitReason(key.split(":")[0]) for key in vm.exit_stats.counts}
        assert seen == self.EXPECTED[row]

    def test_controls_are_immutable(self):
        # Deprivileged guests share one record: a vCPU must not be able
        # to reprogram every other guest through it.
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv, virt_mode=VirtMode.TRAP_EMULATE,
                     mmu_mode=MMUVirtMode.SHADOW)
        with pytest.raises(FrozenInstanceError):
            vm.vcpus[0].cpu.controls.io = True


class TestSharedInfo:
    def test_shared_info_gfn_is_top_page(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv, virt_mode=VirtMode.PARAVIRT,
                     mmu_mode=MMUVirtMode.SHADOW)
        assert shared_info_gfn(vm) == vm.num_pages - 1


class TestExitAccounting:
    def test_exit_stats_cycles_match_vmm_cycles(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = make_vm(hv)
        load_and_run(hv, vm, """
    li a0, 65
    out 0x10, a0
    li a0, 1
    out 0xf0, a0
    hlt
""")
        assert vm.exit_stats.total_cycles == vm.stats.vmm_cycles
        assert vm.exit_stats.total_exits == vm.stats.world_switches
