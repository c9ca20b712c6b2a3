"""Direct tests of the in-monitor instruction emulator."""

import struct

import pytest

from repro.core import GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.core.machine import MachineOutcome
from repro.core.emulate import emulate_guest_store, emulate_privileged
from repro.cpu.assembler import Assembler
from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.interp import TrapInfo
from repro.cpu.isa import CSR, Cause, MODE_USER, Op, Reg, decode, encode
from repro.mem.paging import PTE_PRESENT, PTE_WRITABLE
from repro.util.errors import GuestError
from repro.util.units import MIB


@pytest.fixture
def vcpu():
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = hv.create_vm(GuestConfig(name="emu", memory_bytes=16 * MIB,
                                  virt_mode=VirtMode.TRAP_EMULATE,
                                  mmu_mode=MMUVirtMode.SHADOW))
    hv.reset_vcpu(vm, 0x1000)
    return vm.vcpus[0]


def ins(op, **kw):
    data = encode(op, **kw)
    word = int.from_bytes(data[:4], "little")
    imm = int.from_bytes(data[4:8], "little") if len(data) > 4 else 0
    return decode(word, imm)


class TestCSRs:
    def test_csrr_reads_virtual_state(self, vcpu):
        vcpu.vcsr[CSR.VBAR] = 0x4242
        name = emulate_privileged(vcpu, ins(Op.CSRR, rd=1, simm12=int(CSR.VBAR)))
        assert name == "csrr"
        assert vcpu.cpu.regs[1] == 0x4242
        assert vcpu.cpu.pc == 0x1004  # advanced

    def test_csrr_counters_come_from_core(self, vcpu):
        vcpu.cpu.cycles = 777
        emulate_privileged(vcpu, ins(Op.CSRR, rd=1, simm12=int(CSR.CYCLES)))
        assert vcpu.cpu.regs[1] == 777

    def test_csrw_writes_virtual_not_real(self, vcpu):
        vcpu.cpu.regs[1] = 0xABCD
        emulate_privileged(vcpu, ins(Op.CSRW, ra=1, simm12=int(CSR.SCRATCH)))
        assert vcpu.vcsr[CSR.SCRATCH] == 0xABCD
        assert vcpu.cpu.csr[CSR.SCRATCH] == 0  # host CSR untouched

    def test_csrw_ptbr_installs_guest_root(self, vcpu):
        vcpu.cpu.regs[1] = 0x100000
        emulate_privileged(vcpu, ins(Op.CSRW, ra=1, simm12=int(CSR.PTBR)))
        assert vcpu.vcsr[CSR.PTBR] == 0x100000
        assert vcpu.cpu.mmu.guest_root == 0x100000

    def test_readonly_csr_write_reflects_illegal(self, vcpu):
        # Native semantics: a write to a read-only CSR is an ILLEGAL
        # trap delivered to the *guest*, not a host error. With a guest
        # vector installed the trap is reflected there...
        vcpu.vcsr[CSR.VBAR] = 0x3000
        name = emulate_privileged(vcpu, ins(Op.CSRW, ra=1,
                                            simm12=int(CSR.MODE)))
        assert name == "illegal_csr"
        assert vcpu.cpu.pc == 0x3000
        assert vcpu.vcsr[CSR.ECAUSE] == int(Cause.ILLEGAL)
        assert vcpu.vcsr[CSR.EVAL] == int(CSR.MODE)
        assert vcpu.vcsr[CSR.EPC] == 0x1000  # the faulting pc, not advanced

    def test_unknown_csr_write_without_vector_triple_faults(self, vcpu):
        with pytest.raises(VMExit):
            emulate_privileged(vcpu, ins(Op.CSRW, ra=1, simm12=999))

    @pytest.mark.parametrize("probe", [
        dict(op=Op.CSRR, rd=3, simm12=100),
        dict(op=Op.CSRW, ra=1, simm12=100),
    ], ids=["csrr", "csrw"])
    def test_out_of_range_csr_is_illegal_both_directions(self, vcpu, probe):
        vcpu.vcsr[CSR.VBAR] = 0x3000
        vcpu.cpu.regs[3] = 0x55
        assert emulate_privileged(vcpu, ins(**probe)) == "illegal_csr"
        assert vcpu.cpu.pc == 0x3000
        assert vcpu.cpu.regs[3] == 0x55  # rd untouched
        assert vcpu.vcsr[CSR.ECAUSE] == int(Cause.ILLEGAL)
        assert vcpu.vcsr[CSR.EVAL] == 100
        assert vcpu.vcsr[CSR.EPC] == 0x1000
        assert vcpu.vm.stats.reflected_traps == 1

    def test_trap_without_vector_triple_faults_from_either_holder(self, vcpu):
        # One trap-entry routine: with VBAR = 0 it exits TRIPLE_FAULT
        # whether the privileged state is the vCPU's or the core's own.
        cpu = vcpu.cpu
        info = TrapInfo(Cause.ILLEGAL, 7, epc=0x1000)
        for deliver in (vcpu.reflect_trap, cpu.deliver_trap):
            with pytest.raises(VMExit) as exc:
                deliver(info)
            assert exc.value.reason is ExitReason.TRIPLE_FAULT
            assert exc.value.qual("cause") is Cause.ILLEGAL
            assert exc.value.qual("value") == 7
        assert vcpu.vcsr[CSR.EPC] == 0 and cpu.csr[CSR.EPC] == 0
        assert vcpu.vm.stats.reflected_traps == 0


class TestModeChanges:
    def test_sti_cli_touch_virtual_ie(self, vcpu):
        emulate_privileged(vcpu, ins(Op.STI))
        assert vcpu.vcsr[CSR.IE] == 1
        emulate_privileged(vcpu, ins(Op.CLI))
        assert vcpu.vcsr[CSR.IE] == 0
        assert vcpu.cpu.csr[CSR.IE] == 0

    def test_iret_restores_virtual_mode_and_jumps(self, vcpu):
        vcpu.vcsr[CSR.ESTATUS] = MODE_USER | (1 << 1)
        vcpu.vcsr[CSR.EPC] = 0x200000
        name = emulate_privileged(vcpu, ins(Op.IRET))
        assert name == "iret"
        assert vcpu.vcsr[CSR.MODE] == MODE_USER
        assert vcpu.vcsr[CSR.IE] == 1
        assert vcpu.cpu.pc == 0x200000
        assert vcpu.cpu.csr[CSR.MODE] == MODE_USER  # real mode was already user

    def test_iret_triggers_view_switch(self, vcpu):
        mmu = vcpu.cpu.mmu
        assert mmu.kernel_view
        vcpu.vcsr[CSR.ESTATUS] = MODE_USER
        vcpu.vcsr[CSR.EPC] = 0x200000
        emulate_privileged(vcpu, ins(Op.IRET))
        assert not mmu.kernel_view

    def test_hlt_sets_virtual_halt(self, vcpu):
        emulate_privileged(vcpu, ins(Op.HLT))
        assert vcpu.halted


class TestIO:
    def test_out_reaches_virtual_bus(self, vcpu):
        vcpu.cpu.regs[1] = ord("Z")
        emulate_privileged(vcpu, ins(Op.OUT, ra=1, simm12=0x10))
        assert vcpu.vm.devices["console"].text == "Z"

    def test_in_reads_virtual_bus(self, vcpu):
        emulate_privileged(vcpu, ins(Op.IN, rd=2, simm12=0x11))
        assert vcpu.cpu.regs[2] == 1  # console status

    def test_io_reaches_the_vms_own_bus(self, vcpu):
        # Nothing is handed in: the vCPU, as the privileged-state holder,
        # knows its VM's bus (the core's own, the same bus -- an
        # intercepted IN / OUT runs on it -- is taken away to show it).
        assert vcpu.cpu.port_bus is vcpu.vm.port_bus
        vcpu.cpu.port_bus = None
        assert vcpu.port_bus is vcpu.vm.port_bus
        vcpu.cpu.regs[1] = ord("Q")
        assert emulate_privileged(vcpu, ins(Op.OUT, ra=1, simm12=0x10)) == "out"
        assert emulate_privileged(vcpu, ins(Op.IN, rd=2, simm12=0x11)) == "in"
        assert vcpu.vm.devices["console"].text == "Q"
        assert vcpu.cpu.regs[2] == 1  # console status read back
        assert vcpu.cpu.pc == 0x1008


class TestGuestStore:
    def test_non_store_rejected(self, vcpu):
        with pytest.raises(GuestError):
            emulate_guest_store(vcpu, ins(Op.ADD), vcpu.vm.guest_mem,
                                vcpu.cpu.mmu)

    def test_unemulatable_op_rejected(self, vcpu):
        with pytest.raises(GuestError):
            emulate_privileged(vcpu, ins(Op.ADD))


#: Paging on, over identity tables the host wrote: the guest loads from
#: page 5, points the page's leaf PTE at frame 0x16 with two byte stores
#: (its bits 16..23, then 8..15), drops the stale translation and loads
#: again. Under a shadow MMU each store traps as a page-table write.
BYTE_STORES_INTO_A_PTE = """
    li t0, 0x10000
    csrw PTBR, t0
    li t1, 0x5000
    ld a0, [t1+0]
    li t2, 0x11014       ; the leaf PTE of page 5
    li t3, 0x01
    stb [t2+2], t3
    li t3, 0x60
    stb [t2+1], t3
    invlpg t1
    ld a1, [t1+0]
    li t0, 1
    out 0xf0, t0
"""


def _identity_tables_and_data():
    flags = PTE_PRESENT | PTE_WRITABLE
    leaf = [(vpn << 12) | flags for vpn in range(32)] + [0] * (1024 - 32)
    root = [0x11000 | flags] + [0] * 1023
    return {0x10000: struct.pack("<1024I", *root),
            0x11000: struct.pack("<1024I", *leaf),
            0x5000: (0x55).to_bytes(4, "little"),
            0x16000: (0x77).to_bytes(4, "little")}


@pytest.mark.parametrize("virt_mode", [
    VirtMode.TRAP_EMULATE, VirtMode.HW_ASSIST, VirtMode.BINARY_TRANSLATION,
], ids=["trap-emulate", "hw+shadow", "bin-transl"])
def test_byte_stores_into_a_guest_page_table(virt_mode):
    program = Assembler().assemble(".org 0x1000\n" + BYTE_STORES_INTO_A_PTE)
    machine = Machine(memory_bytes=16 * MIB)
    machine.load_program(program)
    for addr, data in _identity_tables_and_data().items():
        machine.physmem.write_bytes(addr, data)
    machine.cpu.reset(0x1000)
    assert machine.run(max_instructions=1000) is MachineOutcome.SHUTDOWN
    native = machine.cpu

    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = hv.create_vm(GuestConfig(name="stb", memory_bytes=16 * MIB,
                                  virt_mode=virt_mode,
                                  mmu_mode=MMUVirtMode.SHADOW))
    hv.load_program(vm, program)
    for addr, data in _identity_tables_and_data().items():
        vm.guest_mem.write_bytes(addr, data)
    hv.reset_vcpu(vm, 0x1000)
    assert hv.run(vm, max_guest_instructions=1000) is RunOutcome.SHUTDOWN
    cpu = vm.vcpus[0].cpu
    assert native.regs[Reg.A0] == 0x55 and native.regs[Reg.A1] == 0x77
    assert cpu.regs == native.regs
    assert cpu.instret == native.instret
    pt_writes = sum(n for key, n in vm.exit_stats.counts.items()
                    if key.endswith(":pt_write"))
    assert pt_writes == 2
