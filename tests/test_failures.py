"""Failure injection: resource exhaustion, guest crashes, bad input.

A platform earns trust by failing loudly and precisely, never by
corrupting a guest. These tests drive the unhappy paths.
"""

import pytest

from repro.core import GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode
from repro.cpu.assembler import Assembler
from repro.cpu.isa import Cause
from repro.guest import KernelOptions, boot_vm, build_kernel
from repro.migration import LiveMigrator
from repro.util.errors import GuestError, MemoryError_
from repro.util.units import MIB

GUEST_MEM = 16 * MIB


class TestHostExhaustion:
    def test_vm_creation_fails_cleanly_when_host_is_full(self):
        hv = Hypervisor(memory_bytes=32 * MIB)
        hv.create_vm(GuestConfig(name="a", memory_bytes=16 * MIB))
        with pytest.raises(MemoryError_, match="out of physical frames"):
            hv.create_vm(GuestConfig(name="b", memory_bytes=16 * MIB))

    def test_migration_to_undersized_destination_fails(self):
        src = Hypervisor(memory_bytes=64 * MIB)
        dst = Hypervisor(memory_bytes=8 * MIB)  # cannot hold the guest
        vm = src.create_vm(GuestConfig(name="m", memory_bytes=16 * MIB))
        with pytest.raises(MemoryError_):
            LiveMigrator(src, dst).migrate(vm)


class TestGuestCrashes:
    def _run_crasher(self, user_body, vmode=VirtMode.HW_ASSIST,
                     mmode=MMUVirtMode.NESTED):
        from repro.guest.workloads import _assemble

        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = hv.create_vm(GuestConfig(name="crash", memory_bytes=GUEST_MEM,
                                      virt_mode=vmode, mmu_mode=mmode))
        kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM))
        diag = boot_vm(hv, vm, kernel, _assemble(user_body),
                       max_guest_instructions=2_000_000)
        return hv, vm, diag

    @pytest.mark.parametrize("vmode,mmode", [
        (VirtMode.HW_ASSIST, MMUVirtMode.NESTED),
        (VirtMode.HW_ASSIST, MMUVirtMode.SHADOW),
        (VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW),
    ])
    def test_wild_pointer_is_contained_and_reported(self, vmode, mmode):
        # User code dereferences an unmapped address outside the heap:
        # the kernel records the fault and powers off with code 2.
        _, vm, diag = self._run_crasher("""
    li  t0, 0x3f00000
    ld  t1, [t0+0]
    syscall 0
""", vmode, mmode)
        assert diag.fault_cause == int(Cause.PF_READ)
        assert vm.devices["power"].code == 2

    def test_user_cannot_touch_kernel_memory(self):
        # The kernel image is mapped without the USER bit.
        _, vm, diag = self._run_crasher("""
    li  t0, 0x1000
    st  [t0+0], t0
    syscall 0
""")
        assert diag.fault_cause == int(Cause.PF_WRITE)

    def test_user_cannot_write_user_code_protection(self):
        # Writing the *page tables* region from user mode must fault.
        _, vm, diag = self._run_crasher("""
    li  t0, 0x100000
    st  [t0+0], t0
    syscall 0
""")
        assert diag.fault_cause == int(Cause.PF_WRITE)

    def test_unknown_syscall_is_fatal_not_silent(self):
        _, vm, diag = self._run_crasher("""
    syscall 99
""")
        assert vm.devices["power"].code == 2

    def test_privileged_instruction_from_user_is_contained(self):
        _, vm, diag = self._run_crasher("""
    csrw VBAR, zero
    syscall 0
""")
        # PRIV trap reaches the kernel's fatal handler.
        assert diag.fault_cause == int(Cause.PRIV)

    def test_heap_pool_exhaustion_is_fatal(self):
        # Touch more heap pages than the kernel's frame pool holds.
        _, vm, diag = self._run_crasher("""
    li   s0, 0x700000        ; HEAP_BASE
    li   s1, 1100            ; pool holds 1024 frames
loop:
    st   [s0+0], s0
    add  s0, s0, 4096
    sub  s1, s1, 1
    bnez s1, loop
    syscall 0
""")
        assert vm.devices["power"].code == 2
        assert diag.demand_faults == 1024  # every pool frame was used


class TestNativeCrashes:
    def test_native_wild_store_also_contained(self):
        from repro.guest.workloads import _assemble

        machine = Machine(memory_bytes=GUEST_MEM)
        kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM))
        from repro.guest import boot_native
        diag = boot_native(machine, kernel, _assemble("""
    li  t0, 0x3f00000
    st  [t0+0], t0
    syscall 0
"""))
        assert diag.fault_cause == int(Cause.PF_WRITE)


class TestMalformedGuests:
    def test_running_off_the_end_of_ram_is_fatal(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = hv.create_vm(GuestConfig(name="empty", memory_bytes=GUEST_MEM))
        # All-zero memory decodes as NOPs; start near the top so the pc
        # slides off the end of guest RAM.
        hv.reset_vcpu(vm, GUEST_MEM - 64)
        with pytest.raises(GuestError, match="beyond guest RAM"):
            hv.run(vm, max_guest_instructions=1000)

    def test_guest_error_names_the_vm(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = hv.create_vm(GuestConfig(name="doomed", memory_bytes=GUEST_MEM))
        prog = Assembler().assemble(".org 0x1000\n    syscall 0\n")
        hv.load_program(vm, prog)
        hv.reset_vcpu(vm, 0x1000)
        with pytest.raises(GuestError, match="doomed"):
            hv.run(vm, max_guest_instructions=100)
