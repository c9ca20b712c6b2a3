"""Binary translation runs on the block compiler's one mechanism.

A translated kernel block and a compiled block sit in the same table
under the same write watch: host memory holds one watch callback per
core, a store drops both kinds together, and a page the host re-backs
(here: ballooned out and taken back at a fresh frame) is translated
afresh from what the new frame holds.
"""

import pytest

from repro.bench.common import MODE_MATRIX
from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import HypercallNumbers, RunOutcome
from repro.cpu import jit as jitmod
from repro.cpu.assembler import Assembler
from repro.cpu.isa import Reg
from repro.util.units import MIB

GUEST_MEM = 16 * MIB
VMM_ROWS = {label: (virt, mmu) for label, virt, mmu, _pv in MODE_MATRIX[1:]}


def _vm(hv, virt, mmu, name="vm"):
    return hv.create_vm(GuestConfig(name=name, memory_bytes=GUEST_MEM,
                                    virt_mode=virt, mmu_mode=mmu))


def _callbacks(hv):
    return [callback for _frames, callback in hv.physmem._watchers]


@pytest.mark.parametrize("row", list(VMM_ROWS))
def test_one_write_watch_per_core(row):
    """Every row's core registers one callback; a recycled machine's
    write log adds its own while it is armed; teardown leaves none."""
    hv = Hypervisor(memory_bytes=64 * MIB)
    a, b = (_vm(hv, *VMM_ROWS[row], name) for name in "ab")
    cores = [vm.vcpus[0].cpu for vm in (a, b)]
    assert _callbacks(hv) == [cpu._on_code_write for cpu in cores]
    a = hv.recycle_vm(a)
    log = a.guest_mem.write_log
    callbacks = _callbacks(hv)
    assert len(callbacks) == 3 and all(callback in callbacks for callback in (
        cores[1]._on_code_write, a.vcpus[0].cpu._on_code_write, log._first_store))
    for vm in (a, b):
        hv.destroy_vm(vm)
    assert _callbacks(hv) == []


# Paging off. The kernel (translated) drops to user mode at `user`, on
# the same page; the user loop runs hot (compiled), then traps back with
# a syscall, and the kernel stores into the page.
SHARED_PAGE = """
    li   a0, vec
    csrw VBAR, a0
    li   a0, user
    csrw EPC, a0
    li   a0, 1           ; ESTATUS: user mode, IE off
    csrw ESTATUS, a0
    iret
vec:
    li   t0, 0x1f00
    st   [t0+0], t0      ; a store into the page both kinds of block came from
    li   a0, 1
    out  0xf0, a0
    hlt
user:
    li   s0, 40
loop:
    sub  s0, s0, 1
    bnez s0, loop
    syscall 1
"""


def test_one_store_drops_translated_and_compiled_blocks(monkeypatch):
    monkeypatch.setattr(jitmod, "HOT", 1)
    monkeypatch.setattr(jitmod, "_CODE", {})
    monkeypatch.setattr(jitmod, "_HEADS", set())
    drops = []
    drop = jitmod.BlockJIT.drop

    def recording_drop(self, keys):
        drops.append((set(keys), set(self.translated), set(self._blocks)))
        drop(self, keys)

    monkeypatch.setattr(jitmod.BlockJIT, "drop", recording_drop)
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = _vm(hv, VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW)
    hv.load_program(vm, Assembler().assemble(".org 0x1000\n" + SHARED_PAGE))
    hv.reset_vcpu(vm, 0x1000)
    assert hv.run(vm, max_guest_instructions=10_000) is RunOutcome.SHUTDOWN
    assert vm.vcpus[0].cpu.regs[Reg.S0] == 0
    (keys, translated, compiled), = drops
    assert {key for key in keys if key in translated}  # kernel blocks...
    assert {key for key in keys if key in compiled}  # ... and the user loop
    jit = vm.bt.jit
    assert not keys & set(jit.translated) and not keys & set(jit._blocks)


# Paging off. f (li a3, 1; ret) is called, which translates it; its page
# is ballooned out and taken back -- at a fresh, zeroed frame -- and
# called again: 1,024 NOPs lead into g (li a3, 2; ret) on the next page.
BALLOON_CODE = f"""
    li   s0, 0
    li   t0, 0x2000
    jalr lr, t0
    add  s0, s0, a3
    li   a0, 2
    vmcall {int(HypercallNumbers.BALLOON_GIVE)}
    mov  s1, a0
    li   a0, 2
    vmcall {int(HypercallNumbers.BALLOON_TAKE)}
    add  s1, s1, a0
    li   t0, 0x2000
    jalr lr, t0
    add  s0, s0, a3
    li   a0, 1
    out  0xf0, a0
    hlt
"""


def test_a_code_page_ballooned_and_taken_back_is_translated_afresh():
    states = {}
    for label in ("hw+shadow", "bin-transl"):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = _vm(hv, *VMM_ROWS[label])
        for base, source in ((0x1000, BALLOON_CODE), (0x2000, "li a3, 1\n    ret"),
                             (0x3000, "li a3, 2\n    ret")):
            hv.load_program(vm, Assembler().assemble(f".org {base:#x}\n    {source}\n"))
        hv.reset_vcpu(vm, 0x1000)
        outcome = hv.run(vm, max_guest_instructions=10_000)
        cpu = vm.vcpus[0].cpu
        states[label] = (outcome, cpu.pc, tuple(cpu.regs), cpu.instret)
    outcome, _pc, regs, _instret = states["hw+shadow"]
    assert outcome is RunOutcome.SHUTDOWN
    assert (regs[Reg.S0], regs[Reg.S1]) == (1 + 2, 0)
    assert states["bin-transl"] == states["hw+shadow"]
