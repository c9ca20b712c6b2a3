"""Host-call budget: Python-level calls per retired guest instruction.

Wall-clock on a shared two-core box cannot gate the one-at-a-time path
(the oracle's ``step()``, the translator's item walk, every engine's
cold code); the number of Python functions it enters per instruction
can, because it repeats exactly. Each scenario runs under
``sys.setprofile`` and counts ``call`` events (C calls are not
counted); the ceilings are the counts measured when the decode memo
began handing executors a resolved record -- (e)'s, when an exit
became a call; (f)'s, when device DMA began faulting like a guest
access -- plus 0.25.

A count over its ceiling means a helper call came back into the
per-instruction path (a property, a table probe behind a function, a
descriptor read-modify-write): look at what ``execute`` / ``fetch`` /
``_execute_block`` call, not at the clock.
"""

import sys

import pytest

from repro.bench.common import GUEST_MEMORY
from repro.core import GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.cpu import jit as jitmod
from repro.cpu.assembler import Assembler
from repro.guest import KernelOptions, boot_native, build_kernel
from repro.guest import workloads as programs
from repro.guest.layout import GuestLayout
from repro.util.units import MIB

ITERATIONS = 2_000
SLACK = 0.25


def count_calls(run):
    """(Python-level calls made by ``run()``, what it returned)."""
    calls = [0]

    def profiler(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return calls[0], result


def _vm(virt_mode, mmu_mode, source):
    hv = Hypervisor(memory_bytes=GUEST_MEMORY + 4 * MIB)
    vm = hv.create_vm(GuestConfig(name="vm", memory_bytes=GUEST_MEMORY,
                                  virt_mode=virt_mode, mmu_mode=mmu_mode))
    image = Assembler().assemble(
        f".org {GuestLayout.KERNEL_BASE:#x}\n" + source)
    hv.load_program(vm, image)
    hv.reset_vcpu(vm, image.entry)
    return hv, vm


def _run_vm(hv, vm):
    calls, outcome = count_calls(
        lambda: hv.run(vm, max_guest_instructions=1_000_000))
    assert outcome is RunOutcome.SHUTDOWN
    return calls, vm.vcpus[0].cpu.instret


def test_bare_interpreter():
    """(a) The reference loop on a bare core, paging off: step, fetch,
    translate, one or two physmem reads, execute, the row's ``fn``."""
    machine = Machine(memory_bytes=GUEST_MEMORY, jit=False)
    image = programs.cpu_bound(ITERATIONS)
    machine.load_program(image)
    machine.cpu.reset(image.entry)
    retire = 2 + 4 * ITERATIONS  # up to, not including, the exit syscall
    calls, result = count_calls(
        lambda: machine.cpu.run(max_instructions=retire))
    assert result.instructions == retire
    assert calls / retire <= 6.76 + SLACK


def test_interpreter_under_nanoos_paging():
    """(b) The same program booted under NanoOS: every fetch and data
    access goes through the TLB, the kernel's boot path is in the count."""
    machine = Machine(memory_bytes=GUEST_MEMORY, jit=False)
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEMORY))
    calls, diag = count_calls(
        lambda: boot_native(machine, kernel, programs.cpu_bound(ITERATIONS)))
    assert diag.user_result == programs.expected_cpu_bound(ITERATIONS)
    assert calls / machine.cpu.instret <= 6.94 + SLACK


def _port_loop(natives):
    """``port_storm``'s shape: one callout and ``natives`` native items
    (the last a branch) per translated block."""
    body = "\n".join("    add  s1, s1, s0" for _ in range(natives - 2))
    return f"""
    li   s0, {ITERATIONS}
loop:
    out  0x10, s0
{body}
    sub  s0, s0, 1
    bnez s0, loop
    li   t0, 1
    out  0xf0, t0
    hlt
"""


def test_translator_item_walk():
    """(c) Guest kernel mode under the translator. A native item costs
    ``execute`` and the row's ``fn``: growing the block by eight native
    items grows the count by sixteen calls an iteration (and by their
    one translation)."""
    runs = []
    for natives in (2, 10):
        hv, vm = _vm(VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW,
                     _port_loop(natives))
        runs.append(_run_vm(hv, vm))
    (calls, instret), (calls_wide, instret_wide) = runs
    assert calls / instret <= 6.39 + SLACK
    assert instret_wide - instret == 8 * ITERATIONS
    assert 2.0 <= (calls_wide - calls) / (instret_wide - instret) < 2.01


def test_cold_code_under_hardware_assist(monkeypatch):
    """(d) One pass over a straight-line body nothing has compiled: a
    cold block is probed once, then every instruction is one ``step()``
    behind the compiled loop's top."""
    monkeypatch.setattr(jitmod, "_CODE", {})
    monkeypatch.setattr(jitmod, "_HEADS", set())
    lines = []
    for k in range(ITERATIONS // 4):
        lines += [f"    add  s1, s1, {k + 1}", "    xor  s2, s2, s1",
                  "    st   [t3+0], s2", "    ld   t0, [t3+0]"]
    hv, vm = _vm(VirtMode.HW_ASSIST, MMUVirtMode.NESTED, "\n".join([
        "    li   t3, 0x100000", *lines,
        "    li   t0, 1", "    out  0xf0, t0", "    hlt"]))
    calls, instret = _run_vm(hv, vm)
    assert vm.vcpus[0].cpu.jit_stats()["blocks_compiled"] == 0
    assert calls / instret <= 10.47 + SLACK


@pytest.mark.parametrize("virt_mode, mmu_mode, ceiling", [
    (VirtMode.HW_ASSIST, MMUVirtMode.NESTED, 12.08),
    (VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW, 23.08),
])
def test_an_intercepted_port_write(virt_mode, mmu_mode, ceiling):
    """(e) ``port_storm``'s shape under a hardware-assist row and a
    deprivileged one (an OUT exit; a PRIV trap the monitor emulates):
    one intercepted OUT in every three instructions, counted per write,
    on the second run (the first compiles the loop). The intercept calls
    the exit service and returns into the block that made it; when it
    raised a ``VMExit`` for the run loop to catch instead, these counted
    18.09 and 29.09."""
    _run_vm(*_vm(virt_mode, mmu_mode, _port_loop(2)))
    hv, vm = _vm(virt_mode, mmu_mode, _port_loop(2))
    calls, _instret = _run_vm(hv, vm)
    assert vm.devices["console"].chars_written == ITERATIONS
    assert calls / ITERATIONS <= ceiling + SLACK


def _nanoos_calls(program):
    """Python calls of one hw-nested NanoOS run of ``program``."""
    hv = Hypervisor(memory_bytes=GUEST_MEMORY + 4 * MIB)
    vm = hv.create_vm(GuestConfig(name="vm", memory_bytes=GUEST_MEMORY,
                                  virt_mode=VirtMode.HW_ASSIST,
                                  mmu_mode=MMUVirtMode.NESTED))
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEMORY))
    hv.load_program(vm, kernel)
    hv.load_program(vm, program)
    hv.reset_vcpu(vm, kernel.entry)
    return _run_vm(hv, vm)[0]


@pytest.mark.parametrize("build, per_kick, ceiling", [
    (programs.blk_write, 1, 295.0),
    (lambda kicks: programs.vblk_write(kicks, 4), 4, 223.75),
], ids=["blk_write", "vblk_write"])
def test_a_device_request(build, per_kick, ceiling):
    """(f) One block write under hw-nested, through the emulated disk
    (five port exits, DMA out of guest memory) and through virtio-blk
    (four requests per kick, descriptors and status through guest
    memory): what 16 more requests cost, per request, once both lengths
    have run (boot and memos cancel out). A device reaches guest memory
    through ``GuestMemory``'s accessors, whose fast path is a map probe
    plus, on a write, one protected-set test; before they faulted like
    a guest access (a write called a dirty-log hook instead) these
    counted 295.0 and 227.75."""
    short, long_ = build(16 // per_kick), build(32 // per_kick)
    _nanoos_calls(short)
    _nanoos_calls(long_)
    calls = _nanoos_calls(long_) - _nanoos_calls(short)
    assert calls / 16 <= ceiling + SLACK


def test_the_count_repeats_exactly():
    """What makes it a gate: once the process-wide memos are warm, two
    runs of one guest make the same number of calls."""
    runs = [_run_vm(*_vm(VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW,
                         _port_loop(2))) for _ in range(3)]
    assert runs[1] == runs[2]
