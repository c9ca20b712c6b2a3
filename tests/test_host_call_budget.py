"""Host-call budget: the one gate on what the simulator costs its host.

The paper's numbers are simulated cycles; how fast the host produces
them is measured in wall-clock by ``benchmarks/perf`` (``BENCHMARK.json``,
one record per change in ``benchmarks/history``) and compared there in
alternating runs of parent and change. Wall-clock on a shared host
cannot *gate* a change; the number of Python functions the simulator
enters per retired guest instruction can, because it repeats exactly.
Each run here goes under ``sys.setprofile`` and counts ``call`` events
(C calls are not counted).

The matrix covers every engine row:

* per retired instruction -- each ``MODE_MATRIX`` row x {interpreted,
  compiled} x {``cpu_bound``, ``memtouch``, ``syscall_storm``}, NanoOS
  booted with the timer off, counted on the second of two runs (the
  first fills the process-wide decode and code memos);
* per intercepted port write -- each VMM row, plus hw-nested with a
  watchdog that cannot trip (every exit goes back to the pump):
  ``port_storm(400)``'s calls minus ``port_storm(200)``'s, over 200.

Every compiled cell is below its interpreted twin, 2.6-13x on
``cpu_bound``, so a compiled path that silently stops engaging fails its
row. Under binary translation the gap is smallest (1 % on
``syscall_storm``): the translator runs guest kernel mode itself, with
no interpreted twin, and a port write is a callout there, not an exit.

``CALLS`` is the committed record: each entry is the count measured on
CPython 3.11, and a cell fails above that count x ``SLACK`` (the counts
are exact; the slack absorbs interpreter versions). A change that
lowers a count lowers its entry, and names the parent's count where it
says why. A count over its ceiling means a helper call
came back into a per-instruction or per-exit path (a property, a table
probe behind a function, a descriptor read-modify-write): look at what
``execute`` / ``fetch`` / ``_execute_block`` / ``Hypervisor._exit``
call, not at the clock.
"""

import gc
import sys

import pytest

from repro.bench.common import GUEST_MEMORY, MODE_MATRIX
from repro.core import GuestConfig, Hypervisor, Machine
from repro.core.hypervisor import RunOutcome
from repro.cpu import isa, jit as jitmod
from repro.cpu.assembler import Assembler
from repro.faults.watchdog import GuestProgressWatchdog
from repro.guest import KernelOptions, boot_native, boot_vm, build_kernel
from repro.guest import workloads as programs
from repro.guest.layout import GuestLayout
from repro.util.units import MIB

ITERATIONS = 2_000
SLACK = 1.02

#: The committed record: Python calls measured on 3.11, per cell.
CALLS = {
    # per retired instruction
    "native/interp/cpu_bound": 6.8232,
    "native/interp/memtouch": 6.9754,
    "native/interp/syscall_storm": 7.0444,
    "native/compiled/cpu_bound": 0.7456,
    "native/compiled/memtouch": 2.9473,
    "native/compiled/syscall_storm": 1.4389,
    "trap-emulate/interp/cpu_bound": 7.7282,
    "trap-emulate/interp/memtouch": 8.6311,
    "trap-emulate/interp/syscall_storm": 8.7796,
    "trap-emulate/compiled/cpu_bound": 1.0427,
    "trap-emulate/compiled/memtouch": 4.7826,
    "trap-emulate/compiled/syscall_storm": 2.4440,
    "bin-transl/interp/cpu_bound": 5.4731,
    "bin-transl/interp/memtouch": 4.8601,
    "bin-transl/interp/syscall_storm": 4.5580,
    "bin-transl/compiled/cpu_bound": 2.1211,
    "bin-transl/compiled/memtouch": 4.5283,
    "bin-transl/compiled/syscall_storm": 4.5290,
    "paravirt/interp/cpu_bound": 7.7407,
    "paravirt/interp/memtouch": 8.6745,
    "paravirt/interp/syscall_storm": 8.8980,
    "paravirt/compiled/cpu_bound": 1.0717,
    "paravirt/compiled/memtouch": 5.1517,
    "paravirt/compiled/syscall_storm": 2.4847,
    "hw+shadow/interp/cpu_bound": 7.7130,
    "hw+shadow/interp/memtouch": 8.3655,
    "hw+shadow/interp/syscall_storm": 8.2694,
    "hw+shadow/compiled/cpu_bound": 1.0271,
    "hw+shadow/compiled/memtouch": 4.5065,
    "hw+shadow/compiled/syscall_storm": 1.7581,
    "hw+nested/interp/cpu_bound": 7.9325,
    "hw+nested/interp/memtouch": 8.2424,
    "hw+nested/interp/syscall_storm": 8.3669,
    "hw+nested/compiled/cpu_bound": 0.6222,
    "hw+nested/compiled/memtouch": 3.1468,
    "hw+nested/compiled/syscall_storm": 1.2347,
    "hw+hmode/interp/cpu_bound": 7.9368,
    "hw+hmode/interp/memtouch": 8.2632,
    "hw+hmode/interp/syscall_storm": 8.3784,
    "hw+hmode/compiled/cpu_bound": 0.6265,
    "hw+hmode/compiled/memtouch": 3.1677,
    "hw+hmode/compiled/syscall_storm": 1.2462,
    # per intercepted port write
    "trap-emulate/port_write": 23,
    "bin-transl/port_write": 18.09,
    "paravirt/port_write": 23,
    "hw+shadow/port_write": 18,
    "hw+nested/port_write": 12,
    "hw+hmode/port_write": 12,
    "hw+nested/pumped/port_write": 21,
    # (a), (c) and (d) per retired instruction, (f) per request
    "bare/interp/cpu_bound": 6.7558,
    "bin-transl/item_walk": 6.0615,
    "hw+nested/cold": 10.4683,
    "hw+nested/blk_write": 271,
    "hw+nested/vblk_write": 187.75,
}

ROWS = {label: (virt, mmu, pv) for label, virt, mmu, pv in MODE_MATRIX}
VMM_ROWS = [label for label, (virt, _mmu, _pv) in ROWS.items() if virt]
PROGRAMS = {
    "cpu_bound": lambda: programs.cpu_bound(600),
    "memtouch": lambda: programs.memtouch(16, 2),
    "syscall_storm": lambda: programs.syscall_storm(40),
}


@pytest.fixture(autouse=True)
def fresh_memos(monkeypatch):
    """Every count starts from empty process-wide memos: what ran before
    in the process (a test that compiles every block on its first
    visit, say) must not change it."""
    gc.collect()  # what earlier tests left, hypervisors included
    isa.DECODED.clear()
    monkeypatch.setattr(jitmod, "_CODE", {})
    monkeypatch.setattr(jitmod, "_HEADS", set())


def count_calls(run):
    """(Python-level calls made by ``run()``, what it returned). The
    cyclic collector is off meanwhile: a collection would run the
    finalizers of whatever garbage earlier tests left, inside the count."""
    calls = [0]

    def profiler(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls[0], result


def within_budget(key, count):
    assert count <= CALLS[key] * SLACK, (
        f"{key}: {count:.3f} Python calls, ceiling {CALLS[key]} x {SLACK}")


_KERNELS = {}


def _kernel(pv):
    if pv not in _KERNELS:
        _KERNELS[pv] = build_kernel(KernelOptions(
            pv=pv, memory_bytes=GUEST_MEMORY, timer_period=0))
    return _KERNELS[pv]


def _create(label, image=None):
    """A VM of row ``label``; ``image``, if given, loaded and reset to."""
    virt, mmu, _pv = ROWS[label]
    hv = Hypervisor(memory_bytes=GUEST_MEMORY + 4 * MIB)
    vm = hv.create_vm(GuestConfig(
        name="vm", memory_bytes=GUEST_MEMORY, virt_mode=virt, mmu_mode=mmu))
    if image is not None:
        hv.load_program(vm, image)
        hv.reset_vcpu(vm, image.entry)
    return hv, vm


def _run_vm(hv, vm, watchdog=None):
    """(calls, instret) of ``hv.run`` to the guest's power-off."""
    calls, outcome = count_calls(lambda: hv.run(
        vm, max_guest_instructions=1_000_000, watchdog=watchdog))
    assert outcome is RunOutcome.SHUTDOWN
    return calls, vm.vcpus[0].cpu.instret


def _boot(label, compiled, program):
    """(calls, instret) of one NanoOS boot of ``program`` under row
    ``label``, the block compiler on or off."""
    kernel, image = _kernel(ROWS[label][2]), PROGRAMS[program]()
    if ROWS[label][0] is None:
        machine = Machine(memory_bytes=GUEST_MEMORY, jit=compiled)
        calls, diag = count_calls(lambda: boot_native(machine, kernel, image))
        cpu = machine.cpu
    else:
        hv, vm = _create(label)
        vm.vcpus[0].cpu.jit_enabled = compiled
        calls, diag = count_calls(lambda: boot_vm(hv, vm, kernel, image))
        cpu = vm.vcpus[0].cpu
    assert diag.clean
    return calls, cpu.instret


@pytest.mark.parametrize("program", list(PROGRAMS))
@pytest.mark.parametrize("engine", ["interp", "compiled"])
@pytest.mark.parametrize("label", list(ROWS))
def test_per_retired_instruction(label, engine, program):
    _boot(label, engine == "compiled", program)
    calls, instret = _boot(label, engine == "compiled", program)
    within_budget(f"{label}/{engine}/{program}", calls / instret)


def _port_storm_calls(label, writes, pumped):
    hv, vm = _create(label, programs.port_storm(writes))
    watchdog = GuestProgressWatchdog(idle_pump_limit=1 << 60) if pumped else None
    calls, _instret = _run_vm(hv, vm, watchdog)
    assert vm.devices["console"].chars_written == writes
    return calls


@pytest.mark.parametrize("label, pumped", [
    *((label, False) for label in VMM_ROWS), ("hw+nested", True)],
    ids=[*VMM_ROWS, "hw+nested-pumped"])
def test_an_intercepted_port_write(label, pumped):
    """One intercepted OUT in every three instructions (an OUT exit on
    the hardware-assist rows, a PRIV trap the monitor emulates on the
    deprivileged ones, a callout under the translator): what 200 more
    writes cost, per write, once both lengths have run."""
    for writes in (200, 400):
        _port_storm_calls(label, writes, pumped)
    calls = (_port_storm_calls(label, 400, pumped)
             - _port_storm_calls(label, 200, pumped))
    key = f"{label}/pumped/port_write" if pumped else f"{label}/port_write"
    within_budget(key, calls / 200)


def _vm(label, source):
    return _create(label, Assembler().assemble(
        f".org {GuestLayout.KERNEL_BASE:#x}\n" + source))


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
    within_budget("bare/interp/cpu_bound", calls / retire)


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
        runs.append(_run_vm(*_vm("bin-transl", _port_loop(natives))))
    (calls, instret), (calls_wide, instret_wide) = runs
    within_budget("bin-transl/item_walk", calls / instret)
    assert instret_wide - instret == 8 * ITERATIONS
    assert 2.0 <= (calls_wide - calls) / (instret_wide - instret) < 2.01


def test_cold_code_under_hardware_assist():
    """(d) One pass over a straight-line body nothing has compiled: a
    cold block is probed once, then every instruction is one ``step()``
    behind the compiled loop's top."""
    lines = []
    for k in range(ITERATIONS // 4):
        lines += [f"    add  s1, s1, {k + 1}", "    xor  s2, s2, s1",
                  "    st   [t3+0], s2", "    ld   t0, [t3+0]"]
    hv, vm = _vm("hw+nested", "\n".join([
        "    li   t3, 0x100000", *lines,
        "    li   t0, 1", "    out  0xf0, t0", "    hlt"]))
    calls, instret = _run_vm(hv, vm)
    assert vm.vcpus[0].cpu.jit_stats()["blocks_compiled"] == 0
    within_budget("hw+nested/cold", calls / instret)


def _nanoos_calls(program):
    """Python calls of one hw-nested NanoOS run of ``program``."""
    hv, vm = _create("hw+nested")
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEMORY))
    hv.load_program(vm, kernel)
    hv.load_program(vm, program)
    hv.reset_vcpu(vm, kernel.entry)
    return _run_vm(hv, vm)[0]


@pytest.mark.parametrize("name, build, per_kick", [
    ("blk_write", programs.blk_write, 1),
    ("vblk_write", lambda kicks: programs.vblk_write(kicks, 4), 4),
], ids=["blk_write", "vblk_write"])
def test_a_device_request(name, build, per_kick, monkeypatch):
    """(f) One block write under hw-nested, through the emulated disk
    (five port exits, DMA out of guest memory) and through virtio-blk
    (four requests per kick, descriptors and status through guest
    memory): what 16 more requests cost, per request, once both lengths
    have run (boot and memos cancel out). Guest code is compiled on its
    first visit, so what is left is the exit path and the device model."""
    monkeypatch.setattr(jitmod, "HOT", 1)
    short, long_ = build(16 // per_kick), build(32 // per_kick)
    _nanoos_calls(short)
    _nanoos_calls(long_)
    calls = _nanoos_calls(long_) - _nanoos_calls(short)
    within_budget(f"hw+nested/{name}", calls / 16)


def test_the_count_repeats_exactly():
    """What makes it a gate: once the process-wide memos are warm, two
    runs of one guest make the same number of calls."""
    runs = [_run_vm(*_vm("bin-transl", _port_loop(2))) for _ in range(3)]
    assert runs[1] == runs[2]
