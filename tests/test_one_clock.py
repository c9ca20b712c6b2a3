"""One clock: the timer's deadline and a power-off stop the core.

The timer fires at the first retire edge at or past its deadline, in
``CPUCore.run``, on every engine -- not when a host loop next polls it
-- and a power-off write ends the run on its own edge. So no
guest-visible number depends on ``PUMP_SLICE``, the host's entry
length (bin-transl aside: a slice end cuts its translated blocks,
which moves its cycles, and its ticks follow its cycles).
"""

import hashlib

import pytest

from repro.bench.common import GUEST_MEMORY, HOST_MEMORY, MODE_MATRIX
from repro.core import GuestConfig, Hypervisor, Machine
from repro.core import hypervisor as hvmod
from repro.core.bt import MAX_BLOCK_INSTRUCTIONS
from repro.core.hypervisor import RunOutcome
from repro.core.machine import MachineOutcome
from repro.cpu.assembler import Assembler
from repro.cpu.isa import REG_NAMES, Cause
from repro.devices.irq import IRQ_TIMER_LINE
from repro.devices.timer import TimerDevice
from repro.fuzz import diff
from repro.guest import KernelOptions, boot_native, boot_vm, build_kernel
from repro.guest import workloads as programs
from repro.guest.layout import GuestLayout
from repro.mem.costs import CostModel

PERIOD = 3_000
COSTS = CostModel()
#: The most one instruction charges the core here: a trap taken on an
#: instruction whose fetch and data access both walk the page tables.
ONE_INSTRUCTION = (COSTS.instr_cycles + COSTS.div_extra_cycles
                   + COSTS.trap_cycles + 2 * COSTS.tlb_miss_cycles)
#: The most one translated block charges: translated, dispatched and
#: walked once. The translator tests the cycle stop between blocks.
ONE_BLOCK = (MAX_BLOCK_INSTRUCTIONS * (COSTS.bt_translate_cycles + COSTS.instr_cycles)
             + COSTS.bt_dispatch_cycles)
ROWS = {row[0]: row for row in MODE_MATRIX}


def _boot(label, fires, arms):
    """NanoOS, its timer every PERIOD cycles, under ``cpu_bound(20000)``
    on row ``label``; returns (core, pic, timer, guest-visible state)."""
    _label, virt, mmu, pv = ROWS[label]
    kernel = build_kernel(KernelOptions(pv=pv, timer_period=PERIOD,
                                        memory_bytes=GUEST_MEMORY))
    workload = programs.cpu_bound(20_000)
    if virt is None:
        machine = Machine(memory_bytes=GUEST_MEMORY)
        diag = boot_native(machine, kernel, workload, 30_000_000)
        cpu, pic, timer, console = machine.cpu, machine.pic, machine.timer, machine.console
        memory = machine.physmem.read_bytes(0, machine.physmem.size)
    else:
        hv = Hypervisor(memory_bytes=HOST_MEMORY)
        vm = hv.create_vm(GuestConfig(name=label, memory_bytes=GUEST_MEMORY,
                                      virt_mode=virt, mmu_mode=mmu))
        diag = boot_vm(hv, vm, kernel, workload, 30_000_000)
        cpu, pic, timer = vm.vcpus[0].cpu, vm.pic, vm.devices["timer"]
        console = vm.devices["console"]
        memory = b"".join(vm.guest_mem.read_gfn(gfn) for gfn in sorted(vm.guest_mem.map))
    assert diag.clean and len(arms) == 1
    seen = {"regs": tuple(cpu.regs), "console": console.text, "ticks": diag.ticks,
            "memory": hashlib.sha256(memory).hexdigest(), "result": diag.user_result}
    return cpu, pic, timer, seen


@pytest.mark.parametrize("label", list(ROWS))
def test_timer_ticks_on_the_edge_its_deadline_falls_on(label, monkeypatch):
    fires, arms = [], []
    tick, program = TimerDevice.tick, TimerDevice.program

    def logged_tick(self, now_cycles):
        deadline = self.deadline
        fired = tick(self, now_cycles)
        if fired:
            fires.append((deadline, now_cycles))
        return fired

    def logged_program(self, period, periodic, now_cycles):
        arms.append(now_cycles)
        program(self, period, periodic, now_cycles)

    monkeypatch.setattr(TimerDevice, "tick", logged_tick)
    monkeypatch.setattr(TimerDevice, "program", logged_program)
    runs = {}
    for slice_ in (500, 4000):
        monkeypatch.setattr(hvmod, "PUMP_SLICE", slice_)
        fires.clear()
        arms.clear()
        cpu, pic, timer, seen = _boot(label, fires, arms)
        # Never coalesced: the guest takes every tick it is raised.
        assert pic.metrics.counter(f"coalesced.line{IRQ_TIMER_LINE}").value == 0
        assert seen["ticks"] in (timer.expirations, timer.expirations - 1)
        # One expiry per period of the core's cycles since the arm.
        assert abs(timer.expirations - (cpu.cycles - arms[0]) // PERIOD) <= 1
        assert timer.expirations > 40
        late = max(now - deadline for deadline, now in fires)
        assert 0 <= late < (ONE_BLOCK if label == "bin-transl" else ONE_INSTRUCTION), fires
        runs[slice_] = dict(seen, cycles=cpu.cycles, instret=cpu.instret,
                            expirations=timer.expirations)
    if label == "bin-transl":
        # A slice end cuts a translated block; the guest's work is the same.
        assert runs[500]["result"] == runs[4000]["result"]
        assert runs[500]["console"] == runs[4000]["console"]
    else:
        assert runs[500] == runs[4000]


#: Power-off, then a loop that must not run.
POWER_OFF_PROBE = f"""
.org {GuestLayout.KERNEL_BASE:#x}
start:
    li   a0, 1
    out  0xf0, a0
loop:
    add  a1, a1, 1
    jmp  loop
"""


@pytest.mark.parametrize("label", ["native/interp", "native/compiled"]
                         + [row[0] for row in MODE_MATRIX if row[1] is not None])
def test_power_off_ends_the_run_on_its_own_edge(label):
    probe = Assembler().assemble(POWER_OFF_PROBE)
    if label.startswith("native"):
        machine = Machine(memory_bytes=GUEST_MEMORY, jit=label.endswith("compiled"))
        machine.load_program(probe)
        machine.cpu.reset(probe.entry)
        assert machine.run(max_instructions=10_000) is MachineOutcome.SHUTDOWN
        cpu = machine.cpu
    else:
        _label, virt, mmu, _pv = ROWS[label]
        hv = Hypervisor(memory_bytes=HOST_MEMORY)
        vm = hv.create_vm(GuestConfig(name="probe", memory_bytes=GUEST_MEMORY,
                                      virt_mode=virt, mmu_mode=mmu))
        hv.load_program(vm, probe)
        hv.reset_vcpu(vm, probe.entry)
        assert hv.run(vm, max_guest_instructions=10_000) is RunOutcome.SHUTDOWN
        cpu = vm.vcpus[0].cpu
    assert cpu.instret == 2
    assert cpu.regs[REG_NAMES["a1"]] == 0


def test_the_fuzzers_native_path_ticks(monkeypatch):
    # ``diff.run_bare`` calls ``cpu.run`` and nothing else: the timer
    # is the core's, so it fires there as under Machine.run.
    monkeypatch.setattr(diff, "_NATIVE", None)
    machine = diff.native_machine()
    image = Assembler().assemble(f"""
.org {GuestLayout.KERNEL_BASE:#x}
start:
    li   a0, 100
    out  0x40, a0            ; TIMER_PERIOD
    li   a0, 2
    out  0x41, a0            ; TIMER_CTRL: periodic
loop:
    add  a1, a1, 1
    jmp  loop
""")
    machine.load_program(image)
    cpu = machine.cpu
    cpu.reset(image.entry)
    cpu.run(max_instructions=2_000)
    armed_at = machine.timer.deadline - 100 * (machine.timer.expirations + 1)
    assert machine.timer.expirations == (cpu.cycles - armed_at) // 100 > 10
    assert Cause.IRQ_TIMER in cpu.pending_irqs  # IE is clear: it stays pending
