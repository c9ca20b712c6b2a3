"""One clock: the timer's deadline and a power-off stop the core.

The timer fires at the first retire edge at or past its deadline, in
``CPUCore.run``, on every engine -- not when a host loop next polls it
-- and a power-off write ends the run on its own edge. And a run split
at any retire edge costs what the unsplit run costs: no simulated number
depends on where a host loop stopped and re-entered the core (the
translator goes on with a cut block's rest, as the unsplit run would).
"""

import hashlib
import random

import pytest

from repro.bench.common import GUEST_MEMORY, HOST_MEMORY, MODE_MATRIX
from repro.core import GuestConfig, Hypervisor, Machine
from repro.core.bt import BTEngine
from repro.core.hypervisor import RunOutcome
from repro.core.machine import MachineOutcome
from repro.cpu.assembler import Assembler
from repro.cpu.isa import REG_NAMES, Cause
from repro.devices.irq import IRQ_TIMER_LINE
from repro.devices.timer import TimerDevice
from repro.fuzz import diff
from repro.guest import KernelOptions, boot_native, boot_vm, build_kernel, read_diag
from repro.guest import workloads as programs
from repro.guest.layout import GuestLayout
from repro.mem.costs import CostModel

PERIOD = 3_000
COSTS = CostModel()
#: The most one instruction charges the core here: a trap taken on an
#: instruction whose fetch and data access both walk the page tables.
ONE_INSTRUCTION = (COSTS.instr_cycles + COSTS.div_extra_cycles
                   + COSTS.trap_cycles + 2 * COSTS.tlb_miss_cycles)
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
        cpu, pic, timer = machine.cpu, machine.pic, machine.timer
    else:
        hv = Hypervisor(memory_bytes=HOST_MEMORY)
        vm = hv.create_vm(GuestConfig(name=label, memory_bytes=GUEST_MEMORY,
                                      virt_mode=virt, mmu_mode=mmu))
        diag = boot_vm(hv, vm, kernel, workload, 30_000_000)
        cpu, pic, timer = vm.vcpus[0].cpu, vm.pic, vm.devices["timer"]
    assert diag.clean and len(arms) == 1
    return cpu, pic, timer, diag


@pytest.mark.parametrize("label", list(ROWS))
def test_timer_ticks_on_the_edge_its_deadline_falls_on(label, monkeypatch):
    fires, arms = [], []
    # The translator charges its work to the core's clock: a deadline
    # that falls inside a block's translation is due at the block's
    # first item, after it.
    translations = []
    tick, program, translate = TimerDevice.tick, TimerDevice.program, BTEngine.translate

    def logged_translate(self, va):
        start = self.vcpu.cpu.cycles
        block = translate(self, va)
        translations.append((start, self.vcpu.cpu.cycles))
        return block

    def due(deadline):
        return max([deadline] + [end for start, end in translations if start <= deadline < end])

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
    monkeypatch.setattr(BTEngine, "translate", logged_translate)
    cpu, pic, timer, diag = _boot(label, fires, arms)
    # The guest takes every tick it is raised, but one under the
    # translator: the first tick's handler is translated as it first
    # runs, which takes longer than a period, so the next tick is raised
    # before the handler has taken the line.
    coalesced = pic.metrics.counter(f"coalesced.line{IRQ_TIMER_LINE}").value
    assert coalesced == (label == "bin-transl")
    assert diag.ticks + coalesced in (timer.expirations, timer.expirations - 1)
    # One expiry per period of the core's cycles since the arm.
    assert abs(timer.expirations - (cpu.cycles - arms[0]) // PERIOD) <= 1
    assert timer.expirations > 40
    late = max(now - due(deadline) for deadline, now in fires)
    assert 0 <= late < ONE_INSTRUCTION, fires
    assert bool(translations) is (label == "bin-transl")


#: The eight engine rows: the native core stepped and compiled, and
#: every VMM row.
ENGINES = ["native/interp", "native/compiled"] + [row[0] for row in MODE_MATRIX if row[1]]


def _split_run(engine, period, edges):
    """NanoOS under ``cpu_bound(20000)`` on ``engine``, its timer every
    ``period`` cycles (0: off), run in pieces that end on the retire
    edges ``edges`` and then to the power-off; everything the
    simulation can observe."""
    label = "native" if engine.startswith("native") else engine
    _label, virt, mmu, pv = ROWS[label]
    kernel = build_kernel(KernelOptions(pv=pv, timer_period=period,
                                        memory_bytes=GUEST_MEMORY))
    if virt is None:
        machine = Machine(memory_bytes=GUEST_MEMORY, jit=engine.endswith("compiled"))
        machine.load_program(kernel)
        machine.load_program(programs.cpu_bound(20_000))
        machine.cpu.reset(kernel.entry)
        cpu, csr, mem, timer = machine.cpu, machine.cpu.csr, machine.physmem, machine.timer
        outcomes = [machine.run(max_instructions=edge - cpu.instret) for edge in edges]
        outcomes.append(machine.run(max_instructions=30_000_000))
        assert outcomes[-1] is MachineOutcome.SHUTDOWN
        seen = {"console": machine.console.text,
                "memory": hashlib.sha256(mem.read_bytes(0, mem.size)).hexdigest()}
    else:
        hv = Hypervisor(memory_bytes=HOST_MEMORY)
        vm = hv.create_vm(GuestConfig(name=label, memory_bytes=GUEST_MEMORY,
                                      virt_mode=virt, mmu_mode=mmu))
        hv.load_program(vm, kernel)
        hv.load_program(vm, programs.cpu_bound(20_000))
        hv.reset_vcpu(vm, kernel.entry)
        cpu, csr, mem, timer = vm.vcpus[0].cpu, vm.vcpus[0].csr, vm.guest_mem, vm.devices["timer"]
        outcomes = [hv.run(vm, max_guest_instructions=edge - cpu.instret) for edge in edges]
        outcomes.append(hv.run(vm, max_guest_instructions=30_000_000))
        assert outcomes[-1] is RunOutcome.SHUTDOWN
        stats = vm.stats
        seen = {"console": vm.devices["console"].text,
                "memory": hashlib.sha256(b"".join(
                    mem.read_gfn(gfn) for gfn in sorted(mem.map))).hexdigest(),
                "vmm_cycles": stats.vmm_cycles, "exits": dict(vm.exit_stats.counts),
                "bt": (stats.bt_block_hits, stats.bt_block_misses, stats.bt_chained,
                       stats.bt_callouts, stats.bt_translated_instructions)}
    assert all(out.name == "INSTR_LIMIT" for out in outcomes[:-1])
    tlb = cpu.mmu.tlb.stats
    assert read_diag(mem).clean
    return dict(seen, pc=cpu.pc, regs=tuple(cpu.regs), csr=tuple(csr), instret=cpu.instret,
                cycles=cpu.cycles, ticks=timer.expirations,
                tlb=(tlb.hits, tlb.misses, tlb.flushes, tlb.invalidations, tlb.evictions))


@pytest.mark.parametrize("period", [0, PERIOD], ids=["timer-off", "timer-3000"])
@pytest.mark.parametrize("engine", ENGINES)
def test_a_split_run_costs_what_the_unsplit_run_costs(engine, period):
    # Seeded edges: some in the boot, where the translator runs the
    # guest kernel, the rest anywhere in the program.
    rng = random.Random(f"{engine}/{period}")
    edges = sorted(rng.sample(range(1, 3_800), 5) + rng.sample(range(3_800, 83_000), 10))
    whole = _split_run(engine, period, [])
    split = _split_run(engine, period, edges)
    differing = [k for k in whole if whole[k] != split[k]]
    assert not differing, {k: (whole[k], split[k]) for k in differing if k != "memory"}
    assert whole["ticks"] > 40 if period else whole["ticks"] == 0


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
