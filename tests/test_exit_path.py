"""A VM exit serviced in place is the exit serviced by the pump.

``Hypervisor.run`` lends the core its exit service (``cpu.run(...,
on_exit=service)``); where nothing the pump's loop-top looks at has
changed, the guest resumes inside the same ``cpu.run`` call. A
``watchdog`` passed to ``run`` makes the service answer False on every
exit -- its beat cadence is per guest entry -- which is the path every
exit took before: unwind to the pump, loop-top, re-entry. So every test
here runs a guest twice, once plainly and once under a watchdog that
can never trip, and compares everything the simulation can observe.

The last section holds the two routes an exit takes into the VMM to one
answer: a call from the intercept, and a ``VMExit`` that unwound.
"""

import inspect

import pytest

from repro.core.hypervisor import PUMP_SLICE, RunOutcome
from repro.core.policies import hmode_controls
from repro.bench.common import GUEST_MEMORY
from repro.cpu import jit as jitmod
from repro.cpu.assembler import Assembler
from repro.cpu.exits import ExitReason, ExitUnwind, VMExit
from repro.cpu.interp import CPUCore
from repro.cpu.isa import CSR, HEDELEG_ALL, HIDELEG_ALL, Cause
from repro.faults.watchdog import GuestProgressWatchdog
from repro.guest import KernelOptions, build_kernel
from repro.guest import workloads as programs
from repro.guest.layout import GuestLayout
from repro.obs.registry import MetricsRegistry
from repro.util.errors import GuestError
from tests.test_jit_vmm_parity import (
    BY_LABEL, ROW_IDS, _create, _kernel, _state,
)


@pytest.fixture(autouse=True)
def compile_on_first_visit(monkeypatch):
    monkeypatch.setattr(jitmod, "HOT", 1)


def _never_trips():
    watchdog = GuestProgressWatchdog(MetricsRegistry().scope("watchdog"))
    watchdog.idle_pump_limit = 1 << 60
    return watchdog


def _bare(body):
    return Assembler().assemble(
        f".org {GuestLayout.KERNEL_BASE:#x}\nstart:\n{body}")


#: Exits, then a HLT nothing can wake: the run ends HALTED.
HLT_NO_WAKE = """
    li   s0, 3
loop:
    out  0x10, s0
    sub  s0, s0, 1
    bnez s0, loop
    hlt
"""

#: Arms the one-shot timer, enables interrupts and halts; the expiry
#: wakes it into ``vec``.
HLT_WAKE = """
    li   a0, vec
    csrw VBAR, a0
    li   a0, 2000
    out  0x40, a0            ; TIMER_PERIOD
    li   a0, 1
    out  0x41, a0            ; TIMER_CTRL: one-shot
    out  0x10, a0
    sti
    hlt
    out  0x10, a0
vec:
    li   a0, 1
    out  0xf0, a0
"""

#: Power-off in the middle of a slice, with code after it that must
#: not run.
POWER_OFF_MID_SLICE = """
    li   s0, 5
loop:
    out  0x10, s0
    sub  s0, s0, 1
    bnez s0, loop
    li   t0, 1
    out  0xf0, t0
    li   a3, 0xbeef
    out  0x10, a3
    hlt
"""


#: SET_VBAR, then a trap: the vector the hypercall installed takes it.
SET_VBAR_THEN_TRAP = """
    li   a0, vec
    vmcall 1                 ; SET_VBAR
    li   a1, 7
    syscall 3
    li   a1, 9
vec:
    li   t0, 1
    out  0xf0, t0
"""


def _nanoos(program, **kernel_options):
    """Scenario: NanoOS (built with ``kernel_options``) + one program."""
    def load(hv, vm, pv):
        kernel = (_kernel(pv) if not kernel_options else build_kernel(
            KernelOptions(pv=pv, memory_bytes=GUEST_MEMORY, **kernel_options)))
        hv.load_program(vm, kernel)
        hv.load_program(vm, program())
        hv.reset_vcpu(vm, kernel.entry)
    return load


def _alone(image):
    """Scenario: a guest without NanoOS, from reset."""
    def load(hv, vm, _pv):
        program = image()
        hv.load_program(vm, program)
        hv.reset_vcpu(vm, program.entry)
    return load


def _run_to_end(hv, vm, watchdog):
    return [hv.run(vm, max_guest_instructions=2_000_000, watchdog=watchdog)]


def _run_with_console_input(hv, vm, watchdog):
    """Console RX pushed between two runs: the IRQ is pending (on the
    core, or as a virq) when the guest next exits."""
    outcomes = [hv.run(vm, max_guest_instructions=1_500, watchdog=watchdog)]
    vm.devices["console"].push_input(ord("k"))
    outcomes.append(hv.run(vm, max_guest_instructions=2_000_000,
                           watchdog=watchdog))
    return outcomes


#: name -> (loader, driver)
SCENARIOS = {
    "syscall_storm": (_nanoos(lambda: programs.syscall_storm(30)), _run_to_end),
    "pt_mix": (_nanoos(lambda: programs.pt_mix(12, 80, 8, 3)), _run_to_end),
    "blk_write": (_nanoos(lambda: programs.blk_write(4)), _run_to_end),
    "vblk_write": (_nanoos(lambda: programs.vblk_write(2, 3)), _run_to_end),
    "port_storm": (_alone(lambda: programs.port_storm(60)), _run_to_end),
    # Timer armed: the core fires it, whoever services the exits.
    "timer_kernel": (_nanoos(programs.idle_ticks,
                             timer_period=6_000), _run_to_end),
    "console_rx": (_nanoos(lambda: programs.syscall_storm(30)),
                   _run_with_console_input),
    "hlt_no_wake": (_alone(lambda: _bare(HLT_NO_WAKE)), _run_to_end),
    "hlt_wake": (_alone(lambda: _bare(HLT_WAKE)), _run_to_end),
    "power_off_mid_slice": (_alone(lambda: _bare(POWER_OFF_MID_SLICE)),
                            _run_to_end),
}


def _full_state(vm, outcomes):
    return {
        **_state(vm),
        "outcomes": outcomes,
        "exit_cycles": dict(vm.exit_stats.cycles),
        "world_switches": vm.stats.world_switches,
        "hypercalls": vm.stats.hypercalls,
        "reflected_traps": vm.stats.reflected_traps,
    }


def _both_paths(label, jit, load, drive):
    """[state with exits resumed in place, state with the pump after
    every exit]."""
    states = []
    for watchdog in (None, _never_trips()):
        hv, vm = _create(label, jit)
        load(hv, vm, BY_LABEL[label][3])
        states.append(_full_state(vm, drive(hv, vm, watchdog)))
    return states


@pytest.mark.parametrize("jit", [True, False], ids=["compiled", "interp"])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("label", ROW_IDS)
def test_resume_in_place_equals_pump(label, scenario, jit):
    resumed, pumped = _both_paths(label, jit, *SCENARIOS[scenario])
    differing = [k for k in pumped if pumped[k] != resumed[k]]
    assert not differing, f"{label}/{scenario}: " + ", ".join(
        f"{k} ({pumped[k]!r} != {resumed[k]!r})"
        for k in differing if k != "memory")
    # (The translator runs guest kernel mode itself: its port writes
    # are callouts, not exits.)
    assert sum(pumped["exits"].values()) > 0 or label == "bin-transl"


def test_scenarios_end_the_way_their_names_say():
    # The comparison above holds for whatever a scenario does; this
    # pins that each one does what it was written for (on one row).
    expect = {
        "hlt_no_wake": RunOutcome.HALTED,
        "hlt_wake": RunOutcome.SHUTDOWN,
        "power_off_mid_slice": RunOutcome.SHUTDOWN,
        "timer_kernel": RunOutcome.SHUTDOWN,
        "console_rx": RunOutcome.SHUTDOWN,
    }
    for scenario, outcome in expect.items():
        hv, vm = _create("hw+nested", True)
        load, drive = SCENARIOS[scenario]
        load(hv, vm, False)
        assert drive(hv, vm, None)[-1] is outcome, scenario
        if scenario == "power_off_mid_slice":
            assert vm.vcpus[0].cpu.regs[4] != 0xBEEF
        if scenario == "console_rx":
            assert vm.stats.injected_irqs == 0  # HW assist delivers natively
            assert not vm.vcpus[0].cpu.pending_irqs


def test_power_off_ends_every_row_at_one_edge():
    # The translator runs guest kernel mode itself: it must stop at the
    # power-off too, not run on to the end of its cycle budget.
    ends = {}
    for label in ROW_IDS:
        hv, vm = _create(label, True)
        SCENARIOS["power_off_mid_slice"][0](hv, vm, False)
        assert _run_to_end(hv, vm, None) == [RunOutcome.SHUTDOWN]
        ends[label] = (vm.vcpus[0].cpu.instret, vm.vcpus[0].cpu.pc,
                       vm.devices["console"].text)
    assert set(ends.values()) == {ends["hw+nested"]}, ends
    assert ends["hw+nested"][0] == 18 and len(ends["hw+nested"][2]) == 5


@pytest.mark.parametrize("label", ROW_IDS)
def test_hypercalls_write_the_guests_privileged_state(label):
    # Under hardware assist that is the core's own CSR file: a SET_VBAR
    # written anywhere else leaves the trap with no vector.
    hv, vm = _create(label, True)
    _alone(lambda: _bare(SET_VBAR_THEN_TRAP))(hv, vm, False)
    assert hv.run(vm, max_guest_instructions=1_000) is RunOutcome.SHUTDOWN
    vcpu = vm.vcpus[0]
    assert vcpu.cpu.regs[2] == 7
    assert vcpu.csr[CSR.ECAUSE] == Cause.SYSCALL


def _load_exit_dense(hv, vm, label):
    """A guest whose exits reach ``cpu.run`` under ``label``, positioned
    in its loop. The translator runs guest kernel mode itself, so under
    it that is NanoOS's *user* half making syscalls; elsewhere the
    kernel-mode port loop."""
    if label != "bin-transl":
        _alone(lambda: programs.port_storm(400))(hv, vm, False)
        return
    _nanoos(lambda: programs.syscall_storm(400))(hv, vm, False)
    assert hv.run(vm, max_guest_instructions=8_000) is RunOutcome.INSTR_LIMIT


@pytest.mark.parametrize("quantum", [3001, 4517, 9973])
@pytest.mark.parametrize("label", ROW_IDS)
def test_cycle_budget_stops_at_the_same_edge(label, quantum):
    # max_cycles is VM time (core + VMM cycles). Resuming in place, the
    # core's own ceiling drops by what each exit charged the VMM, so
    # six budgets in a row end where six pump-serviced ones do.
    trails = []
    for watchdog in (False, True):
        hv, vm = _create(label, True)
        _load_exit_dense(hv, vm, label)
        cpu = vm.vcpus[0].cpu
        before = vm.stats.world_switches
        trail = []
        for _ in range(6):
            outcome = hv.run(vm, max_cycles=quantum,
                             watchdog=_never_trips() if watchdog else None)
            trail.append((outcome, cpu.cycles, cpu.instret, cpu.pc,
                          vm.stats.vmm_cycles, vm.stats.world_switches))
        trails.append(trail)
    assert trails[0] == trails[1]
    assert all(step[0] is RunOutcome.CYCLE_LIMIT for step in trails[0])
    assert trails[0][-1][5] > before + 6  # the budgets spanned many exits


@pytest.mark.parametrize("label", ROW_IDS)
def test_instruction_budget_spent_on_an_exit_edge(label):
    # The budget runs out exactly as an intercepted OUT retires: the
    # pump returns before anything due at that edge fires, either way.
    trails = []
    for watchdog in (False, True):
        hv, vm = _create(label, True)
        _alone(lambda: programs.port_storm(50))(hv, vm, False)
        cpu = vm.vcpus[0].cpu
        spent = cpu.instret
        trail = []
        for budget in (2, 3, 3, 1, 7, 3):
            outcome = hv.run(vm, max_guest_instructions=budget,
                             watchdog=_never_trips() if watchdog else None)
            spent += budget
            assert cpu.instret == spent, (watchdog, budget)
            trail.append((outcome, cpu.cycles, cpu.instret, cpu.pc,
                          vm.stats.vmm_cycles, vm.stats.world_switches))
        trails.append(trail)
    assert trails[0] == trails[1]
    assert all(step[0] is RunOutcome.INSTR_LIMIT for step in trails[0])


@pytest.mark.parametrize("label", ROW_IDS)
def test_triple_fault_text_is_the_same(label):
    # No vector installed. Deprivileged rows: the SYSCALL exit's handler
    # reflects the trap and that raises a *nested* TRIPLE_FAULT exit,
    # which the service re-dispatches once. Hardware-assist rows: the
    # core's own delivery exits with TRIPLE_FAULT directly.
    texts = []
    for watchdog in (None, _never_trips()):
        hv, vm = _create(label, True)
        _alone(lambda: _bare("    out  0x10, a0\n    syscall 3\n"))(
            hv, vm, False)
        with pytest.raises(GuestError, match="triple fault") as info:
            hv.run(vm, max_guest_instructions=100, watchdog=watchdog)
        texts.append((str(info.value), vm.stats.world_switches,
                      dict(vm.exit_stats.counts)))
    assert texts[0] == texts[1]


def test_core_entries_scale_with_slices_not_exits(monkeypatch):
    entries = []

    def count(engine):
        engine_run = engine.run

        def counting_run(self, *args, **kwargs):
            entries.append(engine)
            return engine_run(self, *args, **kwargs)

        monkeypatch.setattr(engine, "run", counting_run)

    count(CPUCore)
    hv, vm = _create("hw+nested", True)
    _alone(lambda: programs.port_storm(3000))(hv, vm, False)
    assert hv.run(vm, max_guest_instructions=100_000) is RunOutcome.SHUTDOWN
    instret = vm.vcpus[0].cpu.instret
    assert vm.exit_stats.total_exits == 3001
    assert len(entries) <= instret // PUMP_SLICE + 2

    # The translator's callouts are not exits, and its runs are the
    # core's, on the same instruction slices: one entry a slice.
    del entries[:]
    hv, vm = _create("bin-transl", True)
    _alone(lambda: programs.port_storm(3000))(hv, vm, False)
    assert hv.run(vm, max_guest_instructions=100_000) is RunOutcome.SHUTDOWN
    instret = vm.vcpus[0].cpu.instret
    assert vm.exit_stats.total_exits == 0
    assert len(entries) <= instret // PUMP_SLICE + 2

    # With the timer armed exits resume without the pump too: the core
    # fires the timer itself, on the edge its deadline falls on.
    del entries[:]
    hv, vm = _create("hw+nested", True)
    SCENARIOS["timer_kernel"][0](hv, vm, False)
    assert hv.run(vm, max_guest_instructions=2_000_000) is RunOutcome.SHUTDOWN
    instret = vm.vcpus[0].cpu.instret
    assert vm.devices["timer"].expirations >= 3
    assert vm.exit_stats.total_exits > 20
    assert len(entries) <= instret // PUMP_SLICE + 2


def test_service_is_lent_for_the_call_only():
    hv, vm = _create("hw+nested", True)
    _alone(lambda: programs.port_storm(5))(hv, vm, False)
    cpu = vm.vcpus[0].cpu
    attributes = set(vars(cpu))
    assert hv.run(vm, max_guest_instructions=5) is RunOutcome.INSTR_LIMIT
    assert vm.exit_stats.total_exits == 2
    # Nothing of the service stays behind on the core...
    assert set(vars(cpu)) == attributes
    assert not [k for k, v in vars(cpu).items() if inspect.isroutine(v)]
    # ...so a bare cpu.run() under controls has nobody to service an
    # exit: the VMExit reaches the caller, raised at the intercepted
    # instruction (which has retired; its pc has not moved).
    pc, instret = cpu.pc, cpu.instret
    with pytest.raises(VMExit) as info:
        cpu.run(max_instructions=10)
    assert info.value.reason is ExitReason.IO_OUT
    assert info.value.guest_pc == cpu.pc
    assert (cpu.pc, cpu.instret) != (pc, instret)
    assert vm.exit_stats.total_exits == 2


# -- both routes: an exit by call, and the same exit unwound -------------------
#
# Hypervisor.run lends the core its service, and each intercept the core
# tests calls it. Without one the same exit is a VMExit raised before
# the instruction did anything; Hypervisor._handle_exit has the core
# finish it and then runs the same per-reason code and accounting. Each
# scenario below runs a guest both ways and compares everything.


def _serviced_by_unwinding(hv, vm):
    """Run ``vm`` on a bare ``cpu.run()`` (no service lent), servicing
    each VMExit that escapes it through the unwinding route."""
    vcpu = vm.vcpus[0]
    cpu = vcpu.cpu
    power = vm.devices["power"]
    for exits in range(100_000):
        if power.shutdown_requested or cpu.halted or vcpu.halted:
            return exits
        try:
            cpu.run(max_instructions=2_000_000)
        except VMExit as exit_:
            hv._handle_exit(vm, vcpu, exit_)
    raise AssertionError("the guest never finished on the unwinding route")


IO_IN_LOOP = """
    li   s0, 25
loop:
    in   a2, 0x11            ; console status
    add  s1, s1, a2
    sub  s0, s0, 1
    bnez s0, loop
    li   t0, 1
    out  0xf0, t0
"""

VMCALL_LOOP = """
    li   s0, 25
loop:
    vmcall 7                 ; YIELD
    sub  s0, s0, 1
    bnez s0, loop
    li   t0, 1
    out  0xf0, t0
"""


def _syscall_not_delegated(_hv, vm):
    vm.vcpus[0].cpu.controls = hmode_controls(
        HEDELEG_ALL & ~(1 << Cause.SYSCALL), HIDELEG_ALL)


#: name -> (row, loader, host setup or None, the exit-table entries the
#: scenario must produce).
ROUTES = {
    "io_out": ("hw+nested", _alone(lambda: programs.port_storm(30)), None,
               ["io_out:port_0x10"]),
    "io_in": ("hw+nested", _alone(lambda: _bare(IO_IN_LOOP)), None,
              ["io_in:port_0x11"]),
    "csrw_ptbr_and_invlpg": (
        "hw+shadow", _nanoos(lambda: programs.pt_mix(12, 80, 8, 3)), None,
        ["csr_write:ptbr", "priv_instr:invlpg"]),
    "hlt": ("hw+nested", _alone(lambda: _bare(HLT_NO_WAKE)), None, ["hlt:hlt"]),
    "vmcall": ("hw+nested", _alone(lambda: _bare(VMCALL_LOOP)), None,
               ["vmcall:yield"]),
    "guest_trap": ("trap-emulate",
                   _nanoos(lambda: programs.syscall_storm(30)), None,
                   ["guest_trap:syscall", "guest_trap:iret"]),
    "hypercalls_and_guest_traps": (
        "paravirt", _nanoos(lambda: programs.syscall_storm(30)), None,
        ["vmcall:iret", "guest_trap:syscall"]),
    "guest_trap_undelegated": (
        "hw+hmode", _nanoos(lambda: programs.syscall_storm(30)),
        _syscall_not_delegated, ["guest_trap:syscall"]),
}


@pytest.mark.parametrize("jit", [True, False], ids=["compiled", "interp"])
@pytest.mark.parametrize("scenario", list(ROUTES))
def test_call_and_unwinding_give_one_answer(scenario, jit):
    label, load, setup, expected = ROUTES[scenario]
    states = []
    for unwinding in (False, True):
        hv, vm = _create(label, jit)
        if setup is not None:
            setup(hv, vm)
        load(hv, vm, BY_LABEL[label][3])
        if unwinding:
            assert _serviced_by_unwinding(hv, vm) == vm.exit_stats.total_exits
        else:
            _run_to_end(hv, vm, None)
        states.append(_full_state(vm, None))
    called, unwound = states
    differing = [k for k in called if called[k] != unwound[k]]
    assert not differing, f"{scenario}: " + ", ".join(
        f"{k} ({called[k]!r} != {unwound[k]!r})"
        for k in differing if k != "memory")
    for entry in expected:
        assert called["exits"].get(entry, 0) > 0, (entry, called["exits"])


@pytest.mark.parametrize("jit", [True, False], ids=["compiled", "interp"])
@pytest.mark.parametrize("label", [row for row in ROW_IDS if row != "bin-transl"])
def test_port_storm_builds_no_vmexit(label, jit, monkeypatch):
    # Every exiting row takes its port writes as calls: an OUT exit on
    # the hardware-assist rows, a PRIV trap the monitor emulates on the
    # deprivileged ones. Not one exception object is built, and a cycle
    # budget unwinds no exit: the service lowers the core's ceiling and
    # answers True. Nor does the power-off: it ends the run on its own
    # retire edge (CPUCore.end_run), and the pump returns SHUTDOWN.
    built, unwound = [], []
    init, unwind_init = VMExit.__init__, ExitUnwind.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_unwind(self, *args):
        unwound.append(args)
        unwind_init(self, *args)

    monkeypatch.setattr(VMExit, "__init__", counting_init)
    monkeypatch.setattr(ExitUnwind, "__init__", counting_unwind)
    for max_cycles in (None, 10_000_000):
        hv, vm = _create(label, jit)
        _alone(lambda: programs.port_storm(300))(hv, vm, False)
        outcome = hv.run(vm, max_guest_instructions=100_000,
                         max_cycles=max_cycles)
        assert outcome is RunOutcome.SHUTDOWN
        assert vm.exit_stats.total_exits == 301
        assert built == []
        assert unwound == [], max_cycles
