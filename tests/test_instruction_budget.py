"""``hv.run(vm, max_guest_instructions=N)`` ends on retire edge N, on
every VMM row.

The translator runs guest kernel mode on the same instruction budget the
core does: it stops on exactly that edge, cutting a block there if it
must, with what is due at the edge fired and nothing delivered -- the
core's loop-top order. The guest below keeps a callout (the OUT) in the
middle of its loop block and has events due inside the block and at
budget edges, so every place the translator can stop is reached:
the block loop's top, an item boundary, a compiled run's entry test and
a callout's tail.
"""

import pytest

from repro.core import VirtMode
from repro.core.hypervisor import RunOutcome
from repro.cpu import jit as jitmod
from repro.cpu.assembler import Assembler
from repro.devices.irq import IRQ_TIMER_LINE
from repro.devices.schedule import EventSchedule
from repro.fuzz.diff import GUEST_CSRS
from repro.guest.layout import GuestLayout
from tests.test_jit_vmm_parity import BY_LABEL, ROW_IDS, _create, _state


@pytest.fixture(autouse=True)
def compile_on_first_visit(monkeypatch):
    monkeypatch.setattr(jitmod, "HOT", 1)


#: Four instructions of set-up, then six a lap: ADD, the OUT (a callout
#: under the translator, an exit elsewhere) and four natives, the last
#: the branch. Translated, the loop is one block of six items.
LOOP = f"""
.org {GuestLayout.KERNEL_BASE:#x}
start:
    li   a0, vec
    csrw VBAR, a0
    sti
    li   s0, 100000
loop:
    add  s1, s1, s0
    out  0x10, s0
    add  s2, s2, s1
    xor  t1, t1, s2
    sub  s0, s0, 1
    bnez s0, loop
    hlt
vec:
    add  t2, t2, 1
    iret
"""

#: An event due after the XOR of lap 9 (mid-block) is delivered there on
#: the rows whose guest sees its STI; its handler retires two, so lap 10
#: runs edges 67-72: the callout retires at 68, the block ends at 72.
#: Due at 69 too, a budget edge, and at 5,003, another. (Not at 68: at an
#: intercepted instruction's edge the pump returns a spent budget before
#: anything due there fires, where the core, and the translator at its
#: callout, fire first.)
EVENTS = [(62, IRQ_TIMER_LINE), (69, IRQ_TIMER_LINE), (5003, IRQ_TIMER_LINE)]

#: The first edge, right after the callout, mid-block, the block's end,
#: and past a pump slice.
BUDGETS = (1, 68, 69, 72, 5003)

#: Rows that agree on guest-visible state edge for edge (the fuzzer's
#: VMM group): trap-emulate loses the STI, paravirt keeps IE in memory.
AGREEING = ("bin-transl", "hw+shadow", "hw+nested", "hw+hmode")


#: IE is off when the event due at edge 2 fires; the STI (a callout
#: under the translator) retires at 3 and unmasks it.
STI_AT_THE_EDGE = f"""
.org {GuestLayout.KERNEL_BASE:#x}
start:
    li   a0, vec
    csrw VBAR, a0
    sti
    hlt
vec:
    add  t2, t2, 1
    iret
"""


def _machine(label, jit, source=LOOP, events=EVENTS):
    hv, vm = _create(label, jit)
    image = Assembler().assemble(source)
    hv.load_program(vm, image)
    hv.reset_vcpu(vm, image.entry)
    vm.vcpus[0].cpu.events = EventSchedule(
        events, vm.pic,
        exit_on_fire=BY_LABEL[label][1] is not VirtMode.HW_ASSIST)
    return hv, vm


def _guest_view(vm):
    """What the guest can see, and instret."""
    vcpu = vm.vcpus[0]
    cpu = vcpu.cpu
    hw = vm.config.virt_mode is VirtMode.HW_ASSIST
    return {
        "instret": cpu.instret,
        "pc": cpu.pc,
        "regs": tuple(cpu.regs),
        "csr": tuple(vcpu.csr[c] for c in GUEST_CSRS),
        "pending": sorted(c.name for c in (cpu.pending_irqs if hw
                                           else vm.pending_virqs)),
        "console": vm.devices["console"].text,
    }


def _run(label, jit, *budgets, **program):
    hv, vm = _machine(label, jit, **program)
    start = vm.vcpus[0].cpu.instret
    for budget in budgets:
        assert hv.run(vm, max_guest_instructions=budget) is RunOutcome.INSTR_LIMIT
    return vm, start


@pytest.mark.parametrize("label", ROW_IDS)
def test_every_row_stops_on_the_edge_it_was_given(label):
    for n in BUDGETS:
        states = []
        for jit in (False, True):
            vm, start = _run(label, jit, n)
            assert vm.vcpus[0].cpu.instret == start + n, (label, jit, n)
            states.append(_state(vm))
        assert states[0] == states[1], (label, n)


@pytest.mark.parametrize("n", BUDGETS)
def test_the_rows_agree_at_every_edge(n):
    views = {label: _guest_view(_run(label, True, n)[0]) for label in AGREEING}
    assert all(view == views["hw+nested"] for view in views.values()), views


def test_an_event_due_at_the_edge_fires_and_is_not_delivered():
    for label in AGREEING:
        view = _guest_view(_run(label, True, 69)[0])
        assert view["pending"] == ["IRQ_TIMER"], label
        assert view["regs"][7] == 1, label  # t2: the handler ran once, at 62


def test_a_callout_at_the_edge_delivers_nothing():
    # The virq the STI unmasked waits for the next run, on every row.
    for label in AGREEING:
        for jit in (False, True):
            vm, _start = _run(label, jit, 3, source=STI_AT_THE_EDGE,
                              events=[(2, IRQ_TIMER_LINE)])
            view = _guest_view(vm)
            assert view["pending"] == ["IRQ_TIMER"], (label, jit)
            assert view["pc"] == GuestLayout.KERNEL_BASE + 16, (label, jit)  # HLT
            assert view["regs"][7] == 0, (label, jit)


@pytest.mark.parametrize("label", ROW_IDS)
@pytest.mark.parametrize("first", BUDGETS[:-1])
def test_split_runs_equal_one_run(label, first):
    # A translated block cut at the split is translated again from the
    # cut on, so bin-transl's cycles (and what its translation touched)
    # are not compared; the guest's view and instret are, on every row.
    whole = _run(label, True, 5003)[0]
    split = _run(label, True, first, 5003 - first)[0]
    assert _guest_view(split) == _guest_view(whole)
    if label != "bin-transl":
        assert _state(split) == _state(whole)

