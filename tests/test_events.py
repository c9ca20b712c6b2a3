"""Deterministic asynchronous-event delivery: schedules, PIC edges,
IRQ fault sites, the line watchdog, and the console RX path.

The architected rule under test: a pending, unmasked IRQ latched at
retire edge N is delivered before the fetch of instruction N+1, with
timer before device in priority -- and every engine (reference
interpreter, block JIT, and the VMM configs via the fuzz harness)
agrees bit-for-bit on where that edge lands.
"""

import pytest

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.core.machine import Machine
from repro.cpu.interp import CPUCore, StopReason
from repro.cpu.isa import CSR, Cause, Op, encode
from repro.cpu.mmu import BareMMU
from repro.devices.console import CONS_STATUS, CONS_TX, ConsoleDevice
from repro.devices.irq import (
    IRQ_CONSOLE_LINE,
    IRQ_TIMER_LINE,
    IRQ_VIRTIO_BLK_LINE,
    NUM_LINES,
    PIC_STATUS,
    InterruptController,
)
from repro.devices.schedule import NEVER, EventSchedule, attach_schedule
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.mem.costs import CostModel
from repro.mem.physmem import PhysicalMemory
from repro.mem.tlb import TLB
from repro.util.errors import DeviceError
from tests.conftest import dev_metrics

MEM = 0x40000
ENTRY = 0x1000
VEC = 0x2000


def _injector(*specs, seed=7):
    return FaultInjector(FaultPlan(seed=seed, specs=list(specs)))


def _pin(site, after=0):
    """Exactly one fault at the (after+1)-th opportunity."""
    return FaultSpec(site, rate=1.0, after=after, count=1)


def _sti_loop_image(trips):
    """STI, then a counted ADD/SUB/BNE loop, then HLT; vector counts
    deliveries in r5 and irets in place."""
    E = encode
    head = b"".join([
        E(Op.MOVI, rd=15, imm32=VEC),
        E(Op.CSRW, ra=15, simm12=int(CSR.VBAR)),
        E(Op.STI),
        E(Op.MOVI, rd=1, imm32=trips),
    ])
    loop = ENTRY + len(head)
    body = b"".join([
        E(Op.ADD, rd=2, ra=2, imm32=1),
        E(Op.SUB, rd=1, ra=1, imm32=1),
        E(Op.BNE, ra=1, rb=0, imm32=loop),
        E(Op.HLT),
    ])
    vec = E(Op.ADD, rd=5, ra=5, imm32=1) + E(Op.IRET)
    return {ENTRY: head + body, VEC: vec}


def _cpu(image, jit, events=None, injector=None, exit_on_fire=False):
    costs = CostModel()
    pm = PhysicalMemory(MEM)
    for addr, data in image.items():
        pm.write_bytes(addr, data)
    cpu = CPUCore(BareMMU(pm, costs), port_bus=None, jit=jit)
    cpu.mmu.tlb = TLB(16)
    cpu.reset(ENTRY)
    if events is not None:
        pic = InterruptController(cpu, dev_metrics())
        pic.injector = injector
        attach_schedule(cpu, EventSchedule(
            events, pic, None, injector=injector, exit_on_fire=exit_on_fire))
    return cpu


def _run_core(cpu, max_instructions):
    """``cpu.run``, and the edge it stopped on: nothing is left due
    there (the run fired it), so no caller has anything to fire."""
    res = cpu.run(max_instructions=max_instructions)
    assert cpu.events.next_due > cpu.instret
    return res


def _snapshot(cpu):
    return (cpu.pc, cpu.halted, list(cpu.regs), list(cpu.csr),
            sorted(c.name for c in cpu.pending_irqs),
            cpu.cycles, cpu.instret)


# -- EventSchedule ----------------------------------------------------------


class TestEventSchedule:
    def test_seeded_is_deterministic(self):
        def heap(seed):
            s = EventSchedule.seeded(seed, 600, InterruptController(None, dev_metrics()), None)
            return sorted(s._heap)

        assert heap(42) == heap(42)
        assert heap(42) != heap(43)

    def test_seeded_stays_inside_horizon_timer_train(self):
        s = EventSchedule.seeded(9, 600, InterruptController(None, dev_metrics()), None)
        timer_dues = [d for d, _seq, ln in s._heap if ln == IRQ_TIMER_LINE]
        assert timer_dues, "horizon 600 always fits at least one timer"
        assert all(d < 600 for d in timer_dues)

    def test_fire_due_pops_everything_due(self):
        pic = InterruptController(None, dev_metrics())
        s = EventSchedule([(5, 0), (5, 3), (9, 0), (20, 3)], pic, None)
        assert s.next_due == 5
        assert s.fire_due(10) == 3
        assert s.next_due == 20
        delivered = pic.metrics.counter
        assert delivered("delivered.line0").value == 2
        assert delivered("delivered.line3").value == 1
        assert s.fire_due(25) == 1
        assert s.next_due == NEVER
        assert len(s) == 0

    def test_console_event_queues_an_input_byte(self):
        pic = InterruptController(None, dev_metrics())
        console = ConsoleDevice(pic.line(IRQ_CONSOLE_LINE))
        s = EventSchedule([(1, IRQ_CONSOLE_LINE)], pic, console)
        s.fire_due(1)
        assert console.port_read(CONS_STATUS) & 2
        assert console.port_read(CONS_TX) == ord("k")

    def test_console_event_raises_its_line_once(self):
        machine = Machine()
        s = EventSchedule([(1, IRQ_CONSOLE_LINE)], machine.pic, machine.console)
        s.fire_due(1)
        assert machine.pic.raised_count == 1
        assert machine.pic.coalesced_count == 0

    def test_tie_at_one_edge_fires_in_insertion_order(self):
        order = []

        class Sink:
            def assert_irq(self, cause):
                order.append(cause)

        pic = InterruptController(Sink(), dev_metrics())
        s = EventSchedule([(4, IRQ_VIRTIO_BLK_LINE), (4, IRQ_TIMER_LINE)], pic,
                          None)
        s.fire_due(4)
        assert order == [Cause.IRQ_DEVICE, Cause.IRQ_TIMER]


# -- the retire-edge delivery rule ------------------------------------------


class TestDeliveryRule:
    def test_interp_delivers_pinned_event(self):
        cpu = _cpu(_sti_loop_image(40), jit=False, events=[(10, 0)])
        res = _run_core(cpu, 10_000)
        assert res.stop is StopReason.HALT
        assert cpu.regs[5] == 1  # exactly one handler round-trip
        assert cpu.csr[CSR.ECAUSE] == int(Cause.IRQ_TIMER)

    def test_exit_on_fire_stops_at_the_exact_edge(self):
        cpu = _cpu(_sti_loop_image(40), jit=False, events=[(10, 0)],
                   exit_on_fire=True)
        res = _run_core(cpu, 10_000)
        assert res.stop is StopReason.EVENT
        assert cpu.instret == 10  # edge N, before the fetch of N+1
        assert Cause.IRQ_TIMER in cpu.pending_irqs

    @pytest.mark.parametrize("due", [1, 9, 10, 11, 37, 100])
    def test_jit_matches_interp_bit_for_bit(self, due):
        image = _sti_loop_image(40)
        a = _cpu(image, jit=False, events=[(due, 0), (due + 13, 3)])
        b = _cpu(image, jit=True, events=[(due, 0), (due + 13, 3)])
        ra = _run_core(a, 10_000)
        rb = _run_core(b, 10_000)
        assert ra.stop == rb.stop
        assert _snapshot(a) == _snapshot(b)
        assert a.regs[5] >= 1  # the schedule actually preempted

    def test_event_wakes_a_halted_core(self):
        E = encode
        image = {
            ENTRY: b"".join([
                E(Op.MOVI, rd=15, imm32=VEC),
                E(Op.CSRW, ra=15, simm12=int(CSR.VBAR)),
                E(Op.STI),
                E(Op.HLT),          # sleeps at retire edge 4
                E(Op.HLT),          # resumed-past-first-HLT lands here
            ]),
            VEC: E(Op.ADD, rd=5, ra=5, imm32=1) + E(Op.IRET),
        }
        for jit in (False, True):
            cpu = _cpu(image, jit=jit, events=[(4, 0)])
            res = _run_core(cpu, 100)
            assert res.stop is StopReason.HALT
            assert cpu.regs[5] == 1
            assert cpu.instret == 7  # 4 + handler ADD/IRET + final HLT

    def test_masked_event_stays_latched_not_delivered(self):
        E = encode
        image = {ENTRY: b"".join([
            E(Op.ADD, rd=2, ra=2, imm32=1),
            E(Op.ADD, rd=2, ra=2, imm32=1),
            E(Op.ADD, rd=2, ra=2, imm32=1),
            E(Op.HLT),
        ])}
        cpu = _cpu(image, jit=False, events=[(2, 0)])
        res = _run_core(cpu, 100)
        # assert_irq unhalts, but with IE clear nothing delivers and the
        # core halts again at the skid HLT... there is none: pc runs off
        # into zero words -- so bound the run instead.
        assert Cause.IRQ_TIMER in cpu.pending_irqs
        assert res.stop is not StopReason.HALT or cpu.regs[5] == 0


# -- the PR-9 wedge, audited across every VMM pump path ---------------------


class TestHLTAtDueEdgeVMM:
    """An intercepted HLT landing exactly on a due event edge must not
    wedge the pump. PR 9 fixed this for the hw-assist path by firing
    due events before the idle check; that fix lives in the *shared*
    run loop, but each engine reaches it through a different pump path
    (native pending-IRQ wake, virtual-IRQ injection, BT re-entry,
    H-mode delegated delivery) -- so every path is pinned here, with
    the event due at every edge up to and including the HLT's own
    retire edge.
    """

    CONFIGS = [
        ("hw-shadow", VirtMode.HW_ASSIST, MMUVirtMode.SHADOW),
        ("hw-nested", VirtMode.HW_ASSIST, MMUVirtMode.NESTED),
        ("hw-hmode", VirtMode.HW_ASSIST, MMUVirtMode.HMODE),
        ("bt-shadow", VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW),
    ]

    #: MOVI retires at 1, CSRW at 2, STI at 3, the HLT at edge 4.
    HLT_EDGE = 4

    @staticmethod
    def _sleep_image():
        E = encode
        return {
            ENTRY: b"".join([
                E(Op.MOVI, rd=15, imm32=VEC),
                E(Op.CSRW, ra=15, simm12=int(CSR.VBAR)),
                E(Op.STI),
                E(Op.HLT),
                E(Op.HLT),  # resumed-past-first-HLT lands here
            ]),
            VEC: E(Op.ADD, rd=5, ra=5, imm32=1) + E(Op.IRET),
        }

    def _run(self, virt_mode, mmu_mode, due):
        hv = Hypervisor(memory_bytes=0x800000)
        vm = hv.create_vm(GuestConfig(
            name="t", memory_bytes=0x100000, virt_mode=virt_mode,
            mmu_mode=mmu_mode, prealloc=True))
        for addr, data in self._sleep_image().items():
            vm.guest_mem.write_bytes(addr, data)
        hv.reset_vcpu(vm, ENTRY)
        cpu = vm.vcpus[0].cpu
        cpu.events = EventSchedule(
            [(due, IRQ_TIMER_LINE)], vm.pic, vm.devices["console"],
            exit_on_fire=virt_mode is not VirtMode.HW_ASSIST)
        out = hv.run(vm, max_guest_instructions=100, max_cycles=2_000_000)
        return out, cpu

    @pytest.mark.parametrize("name,virt_mode,mmu_mode", CONFIGS,
                             ids=[c[0] for c in CONFIGS])
    @pytest.mark.parametrize("due", [1, 2, 3, HLT_EDGE])
    def test_due_edge_never_wedges_the_pump(self, name, virt_mode,
                                            mmu_mode, due):
        out, cpu = self._run(virt_mode, mmu_mode, due)
        # Not CYCLE_LIMIT (the wedge's signature: the pump spinning or
        # fast-forwarding forever) and not a sleep-through: the handler
        # ran exactly once, whether the event preceded the HLT or hit
        # its exact retire edge.
        assert out is RunOutcome.HALTED
        assert cpu.regs[5] == 1
        assert not cpu.pending_irqs
        # The pump fires nothing: every run returns past what is due.
        assert cpu.events.next_due > cpu.instret

    @pytest.mark.parametrize("name,virt_mode,mmu_mode", CONFIGS,
                             ids=[c[0] for c in CONFIGS])
    def test_hlt_edge_wake_matches_bare_core(self, name, virt_mode,
                                             mmu_mode):
        # The due-at-HLT-edge wake must land at the same architectural
        # point as on a bare machine: handler round-trip, then the
        # second HLT -- 7 retired instructions, identically numbered
        # in every engine (BT callouts retire like intercepted-and-
        # emulated instructions).
        bare = _cpu(self._sleep_image(), jit=False,
                    events=[(self.HLT_EDGE, IRQ_TIMER_LINE)])
        _run_core(bare, 100)
        assert bare.instret == 7
        out, cpu = self._run(virt_mode, mmu_mode, self.HLT_EDGE)
        assert out is RunOutcome.HALTED
        assert cpu.instret == bare.instret
        assert cpu.regs[5] == bare.regs[5] == 1


# -- InterruptController edges ----------------------------------------------


class TestControllerEdges:
    def test_ack_of_never_raised_line_is_a_noop(self):
        pic = InterruptController(None, dev_metrics())
        pic.port_write(PIC_STATUS, 1 << 9)
        assert pic.pending_mask() == 0
        assert pic.raised_count == 0

    def test_out_of_range_lines_rejected(self):
        pic = InterruptController(None, dev_metrics())
        with pytest.raises(DeviceError):
            pic.raise_line(NUM_LINES)
        with pytest.raises(DeviceError):
            pic.raise_line(-1)
        with pytest.raises(DeviceError):
            pic.line(NUM_LINES)

    def test_double_raise_is_idempotent_and_counted(self):
        pic = InterruptController(None, dev_metrics())
        pic.raise_line(3)
        pic.raise_line(3)
        assert pic.pending_mask() == 1 << 3
        assert pic.raised_count == 2
        assert pic.coalesced_count == 1
        assert pic.metrics.counter("coalesced.line3").value == 1

    def test_timer_beats_device_when_lines_race(self):
        # Both causes latched at the same retire edge: the CPU must
        # take the timer first, then the device cause on the next edge.
        image = {ENTRY: encode(Op.STI) + encode(Op.HLT) * 4,
                 VEC: encode(Op.IRET)}
        cpu = _cpu(image, jit=False)
        cpu.csr[CSR.VBAR] = VEC
        pic = InterruptController(cpu, dev_metrics())
        pic.raise_line(IRQ_VIRTIO_BLK_LINE)
        pic.raise_line(IRQ_TIMER_LINE)
        cpu.csr[CSR.IE] = 1
        cpu.step()
        assert cpu.csr[CSR.ECAUSE] == int(Cause.IRQ_TIMER)
        assert cpu.pending_irqs == {Cause.IRQ_DEVICE}
        cpu.csr[CSR.IE] = 1  # delivery cleared it
        cpu.step()
        assert cpu.csr[CSR.ECAUSE] == int(Cause.IRQ_DEVICE)
        assert not cpu.pending_irqs


# -- IRQ fault sites --------------------------------------------------------


class TestIRQFaultSites:
    def test_lost_drops_the_raise_entirely(self):
        causes = []

        class Sink:
            def assert_irq(self, cause):
                causes.append(cause)

        inj = _injector(_pin("irq.lost"))
        pic = InterruptController(Sink(), dev_metrics())
        pic.injector = inj
        pic.raise_line(0)
        pic.raise_line(0)
        assert pic.lost_count == 1
        assert pic.raised_count == 1  # only the second landed
        assert causes == [Cause.IRQ_TIMER]

    def test_spurious_asserts_device_cause_with_no_line(self):
        causes = []

        class Sink:
            def assert_irq(self, cause):
                causes.append(cause)

        inj = _injector(_pin("irq.spurious"))
        pic = InterruptController(Sink(), dev_metrics())
        pic.injector = inj
        pic.raise_line(IRQ_TIMER_LINE)
        assert pic.spurious_count == 1
        assert causes == [Cause.IRQ_TIMER, Cause.IRQ_DEVICE]
        assert pic.pending_mask() == 1 << IRQ_TIMER_LINE  # no device bit

    def test_delayed_pushes_the_event_back(self):
        inj = _injector(_pin("irq.delayed"))
        pic = InterruptController(None, dev_metrics())
        s = EventSchedule([(5, 0)], pic, None, injector=inj)
        assert s.fire_due(5) == 0
        assert s.deferred_count == 1
        assert 5 < s.next_due <= 5 + 8
        assert s.fire_due(s.next_due) == 1  # lands late, not lost
        assert pic.metrics.counter("delivered.line0").value == 1

    def test_storm_requeues_consecutive_edges(self):
        inj = _injector(_pin("irq.storm"))
        pic = InterruptController(None, dev_metrics())
        s = EventSchedule([(5, 0)], pic, None, injector=inj)
        assert s.fire_due(5) == 1
        assert 1 <= s.storm_extra <= 4
        assert len(s) == s.storm_extra
        assert s.next_due == 6  # the burst starts at the very next edge

    def test_faulted_schedule_still_bit_identical_across_engines(self):
        image = _sti_loop_image(60)
        specs = [FaultSpec("irq.delayed", rate=0.5),
                 FaultSpec("irq.storm", rate=0.5),
                 FaultSpec("irq.lost", rate=0.3),
                 FaultSpec("irq.spurious", rate=0.3)]
        events = [(7, 0), (19, 3), (33, 0), (60, 3)]
        a = _cpu(image, jit=False, events=events,
                 injector=_injector(*specs, seed=99))
        b = _cpu(image, jit=True, events=events,
                 injector=_injector(*specs, seed=99))
        _run_core(a, 10_000)
        _run_core(b, 10_000)
        assert _snapshot(a) == _snapshot(b)


# -- console RX path --------------------------------------------------------


class TestConsoleRX:
    def test_rx_queue_and_status_bit(self):
        console = ConsoleDevice(
            InterruptController(None, dev_metrics()).line(IRQ_CONSOLE_LINE))
        assert console.port_read(CONS_STATUS) == 1  # TX ready, no RX
        console.push_input(0x41)
        console.push_input(0x42)
        assert console.port_read(CONS_STATUS) == 3
        assert console.port_read(CONS_TX) == 0x41
        assert console.port_read(CONS_TX) == 0x42
        assert console.chars_received == 2
        assert console.port_read(CONS_TX) == 0  # empty: reads as zero

    def test_push_raises_bound_irq_line(self):
        pic = InterruptController(None, dev_metrics())
        console = ConsoleDevice(pic.line(IRQ_CONSOLE_LINE))
        console.push_input(0x6B)
        assert pic.pending_mask() == 1 << IRQ_CONSOLE_LINE
