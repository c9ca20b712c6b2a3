"""H-mode asynchronous-delivery property: the PR-9 retire-edge rule,
bit-for-bit against the reference interpreter.

The architected rule: a pending, unmasked IRQ latched at retire edge N
is delivered before the fetch of instruction N+1. H-mode is the one
engine that claims *zero* VMM involvement for delegated causes -- the
trap vectors straight into the guest with the bare machine's CSR
writes and trap cost -- so the property here is stronger than the
guest-visible agreement the fuzzer checks: with translation costs
zeroed (a bare machine translates for free with paging off; removing
the G-stage charge makes the timelines comparable), an H-mode guest's
**cycles and instret must equal the bare interpreter's exactly** at
every edge placement within the preemption loop's block.
"""

import pytest

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.cpu.interp import CPUCore
from repro.cpu.isa import CSR, Cause, Op, encode
from repro.cpu.mmu import BareMMU
from repro.devices.irq import IRQ_TIMER_LINE, InterruptController
from repro.devices.schedule import EventSchedule
from repro.mem.costs import CostModel
from repro.mem.physmem import PhysicalMemory
from tests.conftest import dev_metrics

MEM = 0x100000
ENTRY = 0x1000
VEC = 0x2000
TRIPS = 40
#: Instruction budget: stops both machines mid-loop, before the HLT,
#: so no exit-handler cost ever lands on the H-mode timeline.
LIMIT = 90

#: Retire edges 1..4 are the head (MOVI, CSRW, STI, MOVI); the loop
#: block is ADD/SUB/BNE, so edges 5.. walk its three offsets. The sweep
#: covers every offset of the block across several iterations.
EDGE_SWEEP = list(range(1, 17))


def _image():
    E = encode
    head = b"".join([
        E(Op.MOVI, rd=15, imm32=VEC),
        E(Op.CSRW, ra=15, simm12=int(CSR.VBAR)),
        E(Op.STI),
        E(Op.MOVI, rd=1, imm32=TRIPS),
    ])
    loop = ENTRY + len(head)
    body = b"".join([
        E(Op.ADD, rd=2, ra=2, imm32=1),
        E(Op.SUB, rd=1, ra=1, imm32=1),
        E(Op.BNE, ra=1, rb=0, imm32=loop),
        E(Op.HLT),
    ])
    vec = encode(Op.ADD, rd=5, ra=5, imm32=1) + encode(Op.IRET)
    return {ENTRY: head + body, VEC: vec}


def _costs():
    # Identical instruction costs everywhere; translation free on both
    # sides (the bare MMU charges nothing with paging off, the H-mode
    # MMU's hit/G-stage charges are zeroed).
    return CostModel(tlb_hit_cycles=0, gstage_ref_cycles=0)


def _run_bare(due):
    costs = _costs()
    pm = PhysicalMemory(MEM)
    for addr, data in _image().items():
        pm.write_bytes(addr, data)
    cpu = CPUCore(BareMMU(pm, costs), port_bus=None, jit=False)
    cpu.reset(ENTRY)
    pic = InterruptController(cpu, dev_metrics())
    cpu.events = EventSchedule([(due, IRQ_TIMER_LINE)], pic, None)
    cpu.run(max_instructions=LIMIT)
    return cpu


def _run_hmode(due):
    hv = Hypervisor(memory_bytes=8 * MEM, costs=_costs())
    vm = hv.create_vm(GuestConfig(
        name="t", memory_bytes=MEM, virt_mode=VirtMode.HW_ASSIST,
        mmu_mode=MMUVirtMode.HMODE, prealloc=True))
    for addr, data in _image().items():
        vm.guest_mem.write_bytes(addr, data)
    hv.reset_vcpu(vm, ENTRY)
    cpu = vm.vcpus[0].cpu
    cpu.events = EventSchedule([(due, IRQ_TIMER_LINE)], vm.pic,
                               vm.devices["console"])
    out = hv.run(vm, max_guest_instructions=LIMIT, max_cycles=10_000_000)
    return out, cpu


class TestHModeDeliveryRule:
    @pytest.mark.parametrize("due", EDGE_SWEEP)
    def test_bit_identical_to_interpreter_at_every_edge(self, due):
        bare = _run_bare(due)
        out, hm = _run_hmode(due)
        assert out is RunOutcome.INSTR_LIMIT
        # The delegated delivery happened, in the guest, with no exit.
        assert hm.regs[5] == bare.regs[5] == 1
        assert hm.csr[CSR.ECAUSE] == int(Cause.IRQ_TIMER)
        # The strong property: identical timelines, not just agreement.
        assert hm.instret == bare.instret == LIMIT
        assert hm.cycles == bare.cycles
        assert hm.pc == bare.pc
        assert list(hm.regs) == list(bare.regs)
        assert hm.csr[CSR.EPC] == bare.csr[CSR.EPC]
        assert hm.csr[CSR.ESTATUS] == bare.csr[CSR.ESTATUS]

    def test_delivery_precedes_the_next_fetch(self):
        # The rule itself, stated on the trap frame: an event due at
        # edge N writes EPC = the pc *after* instruction N, i.e. the
        # handler runs before the fetch of N+1. Edge 6 retires the
        # loop's SUB; the next fetch would be the BNE.
        bare = _run_bare(6)
        _out, hm = _run_hmode(6)
        assert hm.csr[CSR.EPC] == bare.csr[CSR.EPC]
        loop = ENTRY + 24  # head: MOVI(8) + CSRW(4) + STI(4) + MOVI(8)
        assert bare.csr[CSR.EPC] == loop + 16  # the BNE: fetch of N+1
