"""After port I/O a compiled block goes on only where the run loop's top would.

OUT and IN do not end a compiled block (DESIGN.md "What ends a block").
After one, the block commits its boundary, runs the instruction as a
terminator would, and goes on only while everything the run loop's top
tests still says so: ``pc`` is the next instruction's and the mode is
unchanged; the core is not halted and no interrupt is pending with IE
set; the SMC epoch is unchanged; the code page's TLB entry (or, in
shadow real mode, its frame) is unchanged; the rest of the block fits
the folded instruction stop and its worst charge the cycle stop; and,
under a translator, a user-mode one (always reflected into the guest's
kernel) never goes on.

Each case is a guest whose port write makes one of those tests fail,
written so that this test is the one that fires: a probe device on
port :data:`PROBE` acts on the guest's second write, inside a compiled
self-looping block, or the write is a user-mode OUT. Each runs
interpreted and compiled on every ``MODE_MATRIX`` row, and everything
the simulation can observe must match: cycles, instret, registers and
CSRs, TLB statistics and LRU order, exits, memory and where each run of
the core stopped. Where a row stops the block another way first (a
deprivileged row's pending virq unwinds the exit; the translator runs
guest kernel mode itself) the case is a plain parity check there.
"""

import hashlib

import pytest

from repro.bench.common import MODE_MATRIX
from repro.core import GuestConfig, Hypervisor, Machine
from repro.cpu import jit as jitmod
from repro.cpu.assembler import Assembler
from repro.devices.bus import PortDevice
from repro.devices.irq import IRQ_BLOCK_LINE, IRQ_TIMER_LINE
from repro.devices.schedule import EventSchedule
from repro.mem.paging import PTE_PRESENT, PTE_USER, PTE_WRITABLE
from repro.util.units import MIB, PAGE_SIZE

ROWS = {label: (virt, mmu) for label, virt, mmu, _pv in MODE_MATRIX}
GUEST_MEMORY = 4 * MIB
CODE = 0x1000
#: The guest's identity page tables: one directory, one table (4 MiB).
PD, PT = 0x20000, 0x21000
#: The one page user mode may not touch.
KDATA = 0x30000
#: A data page.
DATA = 0x8000
#: The probe device's port.
PROBE = 0x30
#: Every run's instruction budget (the guests halt well before).
LIMIT = 5_000


@pytest.fixture(autouse=True)
def compile_on_first_visit(monkeypatch):
    monkeypatch.setattr(jitmod, "HOT", 1)
    monkeypatch.setattr(jitmod, "_CODE", {})
    monkeypatch.setattr(jitmod, "_HEADS", set())


class _Probe(PortDevice):
    """Counts the guest's writes and calls ``act`` at write number
    ``at`` (every write if None)."""

    STATE = ()

    def __init__(self, act, at):
        self.act, self.at = act, at
        self.writes = 0

    def port_read(self, port):
        return 0

    def port_write(self, port, value):
        self.writes += 1
        if self.at is None or self.writes == self.at:
            self.act()


class _Guest:
    """One row's machine, as the cases need it: the core, the interrupt
    controller, guest-physical memory and a way to re-back a guest frame
    (None on the native row), and ``run``."""

    def __init__(self, label, jit, image, act, at=2):
        virt, mmu = ROWS[label]
        if virt is None:
            self.hv = self.vm = None
            machine = Machine(memory_bytes=GUEST_MEMORY, jit=jit)
            machine.load_program(image)
            machine.cpu.reset(image.entry)
            self.cpu, self.pic, self.bus = machine.cpu, machine.pic, machine.port_bus
            self.mem = machine.physmem
        else:
            self.hv = Hypervisor(memory_bytes=2 * GUEST_MEMORY)
            self.vm = self.hv.create_vm(GuestConfig(
                name="vm", memory_bytes=GUEST_MEMORY, virt_mode=virt, mmu_mode=mmu))
            self.hv.load_program(self.vm, image)
            self.hv.reset_vcpu(self.vm, image.entry)
            self.cpu, self.pic, self.bus = self.vm.vcpus[0].cpu, self.vm.pic, self.vm.port_bus
            self.mem = self.vm.guest_mem
            self.cpu.jit_enabled = jit
        # Identity tables the guest may load (its PTBR write is its own):
        # every page user-accessible but KDATA's.
        self.mem.write_u32(PD, PT | PTE_PRESENT | PTE_WRITABLE | PTE_USER)
        for page in range(1024):
            flags = PTE_PRESENT | PTE_WRITABLE | (0 if page == KDATA >> 12 else PTE_USER)
            self.mem.write_u32(PT + 4 * page, (page << 12) | flags)
        self.bus.register(_Probe(lambda: act(self), at), PROBE, 1)
        # Where each run of the core stopped.
        self.stops = []
        run = self.cpu.run

        def recorded(*args, **kwargs):
            result = run(*args, **kwargs)
            self.stops.append((result.stop.value, self.cpu.instret, self.cpu.cycles))
            return result

        self.cpu.run = recorded

    def run(self, max_cycles=None):
        if self.vm is None:
            return self.cpu.run(max_instructions=LIMIT, max_cycles=max_cycles).stop.value
        return self.hv.run(self.vm, max_guest_instructions=LIMIT,
                           max_cycles=max_cycles).value

    def reback(self, gfn, patch):
        """The host moves ``gfn`` to a fresh frame holding its bytes with
        ``patch`` (offset, bytes) applied -- as a copy-on-write break
        does, but with different content, so a block still running the
        old frame shows."""
        if self.vm is None:
            return
        data = bytearray(self.mem.read_gfn(gfn))
        offset, new = patch
        data[offset:offset + len(new)] = new
        hfn = self.hv.allocator.alloc(zero=False)
        self.hv.physmem.write_bytes(hfn * PAGE_SIZE, bytes(data))
        self.mem.map_page(gfn, hfn)
        self.cpu.mmu.rebind_gfn(gfn, hfn, writable=True)

    def observed(self):
        cpu = self.cpu
        tlb = cpu.mmu.tlb
        memory = hashlib.sha256(self.mem.read_bytes(0, GUEST_MEMORY)).hexdigest()
        seen = {
            "stops": self.stops,
            "cycles": cpu.cycles,
            "instret": cpu.instret,
            "pc": cpu.pc,
            "regs": tuple(cpu.regs),
            "csr": tuple(cpu.csr),
            "halted": cpu.halted,
            "pending": sorted(c.name for c in cpu.pending_irqs),
            "tlb": vars(tlb.stats).copy(),
            "lru": tuple(tlb._entries.items()),
            "memory": memory,
        }
        if self.vm is not None:
            vcpu = self.vm.vcpus[0]
            seen.update(vcsr=tuple(vcpu.vcsr), vhalted=vcpu.halted,
                        exits=dict(self.vm.exit_stats.counts),
                        vmm_cycles=self.vm.stats.vmm_cycles)
        return seen


def _asm(source):
    return Assembler().assemble(f".org {CODE:#x}\n{source}")


def _kernel(body, paging=True, ie=False):
    """Kernel-mode guest: paging on (unless not), VBAR at ``vec``, IE on
    if asked, then ``body``; a vector that counts in k0 and returns."""
    prologue = f"    li a0, {PD:#x}\n    csrw PTBR, a0\n" if paging else ""
    return _asm(f"""{prologue}    li a0, vec
    csrw VBAR, a0
{"    sti" if ie else ""}
{body}
    hlt
vec:
    add k0, k0, 1
    iret
""")


#: Three laps of a self-looping block with the probe's write inside it:
#: the second lap is the one the probe acts in, and ``mov s1, k0`` is the
#: instruction that must see whatever the write changed.
LOOP = f"""
    li s0, 3
loop:
    li a1, 1
    out {PROBE:#x}, a1
    mov s1, k0
    add s2, s2, s1
    sub s0, s0, 1
    bnez s0, loop
"""


#: LOOP with a store before the write and a load after it, both to DATA.
DATA_LOOP = f"""
    li s0, 3
    li a3, {DATA:#x}
loop:
    st [a3+0], s0
    li a1, 1
    out {PROBE:#x}, a1
    ld t1, [a3+0]
    add s2, s2, t1
    sub s0, s0, 1
    bnez s0, loop
"""


def _mov_pc(image):
    """The address of LOOP's ``mov s1, k0``."""
    return image.symbols["loop"] + 8 + 4  # li a1, 1 (8 bytes); out (4)


#: An ``add s1, s1, 7`` to write over the ``mov s1, k0`` (4 bytes each).
_ADD7 = Assembler().assemble(".org 0\n    add s1, s1, 7\n").data


def _due_event(g, edges):
    # A schedule attached by the device, due ``edges`` after the OUT,
    # published as the run loop publishes the folded stop.
    g.cpu.events = EventSchedule([(g.cpu.instret + edges, IRQ_TIMER_LINE)],
                                 g.pic, None)
    g.cpu._retire_edge()


#: name -> (the guest's image builder, the probe's action).
CASES = {
    # The core's IRQ is pending with IE on: it is taken before the MOV.
    "irq": (lambda: _kernel(LOOP, ie=True),
            lambda g, image: g.pic.raise_line(IRQ_BLOCK_LINE)),
    # The folded stop lands one edge after the OUT.
    "due-event": (lambda: _kernel(LOOP, ie=True),
                  lambda g, image: _due_event(g, 1)),
    # Due in the next lap: the rest of this one fits, the loop edge must
    # read the lowered stop.
    "due-event-next-lap": (lambda: _kernel(LOOP, ie=True),
                           lambda g, image: _due_event(g, 5)),
    # The core was halted by the write.
    "halted": (lambda: _kernel(LOOP),
               lambda g, image: setattr(g.cpu, "halted", True)),
    # A device DMAs over the instruction after the write: the block's
    # own frame (the SMC epoch moves).
    "dma-own-code": (lambda: _kernel(LOOP),
                     lambda g, image: g.mem.write_bytes(_mov_pc(image), _ADD7)),
    # The write dropped the code page's TLB entry: the next fetch misses.
    "tlb-entry": (lambda: _kernel(LOOP),
                  lambda g, image: g.cpu.mmu.invlpg(image.symbols["loop"])),
    # The write dropped the data page's entry (the code page's stays):
    # the load after it must not reuse the store's translation.
    "tlb-data-entry": (lambda: _kernel(DATA_LOOP),
                       lambda g, image: g.cpu.mmu.invlpg(DATA)),
    # Shadow real mode: the host re-backs the code gfn with other bytes
    # (under two-stage paging that flushes the TLB: the entry guard).
    "reback-real-mode": (
        lambda: _kernel(LOOP, paging=False),
        lambda g, image: g.reback(_mov_pc(image) >> 12,
                                  (_mov_pc(image) & 0xFFF, _ADD7))),
}


def _parity(label, build, act):
    outcomes = []
    for jit in (False, True):
        image = build()
        g = _Guest(label, jit, image, lambda g, image=image: act(g, image))
        outcomes.append((g.run(), g.observed()))
    (ref_outcome, ref), (jit_outcome, got) = outcomes
    assert ref_outcome == jit_outcome, f"{label}: {jit_outcome} != {ref_outcome}"
    differing = [k for k in ref if ref[k] != got[k]]
    assert not differing, f"{label}: compiled differs in " + ", ".join(
        f"{k} ({got[k]!r} != {ref[k]!r})" for k in differing if k != "memory")
    return g


@pytest.mark.parametrize("label", list(ROWS))
@pytest.mark.parametrize("case", list(CASES))
def test_a_guard_ends_the_block(case, label):
    build, act = CASES[case]
    _parity(label, build, act)


#: Forty laps with a load and a store after the write: the block's
#: worst charge (a walk per access) is wide enough for a cut to land in
#: it after the OUT.
BUDGET_LOOP = f"""
    li s0, 40
    li a3, {DATA:#x}
loop:
    li a1, 1
    out {PROBE:#x}, a1
    ld t1, [a3+0]
    add s2, s2, t1
    st [a3+0], s2
    sub s0, s0, 1
    bnez s0, loop
"""


@pytest.mark.parametrize("label", list(ROWS))
def test_the_cycle_budget_the_write_lowered(label):
    # Under a VMM the exit service takes what the exit cost off the
    # run's cycle budget; on the native row the probe does, at every
    # write (``charge_cycle_budget``, as a device model that takes time
    # would). The rest of the block must still fit what is left. Runs
    # of one budget, each resuming where the last one stopped, cut the
    # loop at many points (a lap costs ten times as much under a VMM).
    scale = 1 if ROWS[label][0] is None else 10
    for budget in (97 * scale, 141 * scale, 203 * scale, 299 * scale):
        outcomes = []
        for jit in (False, True):
            g = _Guest(label, jit, _kernel(BUDGET_LOOP),
                       lambda g: g.cpu.charge_cycle_budget(40), at=None)
            trail = [g.run(max_cycles=budget)]
            while trail[-1] == "cycle_limit" and len(trail) < 400:
                trail.append(g.run(max_cycles=budget))
            outcomes.append((trail, g.observed()))
        assert outcomes[0] == outcomes[1], (label, budget)
        assert len(outcomes[0][0]) > 2  # the loop was cut


#: User mode's OUT traps PRIV. ``vec_at_next`` puts the trap vector on
#: the instruction after the OUT, so the pc test passes: with paging on
#: the mode test is the one that fires where the trap changes the mode
#: (the vector then reads a page user mode may not); with paging off
#: (no TLB entry to change) the translator's user-mode test is. With the
#: vector elsewhere and paging off, where the trap leaves the mode as it
#: was (the deprivileged rows reflect it to the guest kernel) the pc
#: test is the one that fires.
def _user_out(vec_at_next, paging):
    paging = f"    li a0, {PD:#x}\n    csrw PTBR, a0\n" if paging else ""
    user_tail = f"""
user:
    li a1, 1
    out 0x10, a1
{"uvec:" if vec_at_next else ""}
    li a2, {KDATA:#x}
    ld s2, [a2+0]
    add k0, k0, 1
    hlt
"""
    return _asm(f"""{paging}    li a0, {"uvec" if vec_at_next else "kvec"}
    csrw VBAR, a0
    li a0, user
    csrw EPC, a0
    li a0, 1                 ; IRET to user mode, IE off
    csrw ESTATUS, a0
    iret
kvec:
    add k0, k0, 100
    hlt
{user_tail}""")


@pytest.mark.parametrize("label", list(ROWS))
@pytest.mark.parametrize("vec_at_next, paging", [(True, True), (True, False), (False, False)],
                         ids=["vector-next", "vector-next-real-mode", "vector-elsewhere"])
def test_a_user_mode_out_reflected_as_priv(label, vec_at_next, paging):
    g = _parity(label, lambda: _user_out(vec_at_next, paging), lambda g, image: None)
    assert g.cpu.instret > 10


@pytest.mark.parametrize("label", list(ROWS))
def test_a_fault_after_the_write(label):
    # The block goes on after the write and then faults: its handler
    # counts the fetch hits since the write, not since the block began.
    image = _asm(f"""    li a0, {PD:#x}
    csrw PTBR, a0
    li a0, pfvec
    csrw VBAR, a0
    li a3, 0x400000          ; no directory entry: every access faults
    li s0, 3
loop:
    li a1, 1
    out {PROBE:#x}, a1
    add s1, s1, 1
    ld t1, [a3+0]
    add s2, s2, 1
    sub s0, s0, 1
    bnez s0, loop
    hlt
pfvec:                       ; count the fault, skip the load
    add k0, k0, 1
    csrr t2, EPC
    add t2, t2, 4
    csrw EPC, t2
    iret
""")
    g = _parity(label, lambda: image, lambda g, image: None)
    assert g.cpu.regs[11] == 3  # s2: every lap ran
