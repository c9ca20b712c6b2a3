"""Binary-translation engine: correctness, caching, chaining, callouts."""

import pytest

from repro.bench.common import MODE_MATRIX
from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.cpu import jit as jitmod
from repro.cpu.assembler import Assembler
from repro.cpu.isa import CSR, Cause, Reg
from repro.devices.irq import IRQ_TIMER_LINE
from repro.devices.schedule import EventSchedule
from repro.mem.paging import PTE_ACCESSED, PTE_DIRTY
from repro.overcommit import HostSwap, PageSharer
from repro.util.units import MIB

GUEST_MEM = 16 * MIB


def bt_vm(hv, **kw):
    return hv.create_vm(
        GuestConfig(name=kw.pop("name", "bt"), memory_bytes=GUEST_MEM,
                    virt_mode=VirtMode.BINARY_TRANSLATION,
                    mmu_mode=MMUVirtMode.SHADOW, **kw)
    )


def run_bt(src, cache=True, chaining=True, max_instructions=200_000):
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = bt_vm(hv)
    vm.bt.cache_enabled = cache
    vm.bt.chaining_enabled = chaining
    prog = Assembler().assemble(".org 0x1000\n" + src)
    hv.load_program(vm, prog)
    hv.reset_vcpu(vm, 0x1000)
    outcome = hv.run(vm, max_guest_instructions=max_instructions)
    return hv, vm, outcome


BASIC = """
    li a0, 10
    li a1, 0
loop:
    add a1, a1, a0
    sub a0, a0, 1
    bnez a0, loop
    csrw SCRATCH, a1     ; privileged: becomes a callout
    csrr a2, SCRATCH
    li a0, 1
    out 0xf0, a0
    hlt
"""


def test_translated_kernel_code_computes_correctly():
    _, vm, outcome = run_bt(BASIC)
    assert outcome is RunOutcome.SHUTDOWN
    assert vm.vcpus[0].cpu.regs[3] == 55
    assert vm.vcpus[0].vcsr[7] == 55  # SCRATCH is virtual state


def test_sensitive_instructions_are_corrected():
    _, vm, outcome = run_bt("""
    sti                  ; rewritten: must set the VIRTUAL IE
    csrr a1, IE
    csrr a2, MODE        ; must read virtual kernel mode (0)
    cli
    csrr a3, IE
    li a0, 1
    out 0xf0, a0
    hlt
""")
    assert outcome is RunOutcome.SHUTDOWN
    cpu = vm.vcpus[0].cpu
    assert cpu.regs[2] == 1  # IE observed as set
    assert cpu.regs[3] == 0  # MODE observed as kernel
    assert cpu.regs[4] == 0  # CLI observed
    assert cpu.csr[CSR.MODE] == 1  # yet the real core never left user mode


def test_block_cache_hits_on_reexecution():
    _, vm, _ = run_bt(BASIC)
    assert vm.stats.bt_block_hits > 0
    assert vm.stats.bt_block_misses > 0
    assert vm.stats.bt_block_misses < vm.stats.bt_block_hits


def test_cache_disabled_retranslates_every_block():
    _, with_cache, _ = run_bt(BASIC, cache=True)
    _, without_cache, _ = run_bt(BASIC, cache=False)
    assert (without_cache.stats.bt_translated_instructions
            > 2 * with_cache.stats.bt_translated_instructions)
    assert without_cache.stats.bt_block_hits == 0


def test_chaining_reduces_dispatch_cost():
    _, chained, _ = run_bt(BASIC, chaining=True)
    _, unchained, _ = run_bt(BASIC, chaining=False)
    assert chained.stats.bt_chained > 0
    assert unchained.stats.bt_chained == 0
    assert (chained.vcpus[0].cpu.cycles
            < unchained.vcpus[0].cpu.cycles)


def test_callouts_avoid_world_switches():
    _, vm, _ = run_bt(BASIC)
    # CSRW/CSRR ran as callouts: no PRIV-trap exits.
    priv_exits = sum(
        count for key, count in vm.exit_stats.counts.items()
        if "guest_trap" in key and "csr" in key
    )
    assert priv_exits == 0
    assert vm.stats.bt_callouts >= 2


def test_syscall_reflection_inside_translator():
    _, vm, outcome = run_bt("""
    li a0, vec
    csrw VBAR, a0
    syscall 9
    li a3, 123           ; after iret
    li a0, 1
    out 0xf0, a0
    hlt
vec:
    csrr a1, ECAUSE
    csrr a2, EVAL
    iret
""")
    assert outcome is RunOutcome.SHUTDOWN
    cpu = vm.vcpus[0].cpu
    assert cpu.regs[2] == 1  # SYSCALL cause
    assert cpu.regs[3] == 9
    assert cpu.regs[4] == 123


def _store_into(vm, gfn):
    """A host store into guest frame ``gfn`` that leaves its bytes as
    they were: the core's write watch drops what came from the frame."""
    gpa = gfn << 12
    vm.guest_mem.write_bytes(gpa, vm.guest_mem.read_bytes(gpa, 4))


def test_invalidate_gfn_drops_translations():
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = bt_vm(hv)
    prog = Assembler().assemble(".org 0x1000\n" + BASIC)
    hv.load_program(vm, prog)
    hv.reset_vcpu(vm, 0x1000)
    hv.run(vm, max_guest_instructions=200_000)
    assert len(vm.bt.jit.translated) > 0
    _store_into(vm, 1)  # kernel code lives in gfn 1
    assert len(vm.bt.jit.translated) == 0


TWO_PAGE = """
    li a0, 50
outer:
    call far             ; far lives in the next guest frame (gfn 2)
    sub a0, a0, 1
    bnez a0, outer
    li a0, 1
    out 0xf0, a0
    hlt
    .space 4096
far:
    add a1, a1, 1
    ret
"""


def test_unrelated_invalidation_keeps_chains():
    """A store into one frame must only drop chains touching that
    frame's blocks -- not every chain in the engine (regression)."""
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = bt_vm(hv)
    prog = Assembler().assemble(".org 0x1000\n" + TWO_PAGE)
    hv.load_program(vm, prog)
    hv.reset_vcpu(vm, 0x1000)
    # Stop mid-loop: everything is translated and chained by now.
    outcome = hv.run(vm, max_guest_instructions=100)
    assert outcome is RunOutcome.INSTR_LIMIT

    blocks_before = len(vm.bt.jit.translated)
    chains_before = set(vm.bt.jit.chains)
    assert blocks_before > 0 and chains_before

    # Invalidate the frame holding only `far`; gfn-1 blocks and the
    # chains that link them must survive untouched.
    _store_into(vm, 2)
    assert 0 < len(vm.bt.jit.translated) < blocks_before
    surviving = set(vm.bt.jit.chains)
    assert surviving  # chained dispatch in gfn 1 still wired up
    assert surviving <= chains_before
    for src_va, dst_va in surviving:
        assert src_va >> 12 != 2 and dst_va >> 12 != 2

    # A frame with no translations at all is a strict no-op.
    blocks_now, chains_now = len(vm.bt.jit.translated), set(vm.bt.jit.chains)
    _store_into(vm, 7)
    assert len(vm.bt.jit.translated) == blocks_now
    assert set(vm.bt.jit.chains) == chains_now

    # Resuming after the partial invalidation retranslates `far` and
    # finishes the remaining iterations correctly.
    outcome = hv.run(vm, max_guest_instructions=200_000)
    assert outcome is RunOutcome.SHUTDOWN
    assert vm.vcpus[0].cpu.regs[2] == 50  # far ran 50 times in total


DECODE_AHEAD = """
    li a0, vec
    csrw VBAR, a0
    li t0, 0
    divu t1, a0, t0      ; DIV0: control leaves for vec here ...
    .word 0x44000000     ; ... so this undecodable word is never fetched
vec:
    csrr a2, ECAUSE
    li a0, 1
    out 0xf0, a0
    hlt
"""


def test_decode_ahead_stops_before_an_undecodable_word():
    """The translator decodes a whole block before running any of it;
    bytes past the point where control leaves must not abort the run.
    Hardware assist, which decodes only what it executes, is the
    reference."""
    states = []
    for virt_mode in (VirtMode.HW_ASSIST, VirtMode.BINARY_TRANSLATION):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = hv.create_vm(
            GuestConfig(name="vm", memory_bytes=GUEST_MEM,
                        virt_mode=virt_mode, mmu_mode=MMUVirtMode.SHADOW))
        prog = Assembler().assemble(".org 0x1000\n" + DECODE_AHEAD)
        hv.load_program(vm, prog)
        hv.reset_vcpu(vm, 0x1000)
        outcome = hv.run(vm, max_guest_instructions=200_000)
        states.append((outcome, tuple(vm.vcpus[0].cpu.regs)))
    assert states[0][0] is RunOutcome.SHUTDOWN
    assert states[0][1][3] == 9  # the vector saw Cause.DIV0
    assert states[1] == states[0]


PTBR_SWITCH = """
    li a0, 0x20000       ; page directory
    li a1, 0x21007       ; PDE -> page table at 0x21000, P|W|U
    st [a0+0], a1
    li a0, 0x21000
    li a2, 0x2007        ; vpn 2 -> frame 0x2000 (the vector page), P|W|U
    st [a0+8], a2        ; PT[2]; vpn 1 -- this code page -- stays unmapped
    li a0, vec
    csrw VBAR, a0
    li t0, tail          ; VA whose fetch must fault under the new root
    li t1, 0x20000
    csrw PTBR, t1        ; fetch translation changes HERE
tail:
    li t2, 0xdead        ; decoded under the old root: must never execute
    hlt
    .space 4096
vec:
    csrr a1, ECAUSE
    csrr a2, EVAL
    li a0, 1
    out 0xf0, a0
    hlt
"""


def test_ptbr_write_ends_translated_block():
    """A CSRW PTBR mid-block changes instruction-fetch translation; the
    instructions decoded after it under the old root must not run.  The
    translator has to end the block at the write so dispatch re-fetches
    (and here re-faults: vpn 1 is unmapped under the new root) exactly
    like hardware."""
    from repro.cpu.isa import Cause

    _, vm, outcome = run_bt(PTBR_SWITCH)
    assert outcome is RunOutcome.SHUTDOWN
    cpu = vm.vcpus[0].cpu
    assert cpu.regs[7] != 0xdead  # the stale tail never executed
    assert cpu.regs[2] == int(Cause.PF_EXEC)  # ECAUSE seen by the vector
    assert cpu.regs[3] == cpu.regs[5]  # EVAL == VA of the stale tail


# `site` is an 8-byte jump at page offset 0xFFC: its target word is the
# first word of the next page, and the loop's second pass rewrites it.
STRADDLING_JUMP = """
    li a1, 0
    jmp site
    .space 0xfec
site:
    jmp first
    .space 0xffc
first:
    add a1, a1, 1
    li t2, 2
    beq a1, t2, fail
    li t0, second
    li t1, 0x2000
    st [t1+0], t0        ; site now jumps to `second`
    jmp site
second:
    li a2, 0xAA
    li a0, 1
    out 0xf0, a0
    hlt
fail:
    li a2, 0xBB
    li a0, 1
    out 0xf0, a0
    hlt
"""


def test_store_to_the_second_page_of_a_straddling_instruction():
    """A translated block depends on every page its bytes lie on, not
    only on the page each instruction starts in: a store to the
    immediate word of a page-straddling jump must drop the translation
    of that jump."""
    prog = Assembler().assemble(".org 0x1000\n" + STRADDLING_JUMP)
    assert prog.symbols["site"] == 0x1FFC
    states = {}
    for label, virt_mode, mmu_mode in (
        ("hw-shadow", VirtMode.HW_ASSIST, MMUVirtMode.SHADOW),
        ("hw-nested", VirtMode.HW_ASSIST, MMUVirtMode.NESTED),
        ("trap-emulate", VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW),
        ("bin-transl", VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW),
    ):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = hv.create_vm(
            GuestConfig(name="vm", memory_bytes=GUEST_MEM,
                        virt_mode=virt_mode, mmu_mode=mmu_mode))
        hv.load_program(vm, prog)
        hv.reset_vcpu(vm, 0x1000)
        outcome = hv.run(vm, max_guest_instructions=1_000)
        states[label] = (outcome, tuple(vm.vcpus[0].cpu.regs))
    outcome, regs = states["hw-shadow"]
    assert outcome is RunOutcome.SHUTDOWN
    assert (regs[2], regs[3]) == (1, 0xAA)
    assert all(state == states["hw-shadow"] for state in states.values()), states


# Paging on, vpn 4 is called twice (s0 sums the a3 each call leaves),
# one word is stored -- the PTE of vpn 4, or a data word -- and INVLPG
# runs before the third call.
REMAP_CODE_PAGE = """
    li a0, 0x20000
    li a1, 0x21003
    st [a0+0], a1        ; PD[0] -> the page table at 0x21000
    li a0, 0x21000
    li a1, 0x1003
    st [a0+4], a1        ; vpn 1 -> this code
    li a1, 0x5003
    st [a0+16], a1       ; vpn 4 -> frame 0x5000: li a3, 1; ret
    li a1, 0x21003
    st [a0+0x84], a1     ; vpn 0x21 -> the page table, to edit it below
    li a1, 0x30003
    st [a0+0xc0], a1     ; vpn 0x30 -> a data page
    li a0, vec
    csrw VBAR, a0
    li t1, 0x20000
    csrw PTBR, t1
    li s0, 0
    li t0, 0x4000
    jalr lr, t0
    add s0, s0, a3
    jalr lr, t0
    add s0, s0, a3
    li a0, {address}
    li a1, {value}
    st [a0+0], a1
    invlpg t0
    jalr lr, t0          ; must fetch through the PTE as it is now
    add s0, s0, a3
    li a0, 1
    out 0xf0, a0
    hlt
vec:
    csrr s1, ECAUSE
    li a0, 1
    out 0xf0, a0
    hlt
"""
PTE_OF_VPN_4 = 0x21010


def run_remap(virt_mode, mmu_mode, address, value):
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = hv.create_vm(GuestConfig(name="vm", memory_bytes=GUEST_MEM,
                                  virt_mode=virt_mode, mmu_mode=mmu_mode))
    hv.load_program(vm, Assembler().assemble(
        ".org 0x1000\n" + REMAP_CODE_PAGE.format(address=address,
                                                 value=value)))
    for frame, a3 in ((0x5000, 1), (0x6000, 2)):
        hv.load_program(vm, Assembler().assemble(
            f".org {frame:#x}\n    li a3, {a3}\n    ret\n"))
    hv.reset_vcpu(vm, 0x1000)
    outcome = hv.run(vm, max_guest_instructions=1_000)
    return outcome, vm


@pytest.mark.parametrize("pte, s0, ecause", [
    (0x6003, 4, 0),              # remapped: the third call runs 0x6000
    (0, 2, int(Cause.PF_EXEC)),  # unmapped: the third call faults
], ids=["remap", "unmap"])
def test_remapped_code_page_is_fetched_through_the_new_pte(pte, s0, ecause):
    """A translated block depends on the PTE it was fetched through, not
    only on its code bytes: a cache hit after the guest re-points or
    clears that PTE must not run the old frame's translation."""
    states = {}
    for label, virt_mode, mmu_mode, _pv in MODE_MATRIX[1:]:
        outcome, vm = run_remap(virt_mode, mmu_mode, PTE_OF_VPN_4, pte)
        cpu = vm.vcpus[0].cpu
        states[label] = (outcome, cpu.instret, tuple(cpu.regs))
    outcome, _instret, regs = states["hw+shadow"]
    assert outcome is RunOutcome.SHUTDOWN
    assert (regs[Reg.S0], regs[Reg.S1]) == (s0, ecause)
    assert all(state == states["hw+shadow"] for state in states.values()), states


def test_pte_write_keeping_frame_and_fetch_costs_no_miss():
    """Setting accessed / dirty in the PTE of translated code (what the
    shadow MMU's write-back does) leaves the block cached: as many
    misses as a store to a data page, one fewer than a remap."""
    bt = (VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW)
    misses = {}
    for label, address, value in (
            ("data", 0x30000, 0x1234),
            ("accessed-dirty", PTE_OF_VPN_4,
             0x5003 | PTE_ACCESSED | PTE_DIRTY),
            ("remap", PTE_OF_VPN_4, 0x6003)):
        outcome, vm = run_remap(*bt, address, value)
        assert outcome is RunOutcome.SHUTDOWN
        misses[label] = vm.stats.bt_block_misses
    assert misses["accessed-dirty"] == misses["data"]
    assert misses["remap"] == misses["data"] + 1


# -- the write watch follows a guest page to its host frame ------------------
#
# Paging off, 2 MiB guests. The guest calls f (li a3, 1; ret), which
# translates it, spins until the host sets FLAG, copies g (li a3, 2; ret)
# over f and calls f again: s0 ends at 1 + 2. In between, the host moves
# the guest's pages to other frames. F_OWN puts f on a page of its own,
# F_SHARED on the page of the code that copies over it.

F_OWN, F_SHARED, G, FLAG = 0x2000, 0x1800, 0x3000, 0x4000
SMALL = 2 * MIB


def _copy_over(f):
    return f"""
    li   s0, 0
    li   t0, {f:#x}
    jalr lr, t0
    add  s0, s0, a3
    li   t1, {FLAG:#x}
wait:
    ld   t2, [t1+0]
    beqz t2, wait
    li   t1, {G:#x}
    li   t2, {f:#x}
    ld   t3, [t1+0]
    st   [t2+0], t3
    ld   t3, [t1+4]
    st   [t2+4], t3
    ld   t3, [t1+8]
    st   [t2+8], t3
    li   t0, {f:#x}
    jalr lr, t0
    add  s0, s0, a3
    li   a0, 1
    out  0xf0, a0
"""


SMC_ROWS = {
    "trap-emulate": VirtMode.TRAP_EMULATE,
    "bin-transl": VirtMode.BINARY_TRANSLATION,
    "hw-shadow": VirtMode.HW_ASSIST,
}


def spinning_vm(hv, row, f, name="vm"):
    """A guest of ``row`` that has called f once and now spins on FLAG."""
    vm = hv.create_vm(GuestConfig(name=name, memory_bytes=SMALL,
                                  virt_mode=SMC_ROWS[row],
                                  mmu_mode=MMUVirtMode.SHADOW))
    for base, source in ((0x1000, _copy_over(f)), (f, "li a3, 1\n    ret"),
                         (G, "li a3, 2\n    ret")):
        hv.load_program(vm, Assembler().assemble(
            f".org {base:#x}\n    {source}\n"))
    hv.reset_vcpu(vm, 0x1000)
    assert hv.run(vm, max_guest_instructions=300) is RunOutcome.INSTR_LIMIT
    assert vm.vcpus[0].cpu.regs[Reg.S0] == 1
    return vm


def finish(hv, vm):
    """Let the guest past FLAG and run it to power-off."""
    vm.guest_mem.write_u32(FLAG, 1)
    assert hv.run(vm, max_guest_instructions=10_000) is RunOutcome.SHUTDOWN
    cpu = vm.vcpus[0].cpu
    return (cpu.regs[Reg.S0], cpu.cycles, cpu.instret,
            vm.stats.bt_block_misses, vm.stats.bt_block_hits)


def merged_pair(row, f):
    hv = Hypervisor(memory_bytes=8 * MIB)
    a, b = (spinning_vm(hv, row, f, name) for name in "ab")
    assert PageSharer(hv).scan().pages_merged > 0
    return hv, a, b


def swapped_pair(row, gfns):
    """Two spinning guests; the host swaps out ``(vm name, gfn)`` in
    order, then holds the frame the last one freed."""
    hv = Hypervisor(memory_bytes=8 * MIB)
    vms = {name: spinning_vm(hv, row, F_SHARED, name) for name in "ab"}
    swap = HostSwap(hv)
    for name, gfn in gfns:
        swap.swap_out(vms[name], gfn)
    return hv, vms["a"], vms["b"]


@pytest.mark.parametrize("row", list(SMC_ROWS))
def test_store_into_a_merged_then_copied_code_page(row):
    """The COW break moves f's gfn to a new frame, and the copy stores
    into that one: the translator must watch the new frame."""
    hv, a, _b = merged_pair(row, F_OWN)
    assert finish(hv, a)[0] == 3


@pytest.mark.parametrize("row", list(SMC_ROWS))
def test_store_into_a_swapped_in_code_page(row):
    """Swap-in brings f's page back at another frame."""
    hv = Hypervisor(memory_bytes=8 * MIB)
    vm = spinning_vm(hv, row, F_OWN)
    HostSwap(hv).swap_out(vm, F_OWN >> 12)
    hv.allocator.alloc(zero=False)  # the frame it left stays as it was
    assert finish(hv, vm)[0] == 3


@pytest.mark.parametrize("row", list(SMC_ROWS))
def test_a_frame_a_merged_code_page_left_is_not_watched(row):
    """After the merge, b's old code frame is free; a's COW copy of the
    same page lands in it. b must not see a's writes there."""
    alone = finish(*merged_pair(row, F_SHARED)[::2])
    hv, a, b = merged_pair(row, F_SHARED)
    assert finish(hv, a)[0] == 3
    assert finish(hv, b) == alone
    assert alone[0] == 3


@pytest.mark.parametrize("row", list(SMC_ROWS))
def test_a_frame_a_swapped_code_page_left_is_not_watched(row):
    """b's code page is swapped out after a's page of g; a's swap-in of
    g gets the frame b's code left. b must not see a's writes there."""
    order = [("a", G >> 12), ("b", F_SHARED >> 12)]
    alone = finish(*swapped_pair(row, order)[::2])
    hv, a, b = swapped_pair(row, order)
    assert finish(hv, a)[0] == 3
    assert finish(hv, b) == alone
    assert alone[0] == 3


# -- compiled runs are the walk ----------------------------------------------
#
# Each guest runs twice, every block compiled on its first dispatch and
# with the translator's item walk (``jit_enabled = False``); everything
# simulated must match.


@pytest.fixture
def compile_on_first_visit(monkeypatch):
    monkeypatch.setattr(jitmod, "HOT", 1)
    monkeypatch.setattr(jitmod, "_CODE", {})
    monkeypatch.setattr(jitmod, "_HEADS", set())


def walked_and_compiled(source, prepare=lambda hv, vm: None):
    states = []
    for compiled in (False, True):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = bt_vm(hv)
        cpu = vm.vcpus[0].cpu
        cpu.jit_enabled = compiled
        hv.load_program(vm, Assembler().assemble(".org 0x1000\n" + source))
        hv.reset_vcpu(vm, 0x1000)
        prepare(hv, vm)
        outcome = hv.run(vm, max_guest_instructions=200_000)
        tlb = cpu.mmu.tlb.stats
        stats = vm.stats
        states.append({
            "outcome": outcome, "cycles": cpu.cycles, "instret": cpu.instret,
            "regs": tuple(cpu.regs), "hits": stats.bt_block_hits,
            "chained": stats.bt_chained, "misses": stats.bt_block_misses,
            "tlb": (tlb.hits, tlb.misses, tlb.flushes, tlb.invalidations,
                    tlb.evictions),
        })
    assert vm.bt.runs_compiled > 0
    assert states[0]["outcome"] is RunOutcome.SHUTDOWN
    return states


def test_a_self_looping_run_laps_once_per_dispatch(compile_on_first_visit):
    """The loop's block is one run that branches back to its own start:
    every lap is a dispatch (a hit and a chained dispatch), not a lap
    inside the closure."""
    walked, compiled = walked_and_compiled("""
    li   s0, 50
loop:
    add  s1, s1, s0
    sub  s0, s0, 1
    bnez s0, loop
    li   a0, 1
    out  0xf0, a0
""")
    assert walked["hits"] >= 48 and walked["chained"] >= 47
    assert compiled == walked


def test_an_event_due_inside_a_run_fires_at_its_edge(compile_on_first_visit):
    """A timer event due in the middle of a lap of the loop's run is
    delivered there (the vector records EPC in s2)."""
    def schedule(hv, vm):
        vm.vcpus[0].cpu.events = EventSchedule([(4 + 6 * 5 + 3, IRQ_TIMER_LINE)],
                                               vm.pic, vm.devices["console"])

    walked, compiled = walked_and_compiled("""
    li   a0, vec
    csrw VBAR, a0
    sti
    li   s0, 40
loop:
    add  s1, s1, 1
    add  s1, s1, 2
    add  s1, s1, 3
    add  s1, s1, 4
    sub  s0, s0, 1
    bnez s0, loop
    li   a0, 1
    out  0xf0, a0
vec:
    csrr s2, EPC
    li   a0, 1
    out  0xf0, a0
""", schedule)
    assert walked["regs"][Reg.S1] == 5 * 10 + 1 + 2 + 3
    assert compiled == walked


def test_a_callout_that_rewrites_code_stops_the_block_at_the_next_store(
        compile_on_first_visit):
    """The block's OUT starts a disk read whose DMA lands on f, which is
    translated: the block stops after its next store, which is inside
    the native run that follows the OUT, not at the run's end."""
    def disk(hv, vm):
        image = Assembler().assemble(".org 0x3000\n    li a3, 2\n    ret\n").data
        vm.devices["block"].data[:len(image)] = image
        hv.load_program(vm, Assembler().assemble(
            ".org 0x3000\n    li a3, 1\n    ret\n"))

    walked, compiled = walked_and_compiled("""
    li   t0, 0x3000
    jalr lr, t0
    mov  s0, a3
    li   a0, 0
    out  0x50, a0        ; sector 0
    li   a0, 1
    out  0x51, a0        ; one sector
    li   a0, 0x3000
    out  0x52, a0        ; DMA onto f
    li   t1, 0x8000
    li   a0, 1
    out  0x53, a0        ; read: f is rewritten
    add  s1, s1, 1
    st   [t1+0], s1      ; the block stops here ...
    add  s2, s2, 1       ; ... not after these
    add  s2, s2, 2
    li   t0, 0x3000
    jalr lr, t0
    add  s0, s0, a3
    li   a0, 1
    out  0xf0, a0
""", disk)
    assert walked["regs"][Reg.S0] == 3
    assert compiled == walked
