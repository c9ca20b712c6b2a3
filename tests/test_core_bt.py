"""Binary-translation engine: correctness, caching, chaining, callouts."""

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.cpu.assembler import Assembler
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
    assert cpu.mode == 1  # yet the real core never left user mode


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


def test_invalidate_gfn_drops_translations():
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = bt_vm(hv)
    prog = Assembler().assemble(".org 0x1000\n" + BASIC)
    hv.load_program(vm, prog)
    hv.reset_vcpu(vm, 0x1000)
    hv.run(vm, max_guest_instructions=200_000)
    assert vm.bt.cached_blocks > 0
    vm.bt.invalidate_gfn(1)  # kernel code lives in gfn 1
    assert vm.bt.cached_blocks == 0


def test_flush_clears_everything():
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = bt_vm(hv)
    prog = Assembler().assemble(".org 0x1000\n" + BASIC)
    hv.load_program(vm, prog)
    hv.reset_vcpu(vm, 0x1000)
    hv.run(vm, max_guest_instructions=200_000)
    vm.bt.flush()
    assert vm.bt.cached_blocks == 0


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
    """invalidate_gfn must only drop chains touching the invalidated
    frame's blocks -- not every chain in the engine (regression)."""
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = bt_vm(hv)
    prog = Assembler().assemble(".org 0x1000\n" + TWO_PAGE)
    hv.load_program(vm, prog)
    hv.reset_vcpu(vm, 0x1000)
    # Stop mid-loop: everything is translated and chained by now.
    outcome = hv.run(vm, max_guest_instructions=100)
    assert outcome is RunOutcome.INSTR_LIMIT

    blocks_before = vm.bt.cached_blocks
    chains_before = set(vm.bt._chains)
    assert blocks_before > 0 and chains_before

    # Invalidate the frame holding only `far`; gfn-1 blocks and the
    # chains that link them must survive untouched.
    vm.bt.invalidate_gfn(2)
    assert 0 < vm.bt.cached_blocks < blocks_before
    surviving = set(vm.bt._chains)
    assert surviving  # chained dispatch in gfn 1 still wired up
    assert surviving <= chains_before
    for src_va, dst_va in surviving:
        assert src_va >> 12 != 2 and dst_va >> 12 != 2

    # A frame with no translations at all is a strict no-op.
    blocks_now, chains_now = vm.bt.cached_blocks, set(vm.bt._chains)
    vm.bt.invalidate_gfn(7)
    assert vm.bt.cached_blocks == blocks_now
    assert set(vm.bt._chains) == chains_now

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
