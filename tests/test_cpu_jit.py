"""Differential tests: closure-compiled blocks vs the reference interpreter.

Every test runs the same program twice -- ``CPUCore(jit=False)`` (the
oracle) and ``CPUCore(jit=True)`` -- and asserts the full architectural
state is bit-identical: regs, CSRs, cycles, instret, pc, halted, the
trap sequence, memory, and (when paging) TLB statistics, contents, and
LRU order.

The compiler is tiered: a block head the process has not compiled
before is interpreted until it has been dispatched ``jit.HOT`` times.
So that straight-line programs still exercise compiled code,
``_run_pair`` first *heats* the image -- runs it ``HOT`` times on a
scratch core, after which every head on its path is known to the
process-wide code cache and the measured core compiles it on sight.
(:mod:`tests.test_jit_vmm_parity` holds the same comparison under the
six VMM engine configs.)
"""

import pytest

from repro.cpu import jit as jitmod
from repro.cpu.assembler import Assembler
from repro.cpu.interp import CPUCore, StopReason
from repro.cpu.isa import CSR, Cause, DecodeError, Op, decode, encode
from repro.cpu.mmu import BareMMU
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AddressSpace,
    PTE_PRESENT,
    PTE_WRITABLE,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.mem.tlb import TLB
from repro.util.units import MIB, PAGE_SIZE
from tests.conftest import dev_metrics

VEC = 0x3000


def _make_cpu(jit: bool, tlb_entries: int = 64):
    pm = PhysicalMemory(1 * MIB)
    cpu = CPUCore(BareMMU(pm, CostModel()), jit=jit)
    cpu.mmu.tlb = TLB(tlb_entries)
    cpu.reset(0x1000)
    return cpu, pm


def _snapshot(cpu, pm):
    tlb = cpu.mmu.tlb
    return {
        "regs": tuple(cpu.regs),
        "csr": tuple(cpu.csr),
        "cycles": cpu.cycles,
        "instret": cpu.instret,
        "pc": cpu.pc,
        "halted": cpu.halted,
        "tlb_stats": (
            tlb.stats.hits,
            tlb.stats.misses,
            tlb.stats.evictions,
            tlb.stats.invalidations,
            tlb.stats.flushes,
        ),
        "tlb_lru": tuple(tlb._entries.items()),
        "mem": pm.read_bytes(0, pm.size),
    }


def _load(cpu, pm, image, setup, org=0x1000):
    pm.write_bytes(org, image)
    pm.write_bytes(VEC, encode(Op.HLT))
    cpu.csr[CSR.VBAR] = VEC
    if setup is not None:
        setup(cpu, pm)


def _heat(image, *, setup=None, max_instructions=50_000, org=0x1000,
          tlb_entries=64, cpu=None, pm=None):
    """Dispatch every block head on the image's path ``HOT`` times.

    Runs on a scratch core unless given one; afterwards the heads are
    in the process-wide code cache, so any core compiles them on sight.
    """
    if cpu is None:
        cpu, pm = _make_cpu(True, tlb_entries=tlb_entries)
    for _ in range(jitmod.HOT):
        cpu.reset(org)
        _load(cpu, pm, image, setup, org)
        try:
            cpu.run(max_instructions=max_instructions)
        except Exception:  # the measured pair compares it
            pass
    return cpu


def _run_pair(image, *, setup=None, max_instructions=50_000, org=0x1000,
              tlb_entries=64):
    """Run ``image`` on both engines; assert identical outcomes."""
    _heat(image, setup=setup, max_instructions=max_instructions, org=org,
          tlb_entries=tlb_entries)
    outcomes = []
    cpus = []
    for jit in (False, True):
        cpu, pm = _make_cpu(jit, tlb_entries=tlb_entries)
        _load(cpu, pm, image, setup, org)
        traps = []
        orig = cpu.deliver_trap

        def record(info, _orig=orig, _traps=traps):
            _traps.append((int(info.cause), info.value, info.epc))
            return _orig(info)

        cpu.deliver_trap = record
        error = None
        result = None
        try:
            result = cpu.run(max_instructions=max_instructions)
        except Exception as exc:  # compared, not suppressed
            error = type(exc).__name__
        outcomes.append(
            {
                "stop": result.stop if result else None,
                "error": error,
                "traps": tuple(traps),
                **_snapshot(cpu, pm),
            }
        )
        cpus.append(cpu)
    interp_out, jit_out = outcomes
    for key in interp_out:
        assert interp_out[key] == jit_out[key], f"divergence in {key}"
    return cpus[1], jit_out


def _asm(src: str):
    return Assembler().assemble(src).data


class TestStraightLine:
    def test_alu_block(self):
        image = _asm(
            """
.org 0x1000
    li s0, 123456789
    mul s1, s0, 31
    add s1, s1, s0
    xor s2, s1, s0
    shl s2, s2, 7
    sar t0, s2, 3
    slt t1, t0, s0
    sltu t2, t0, s0
    hlt
"""
        )
        cpu, out = _run_pair(image)
        assert out["stop"] is StopReason.HALT
        assert cpu.jit_stats()["blocks_compiled"] >= 1

    def test_loop_block(self):
        image = _asm(
            """
.org 0x1000
    li s0, 500
    li s1, 0
loop:
    mul s1, s1, 31
    add s1, s1, s0
    sub s0, s0, 1
    bnez s0, loop
    hlt
"""
        )
        cpu, out = _run_pair(image)
        assert out["stop"] is StopReason.HALT
        # The hot loop executes as one compiled block per iteration.
        assert cpu.jit_stats()["blocks_compiled"] >= 2

    def test_mem_ops_paging_off(self):
        image = _asm(
            """
.org 0x1000
    li s0, 0x8000
    li s1, 0xDEADBEEF
    st [s0+0], s1
    ld s2, [s0+0]
    stb [s0+8], s1
    ldb t0, [s0+8]
    st [s0-4], s2
    ld t1, [s0-4]
    hlt
"""
        )
        _run_pair(image)

    def test_jal_jalr_links(self):
        image = _asm(
            """
.org 0x1000
    call sub1
    li t0, 7
    hlt
sub1:
    li s2, 9
    ret
"""
        )
        _, out = _run_pair(image)
        assert out["stop"] is StopReason.HALT
        assert out["regs"][11] == 9 and out["regs"][5] == 7

    def test_div0_trap_mid_block(self):
        image = _asm(
            """
.org 0x1000
    li s0, 99
    li s1, 0
    add s2, s0, 1
    divu t0, s0, s1
    li t1, 1
    hlt
"""
        )
        _, out = _run_pair(image)
        assert len(out["traps"]) == 1
        cause, value, epc = out["traps"][0]
        assert value == 0

    def test_div_by_immediate_zero_falls_back(self):
        # Constant DIV0 is left to the reference path; behaviour must
        # still match exactly.
        image = b"".join(
            [
                encode(Op.MOVI, rd=5, imm32=7),
                encode(Op.DIVU, rd=6, ra=5, imm32=0),
                encode(Op.HLT),
            ]
        )
        _, out = _run_pair(image)
        assert len(out["traps"]) == 1

    def test_instruction_limit_mid_block(self):
        image = _asm(
            """
.org 0x1000
    li s0, 100000
loop:
    add s1, s1, 1
    add s2, s2, 2
    xor t0, s1, s2
    sub s0, s0, 1
    bnez s0, loop
    hlt
"""
        )
        for limit in (1, 2, 3, 7, 50, 101):
            outcomes = []
            for jit in (False, True):
                cpu, pm = _make_cpu(jit)
                pm.write_bytes(0x1000, image)
                result = cpu.run(max_instructions=limit)
                outcomes.append(
                    (result.stop, result.instructions, cpu.cycles,
                     cpu.instret, cpu.pc, tuple(cpu.regs))
                )
            assert outcomes[0] == outcomes[1], f"limit={limit}"
            assert outcomes[0][0] is StopReason.INSTR_LIMIT


class TestSelfModifyingCode:
    def test_store_into_later_block(self):
        # Patch an instruction several blocks ahead, then jump to it.
        patch = int.from_bytes(encode(Op.MOV, rd=5, ra=6), "little")
        image = b"".join(
            [
                encode(Op.MOVI, rd=1, imm32=patch),     # 0x1000
                encode(Op.MOVI, rd=2, imm32=0x1020),    # 0x1008
                encode(Op.ST, ra=2, rb=1, simm12=0),    # 0x1010 patches 0x1020
                encode(Op.JAL, rd=0, imm32=0x1020),     # 0x1014
                encode(Op.NOP),                          # 0x1018
                encode(Op.NOP),                          # 0x101C
                encode(Op.NOP),                          # 0x1020 <- patched
                encode(Op.HLT),                          # 0x1024
            ]
        )

        def setup(cpu, pm):
            cpu.regs[6] = 777

        cpu, out = _run_pair(image, setup=setup)
        assert out["regs"][5] == 777  # the patched MOV executed

    def test_store_into_own_block(self):
        # The store lands *later in the same basic block*: the reference
        # interpreter re-fetches each instruction so it executes the new
        # bytes; the compiled block must bail at the store boundary.
        patch = int.from_bytes(encode(Op.MOV, rd=5, ra=6), "little")
        image = b"".join(
            [
                encode(Op.MOVI, rd=1, imm32=patch),     # 0x1000
                encode(Op.MOVI, rd=2, imm32=0x1014),    # 0x1008
                encode(Op.ST, ra=2, rb=1, simm12=0),    # 0x1010 patches 0x1014
                encode(Op.NOP),                          # 0x1014 <- patched
                encode(Op.HLT),                          # 0x1018
            ]
        )

        def setup(cpu, pm):
            cpu.regs[6] = 4242

        cpu, out = _run_pair(image, setup=setup)
        assert out["regs"][5] == 4242
        assert cpu.jit_stats()["blocks_invalidated"] >= 1

    def test_decode_cache_invalidated_on_code_write(self):
        # Decode is memoised by content and the word is read on every
        # fetch, so rewritten code runs as what is there now -- there is
        # nothing to invalidate, interpreted or compiled.
        old = encode(Op.MOVI, rd=3, imm32=1) + encode(Op.HLT)
        new_word = int.from_bytes(encode(Op.MOVI, rd=4, imm32=1)[:4], "little")
        for jit in (False, True):
            cpu, pm = _make_cpu(jit)
            _heat(old, cpu=cpu, pm=pm)
            assert (cpu.regs[3], cpu.regs[4]) == (1, 0)
            pm.write_u32(0x1000, new_word)
            patched = pm.read_bytes(0x1000, len(old))
            cpu.reset(0x1000)
            cpu.run(max_instructions=10)
            assert (cpu.regs[3], cpu.regs[4]) == (0, 1), f"jit={jit}"
            _heat(patched, cpu=cpu, pm=pm)  # and once it is compiled again
            assert (cpu.regs[3], cpu.regs[4]) == (0, 1), f"jit={jit}"
        assert cpu.jit_stats()["blocks_compiled"] >= 2


class TestDecodeMemo:
    """``isa.decode`` is memoised by content, process-wide."""

    def test_same_content_is_one_object_across_cores(self):
        a, pm_a = _make_cpu(jit=False)
        b, pm_b = _make_cpu(jit=True)
        for code in (encode(Op.ADD, rd=1, ra=2, rb=3),
                     encode(Op.MOVI, rd=5, imm32=0xCAFE)):
            pm_a.write_bytes(0x1000, code)
            pm_b.write_bytes(0x2340, code)
            assert a.fetch(0x1000) is b.fetch(0x2340)
        # The immediate is part of an 8-byte instruction's content.
        pm_b.write_bytes(0x2340, encode(Op.MOVI, rd=5, imm32=0xBEEF))
        assert a.fetch(0x1000).imm32 == 0xCAFE
        assert b.fetch(0x2340).imm32 == 0xBEEF

    def test_decode_error_is_raised_every_time(self):
        cpu, pm = _make_cpu(jit=False)
        pm.write_u32(0x1000, 0x7F << 24)
        for _ in range(2):
            with pytest.raises(DecodeError):
                decode(0x7F << 24)
            with pytest.raises(DecodeError):
                cpu.fetch(0x1000)

    def test_straddling_immediate_is_translated_on_every_fetch(self):
        # The ADD's immediate word is on the next page: its EXEC
        # translation is a TLB touch and a cycle charge of every fetch,
        # memo hit or not. Numbers pinned from before the memo existed
        # (17 touches = 14 instructions + 3 straddling fetches).
        image = b"".join([
            encode(Op.MOVI, rd=10, imm32=3),            # 0x1FF0
            encode(Op.NOP),                              # 0x1FF8 <- loop
            encode(Op.ADD, rd=3, ra=3, imm32=5),         # 0x1FFC | 0x2000
            encode(Op.SUB, rd=10, ra=10, imm32=1),       # 0x2004
            encode(Op.BNE, ra=10, rb=0, imm32=0x1FF8),   # 0x200C
            encode(Op.HLT),                              # 0x2014
        ])
        for jit in (False, True):
            cpu, pm = _make_cpu(jit)
            cpu.reset(0x1FF0)
            pm.write_bytes(0x1FF0, image)
            TestPaging._setup_paging(cpu, pm, pages=0)
            assert cpu.run(max_instructions=100).stop is StopReason.HALT
            assert (cpu.regs[3], cpu.cycles, cpu.instret) == (15, 134, 14)
            assert vars(cpu.mmu.tlb.stats) == {
                "hits": 15, "misses": 2, "flushes": 1,
                "invalidations": 0, "evictions": 0,
            }


class TestPaging:
    @staticmethod
    def _setup_paging(cpu, pm, pages=80, data_va=0x100000):
        allocator = FrameAllocator(pm, reserved_frames=64)
        space = AddressSpace(pm, allocator)
        flags = PTE_PRESENT | PTE_WRITABLE
        # Identity-map low memory (code, vector, stack).
        for page in range(16):
            space.map(page * PAGE_SIZE, page * PAGE_SIZE, flags)
        for i in range(pages):
            frame = allocator.alloc(zero=True)
            space.map(data_va + i * PAGE_SIZE, frame << 12, flags)
        cpu.mmu.set_root(space.root_pa)

    def test_store_walk_differential(self):
        # More mapped pages than TLB entries: the data walks evict TLB
        # entries (including the code page), exercising the epoch guard.
        image = _asm(
            """
.org 0x1000
    li t0, 2
outer:
    li s0, 0x100000
    li s1, 80
loop:
    st [s0+0], s1
    ld s2, [s0+0]
    add s0, s0, 4096
    sub s1, s1, 1
    bnez s1, loop
    sub t0, t0, 1
    bnez t0, outer
    hlt
"""
        )
        cpu, out = _run_pair(image, setup=self._setup_paging)
        assert out["stop"] is StopReason.HALT
        assert out["tlb_stats"][2] > 0  # evictions actually happened

    def test_page_fault_mid_block(self):
        # One unmapped page in the middle of the walk: PF_WRITE must be
        # delivered from inside a compiled block with exact state.
        def setup(cpu, pm):
            allocator = FrameAllocator(pm, reserved_frames=64)
            space = AddressSpace(pm, allocator)
            flags = PTE_PRESENT | PTE_WRITABLE
            for page in range(16):
                space.map(page * PAGE_SIZE, page * PAGE_SIZE, flags)
            space.map(0x100000, allocator.alloc() << 12, flags)
            # 0x101000 deliberately unmapped.
            cpu.mmu.set_root(space.root_pa)

        image = _asm(
            """
.org 0x1000
    li s0, 0x100000
    li s1, 55
    st [s0+0], s1
    ld s2, [s0+0]
    add s0, s0, 4096
    st [s0+0], s1
    li t1, 1
    hlt
"""
        )
        _, out = _run_pair(image, setup=setup)
        assert len(out["traps"]) == 1
        cause, value, _epc = out["traps"][0]
        assert value == 0x101000

    def test_invlpg_differential(self):
        image = _asm(
            """
.org 0x1000
    li s0, 0x100000
    li s1, 3
loop:
    st [s0+0], s1
    invlpg s0
    ld s2, [s0+0]
    sub s1, s1, 1
    bnez s1, loop
    hlt
"""
        )
        _, out = _run_pair(image, setup=self._setup_paging)
        assert out["tlb_stats"][3] > 0  # invalidations happened

    def test_set_root_mid_run(self):
        # Two address spaces alias the same code but different data
        # frames; switching PTBR mid-run must flush the EXEC memo.
        def setup(cpu, pm):
            allocator = FrameAllocator(pm, reserved_frames=64)
            flags = PTE_PRESENT | PTE_WRITABLE
            roots = []
            for _ in range(2):
                space = AddressSpace(pm, allocator)
                for page in range(16):
                    space.map(page * PAGE_SIZE, page * PAGE_SIZE, flags)
                space.map(0x100000, allocator.alloc(zero=True) << 12, flags)
                roots.append(space.root_pa)
            cpu.mmu.set_root(roots[0])
            cpu.regs[12] = roots[1]  # fp holds the second root

        image = _asm(
            """
.org 0x1000
    li s0, 0x100000
    li s1, 11
    st [s0+0], s1
    csrw PTBR, fp
    li s1, 22
    st [s0+0], s1
    ld s2, [s0+0]
    hlt
"""
        )
        _, out = _run_pair(image, setup=setup)
        assert out["stop"] is StopReason.HALT
        assert out["regs"][11] == 22  # load came from the *second* space


class TestInlineCacheEdges:
    """Edge cases of the compiled-block inline-cache fast path."""

    def test_guard_bailout_replays_tail_exactly_once(self):
        # TLB capacity 4 but six data pages touched by one straight-line
        # block: the data walks evict the code-page entry mid-block, the
        # code-page guard trips after the slow-path translate, and the
        # tail of the block replays through the dispatcher. Cycles, TLB
        # stats, and memory must come out identical -- the replayed ops
        # must be charged exactly once.
        image = _asm(
            """
.org 0x1000
    li t1, 77
    li s0, 0x100000
    st [s0+0], t1
    add s0, s0, 4096
    st [s0+0], t1
    add s0, s0, 4096
    st [s0+0], t1
    add s0, s0, 4096
    st [s0+0], t1
    add s0, s0, 4096
    st [s0+0], t1
    add s0, s0, 4096
    st [s0+0], t1
    add t1, t1, 1
    hlt
"""
        )
        cpu, out = _run_pair(
            image,
            setup=lambda c, p: TestPaging._setup_paging(c, p, pages=8),
            tlb_entries=4,
        )
        assert out["stop"] is StopReason.HALT
        assert out["tlb_stats"][2] > 0  # evictions actually happened
        assert cpu.jit_stats()["blocks_compiled"] > 0

    def test_self_loop_under_constant_code_page_eviction(self):
        # The inner loop is a self-looping compiled block whose data
        # walk keeps evicting its own code page from the 4-entry TLB,
        # so it can never settle into the in-closure loop for long.
        image = _asm(
            """
.org 0x1000
    li t0, 6
outer:
    li s0, 0x100000
    li s1, 6
page:
    st [s0+0], s1
    ld s2, [s0+0]
    add s0, s0, 4096
    sub s1, s1, 1
    bnez s1, page
    sub t0, t0, 1
    bnez t0, outer
    hlt
"""
        )
        cpu, out = _run_pair(
            image,
            setup=lambda c, p: TestPaging._setup_paging(c, p, pages=8),
            tlb_entries=4,
        )
        assert out["stop"] is StopReason.HALT
        assert out["tlb_stats"][2] > 0
        assert cpu.jit_stats()["blocks_compiled"] > 0

    def test_epoch_counter_overflow(self):
        # TLB epochs only ever increment; pre-seed the counter just
        # below 2**63 so the eviction-heavy run carries it across the
        # boundary while compiled blocks are live. Python ints don't
        # wrap, but the compiled code must keep agreeing with the
        # interpreter while epochs exceed any fixed word size.
        def setup(cpu, pm):
            TestPaging._setup_paging(cpu, pm, pages=8)
            cpu.mmu.tlb.epoch = (1 << 63) - 2

        image = _asm(
            """
.org 0x1000
    li t0, 4
outer:
    li s0, 0x100000
    li s1, 8
page:
    st [s0+0], s1
    add s0, s0, 4096
    sub s1, s1, 1
    bnez s1, page
    sub t0, t0, 1
    bnez t0, outer
    hlt
"""
        )
        cpu, out = _run_pair(image, setup=setup, tlb_entries=4)
        assert out["stop"] is StopReason.HALT
        assert cpu.mmu.tlb.epoch >= (1 << 63)

    # -- warm-state resume (migration / micro-reboot analogues) -----------

    _RESUME_IMAGE = """
.org 0x1000
    li t0, 12
outer:
    li s0, 0x100000
    li s1, 20
page:
    st [s0+0], s1
    ld s2, [s0+0]
    add s0, s0, 4096
    sub s1, s1, 1
    bnez s1, page
    sub t0, t0, 1
    bnez t0, outer
    hlt
"""

    @classmethod
    def _boot(cls, image):
        cpu, pm = _make_cpu(jit=True)
        pm.write_bytes(0x1000, image)
        pm.write_bytes(VEC, encode(Op.HLT))
        cpu.csr[CSR.VBAR] = VEC
        TestPaging._setup_paging(cpu, pm)
        return cpu, pm

    @staticmethod
    def _restore_into(dst_cpu, dst_pm, src_cpu, src_pm):
        """Copy full simulated state, the way ``restore_vm`` does for
        architectural state -- plus TLB/walker state, which at this
        layer is part of the deterministic contract."""
        dst_pm.write_bytes(0, src_pm.read_bytes(0, src_pm.size))
        dst_cpu.regs = list(src_cpu.regs)
        dst_cpu.pc = src_cpu.pc
        dst_cpu.csr = list(src_cpu.csr)
        dst_cpu.cycles = src_cpu.cycles
        dst_cpu.instret = src_cpu.instret
        dst_cpu.halted = src_cpu.halted
        dst_cpu.mmu.root_pa = src_cpu.mmu.root_pa
        dst_cpu.mmu.tlb_active = src_cpu.mmu.tlb_active
        dst_tlb, src_tlb = dst_cpu.mmu.tlb, src_cpu.mmu.tlb
        # In-place: the compiled fast path holds bound references to
        # the entry table.
        dst_tlb._entries.clear()
        dst_tlb._entries.update(src_tlb._entries)
        dst_tlb.epoch = src_tlb.epoch
        for f in ("hits", "misses", "flushes", "invalidations", "evictions"):
            setattr(dst_tlb.stats, f, getattr(src_tlb.stats, f))
        dst_cpu.mmu.walker.walks = src_cpu.mmu.walker.walks
        dst_cpu.mmu.walker.faults = src_cpu.mmu.walker.faults

    def test_warm_ic_continuation_equals_cold_resume(self):
        # Live-migration resume analogue: stop mid-workload with warm
        # inline caches, clone the full state into a never-run core
        # (whose JIT is cold, as after restore_vm), finish both. The
        # warm ICs must be pure cache: final state bit-identical.
        image = _asm(self._RESUME_IMAGE)
        warm, warm_pm = self._boot(image)
        warm.run(max_instructions=500)
        assert not warm.halted
        assert warm.jit_stats()["blocks_compiled"] > 0  # ICs are warm
        cold, cold_pm = self._boot(image)
        self._restore_into(cold, cold_pm, warm, warm_pm)
        warm.run(max_instructions=50_000)
        cold.run(max_instructions=50_000)
        assert _snapshot(warm, warm_pm) == _snapshot(cold, cold_pm)

    def test_restore_over_warm_core_invalidates_stale_ics(self):
        # Micro-reboot analogue with a twist: the receiving core has
        # *already* compiled blocks and trained ICs for the same code
        # pages. Restoring rewrites guest memory, which must fire the
        # code-page write watcher and invalidate every stale block; the
        # rebooted core then has to agree with an uninterrupted run.
        image = _asm(self._RESUME_IMAGE)
        ref, ref_pm = self._boot(image)
        ref.run(max_instructions=50_000)
        assert ref.halted

        warm, warm_pm = self._boot(image)
        warm.run(max_instructions=500)
        target, target_pm = self._boot(image)
        target.run(max_instructions=300)  # trains ICs at a *different* point
        assert target.jit_stats()["blocks_compiled"] > 0
        self._restore_into(target, target_pm, warm, warm_pm)
        target.run(max_instructions=50_000)
        assert _snapshot(target, target_pm) == _snapshot(ref, ref_pm)


class TestEngineManagement:
    def test_jit_disabled_never_compiles(self):
        cpu, pm = _make_cpu(jit=False)
        pm.write_bytes(0x1000, encode(Op.MOVI, rd=3, imm32=5))
        pm.write_bytes(0x1008, encode(Op.HLT))
        cpu.run(max_instructions=100)
        stats = cpu.jit_stats()
        assert stats["enabled"] == 0 and stats["active"] == 0
        assert stats["blocks_compiled"] == 0

    _TINY = encode(Op.MOVI, rd=3, imm32=5) + encode(Op.HLT)

    def _costed_cpu(self, costs, jit):
        pm = PhysicalMemory(1 * MIB)
        cpu = CPUCore(BareMMU(pm, costs), jit=jit)
        cpu.reset(0x1000)
        return cpu, pm

    def test_miss_cost_reaches_code_compiled_at_another(self):
        # A self-looping paging block compiled (process-wide) at one miss
        # cost must charge another's on a core built with it: the worst-
        # case charge embeds it too. 80 pages through a 64-entry TLB:
        # every iteration's store walks.
        import dataclasses

        image = _asm(
            """
.org 0x1000
    li s0, 0x100000
    li s1, 80
loop:
    st [s0+0], s1
    add s0, s0, 4096
    sub s1, s1, 1
    bnez s1, loop
    hlt
"""
        )
        costs = dataclasses.replace(CostModel(), mem_ref_cycles=77)
        assert costs.tlb_miss_cycles != CostModel().tlb_miss_cycles
        warm, warm_pm = _make_cpu(True)
        _load(warm, warm_pm, image, TestPaging._setup_paging)
        warm.run(max_instructions=50_000)  # compiles at the default cost
        assert warm.halted and warm.jit_stats()["blocks_compiled"] > 0
        cycles = []
        for jit in (False, True):
            cpu, pm = self._costed_cpu(costs, jit)
            _load(cpu, pm, image, TestPaging._setup_paging)
            cpu.run(max_instructions=50_000)
            assert cpu.halted
            cycles.append(cpu.cycles)
        assert cycles[0] == cycles[1]

    def test_system_charge_reaches_a_block_ending_in_out(self):
        # A block that ends in a system instruction embeds that row's
        # extra charge (io_port_cycles, iret_cycles) as a literal, so
        # the cost signature covers every OPS row: a model that differs
        # in nothing else must still get its own compiled code.
        import dataclasses

        image = _asm(
            """
.org 0x1000
    li s0, 60
loop:
    add s1, s1, s0
    out 0x10, s1
    sub s0, s0, 1
    bnez s0, loop
    hlt
"""
        )
        costs = dataclasses.replace(
            CostModel(), io_port_cycles=CostModel().io_port_cycles + 7)
        warm, warm_pm = _make_cpu(True)
        _load(warm, warm_pm, image, None)
        warm.run(max_instructions=50_000)  # compiles at the default cost
        assert warm.halted and warm.jit_stats()["blocks_compiled"] > 0
        cycles = []
        for jit in (False, True):
            cpu, pm = self._costed_cpu(costs, jit)
            _load(cpu, pm, image, None)
            cpu.run(max_instructions=50_000)
            assert cpu.halted
            cycles.append(cpu.cycles)
        assert cycles[0] == cycles[1]

    def test_decode_cache_bounded_eviction(self, monkeypatch):
        import repro.cpu.isa as isa

        monkeypatch.setattr(isa, "_DECODED_MAX", 32)
        isa.DECODED.clear()  # whatever earlier tests left: it is a memo
        cpu, pm = _make_cpu(jit=False)
        # 64 distinct MOVI instructions then HLT: twice the bound, so
        # the memo is cleared mid-run and refilled.
        addr = 0x1000
        for i in range(64):
            pm.write_bytes(addr, encode(Op.MOVI, rd=3, imm32=i))
            addr += 8
        pm.write_bytes(addr, encode(Op.HLT))
        for i in range(64):
            cpu.step()
            assert cpu.regs[3] == i
            assert len(isa.DECODED) <= 32
        result = cpu.run(max_instructions=1000)
        assert result.stop is StopReason.HALT
        assert cpu.instret == 65

    def test_mid_run_invalidation_then_recompile(self):
        cpu, pm = _make_cpu(jit=True)
        _heat(self._TINY, cpu=cpu, pm=pm)
        compiled_before = cpu.jit_stats()["blocks_compiled"]
        assert compiled_before >= 1
        # External write to the code page (e.g. DMA) drops the block...
        patched = encode(Op.MOVI, rd=3, imm32=9) + encode(Op.HLT)
        pm.write_bytes(0x1000, patched)
        assert cpu.jit_stats()["blocks_invalidated"] >= 1
        # ...the new code runs at once (interpreted while it is cold)...
        cpu.reset(0x1000)
        cpu.run(max_instructions=100)
        assert cpu.regs[3] == 9
        # ...and is recompiled once it is hot again.
        _heat(patched, cpu=cpu, pm=pm)
        assert cpu.regs[3] == 9
        assert cpu.jit_stats()["blocks_compiled"] > compiled_before


class TestHotnessTier:
    """Unknown heads are interpreted until hot; known ones never are."""

    @pytest.fixture(autouse=True)
    def _empty_code_cache(self, monkeypatch):
        monkeypatch.setattr(jitmod, "_CODE", {})
        monkeypatch.setattr(jitmod, "_HEADS", set())

    _LOOP = """
.org 0x1000
    li s0, {n}
loop:
    add s1, s1, s0
    sub s0, s0, 1
    bnez s0, loop
    hlt
"""

    def _run(self, n):
        cpu, pm = _make_cpu(jit=True)
        pm.write_bytes(0x1000, _asm(self._LOOP.format(n=n)))
        cpu.run(max_instructions=10_000)
        assert cpu.halted
        return cpu.jit_stats()

    def test_run_once_code_never_compiles(self):
        stats = self._run(jitmod.HOT - 1)  # HOT-1 laps
        assert stats["blocks_compiled"] == 0
        # One probe a cold block entry, not one an instruction: the
        # li's block takes the first lap with it, each later lap is an
        # entry of the loop head's, then the HLT's.
        assert stats["cold_steps"] == 1 + (jitmod.HOT - 2) + 1
        assert stats["fallback_steps"] == 0
        assert not jitmod._CODE

    def test_head_compiles_on_its_hot_th_dispatch(self):
        stats = self._run(200)
        assert stats["blocks_compiled"] == 1  # the loop, nothing else
        # The li's block (lap 1 with it), HOT-1 cold entries of the loop
        # head (it compiles on the HOT-th and loops in place), then the
        # HLT's head, entered once.
        assert stats["cold_steps"] == 1 + (jitmod.HOT - 1) + 1

    def test_known_head_compiles_on_sight_from_the_shared_cache(self, monkeypatch):
        self._run(200)
        assert len(jitmod._CODE) == 1
        compiles = []
        real = jitmod._emit_block
        monkeypatch.setattr(
            jitmod, "_emit_block",
            lambda *a: compiles.append(a) or real(*a))
        stats = self._run(200)  # a second core, same image
        assert stats["blocks_compiled"] == 1 and not compiles
        # The li's block takes the first lap with it; the HLT's head.
        assert stats["cold_steps"] == 2

    def test_cores_sharing_code_keep_their_own_inline_caches(self):
        image = _asm(
            """
.org 0x1000
    li s0, 0x100000
    li s1, 40
loop:
    st [s0+0], s1
    ld s2, [s0+0]
    sub s1, s1, 1
    bnez s1, loop
    hlt
"""
        )
        cores = []
        for _ in range(2):
            cpu, pm = _make_cpu(jit=True)
            _load(cpu, pm, image, TestPaging._setup_paging)
            cpu.run(max_instructions=10_000)
            assert cpu.halted
            cores.append(cpu)
        assert len(jitmod._CODE) == 1
        a, b = (next(iter(c._jit._blocks.values()))[0] for c in cores)
        assert a is not b and a.__code__ is b.__code__
        ics = [dict(zip(f.__code__.co_freevars,
                        (c.cell_contents for c in f.__closure__)))["_ic"]
               for f in (a, b)]
        assert ics[0] is not ics[1]
        assert all(c.jit_stats()["ic_hits"] > 0 for c in cores)

    def test_code_cache_is_entry_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(jitmod, "CODE_CACHE_MAX", 2)
        costs = CostModel()

        def block(k):
            ins = jitmod.decode(
                int.from_bytes(encode(Op.ADD, rd=1, ra=1, rb=2), "little"))
            return [(ins, 0x1000 + 4 * k)]

        for k in (0, 1):
            jitmod._block_code(costs, block(k), head=("h", k))
        jitmod._block_code(costs, block(0), head=("h", 0))  # touch
        jitmod._block_code(costs, block(2), head=("h", 2))
        assert len(jitmod._CODE) == 2
        assert jitmod._HEADS == {("h", 0), ("h", 2)}  # 1 was the oldest


class TestColdRuns:
    """A cold head costs one probe: its block is stepped to the end,
    every instruction behind the dispatcher's full loop-top, and the
    JIT is asked again only where that run ends."""

    @pytest.fixture(autouse=True)
    def _empty_code_cache(self, monkeypatch):
        monkeypatch.setattr(jitmod, "_CODE", {})
        monkeypatch.setattr(jitmod, "_HEADS", set())

    #: Ten straight-line instructions and a HLT: one block, never hot.
    _LINE = """
.org 0x1000
    li s0, 3
    add s1, s0, 4
    mul s2, s1, 5
    xor t0, s2, s1
    sub t1, t0, 1
    shl t2, t1, 2
    add s1, s1, t2
    or s2, s2, s0
    add t0, t0, t1
    sub t2, t2, 9
    hlt
"""
    _VECTOR = "    add k0, k0, 1\n    iret\n"

    @staticmethod
    def _spy(cpu):
        """The list of every pc ``cpu``'s dispatcher asks its JIT about."""
        probed = []
        engine = cpu._jit = jitmod.BlockJIT(cpu)
        real = engine.lookup
        engine.lookup = lambda pc, mode: probed.append(pc) or real(pc, mode)
        return probed

    def _pair(self, source, setup=None, **run_kwargs):
        """Run ``source`` on both engines; return the compiled core, the
        pcs it probed, and the (asserted equal) outcome."""
        outcomes = []
        for jit in (False, True):
            cpu, pm = _make_cpu(jit)
            pm.write_bytes(0x1000, _asm(source))
            pm.write_bytes(VEC, _asm(".org 0x3000\n" + self._VECTOR))
            cpu.csr[CSR.VBAR] = VEC
            probed = self._spy(cpu) if jit else []
            if setup is not None:
                setup(cpu)
            result = cpu.run(**run_kwargs)
            outcomes.append((result.stop, result.instructions, result.cycles,
                             sorted(c.name for c in cpu.pending_irqs),
                             _snapshot(cpu, pm)))
        assert outcomes[0] == outcomes[1]
        return cpu, probed, outcomes[1]

    def test_budgets_end_inside_a_cold_run_on_the_interpreters_edge(self):
        for limit in range(1, 12):
            cpu, probed, out = self._pair(self._LINE, max_instructions=limit)
            assert probed == [0x1000], limit  # one probe, however far it got
            assert out[1] == limit
        stops = set()
        for budget in range(1, 60, 3):
            _cpu, probed, out = self._pair(self._LINE, max_cycles=budget)
            assert probed == [0x1000], budget
            stops.add(out[0])
        assert stops == {StopReason.CYCLE_LIMIT, StopReason.HALT}

    @pytest.mark.parametrize("deprivileged", [False, True])
    def test_event_due_inside_a_cold_run(self, deprivileged):
        from repro.devices.irq import IRQ_TIMER_LINE, InterruptController
        from repro.devices.schedule import EventSchedule

        class VirqQueue(set):  # a deprivileged guest's, for its VMM
            def assert_irq(self, cause):
                self.add(cause)

        def setup(cpu):
            cpu.csr[CSR.IE] = 1
            if deprivileged:
                cpu.virqs = VirqQueue()
            cpu.events = EventSchedule(
                [(4, IRQ_TIMER_LINE)],
                InterruptController(cpu.virqs if deprivileged else cpu, dev_metrics()),
                None)

        cpu, probed, out = self._pair(self._LINE, setup, max_instructions=100)
        if deprivileged:
            # The virq is left pending at edge 4: the VMM's to inject.
            assert out[0] is StopReason.EVENT and out[1] == 4
            assert probed == [0x1000] and cpu.virqs == {Cause.IRQ_TIMER}
        else:
            # Delivered at edge 4: the vector's block, then the rest of
            # the line from where the handler returned to.
            assert out[0] is StopReason.HALT and cpu.regs[15] == 1
            assert probed[:2] == [0x1000, VEC] and len(probed) == 3

    def test_irq_made_pending_before_an_sti_inside_the_line(self):
        source = self._LINE.replace("    xor t0, s2, s1\n",
                                    "    xor t0, s2, s1\n    sti\n")
        cpu, probed, out = self._pair(
            source, lambda cpu: cpu.assert_irq(Cause.IRQ_TIMER),
            max_instructions=100)
        assert out[0] is StopReason.HALT and cpu.regs[15] == 1
        assert probed[1] == VEC  # taken at the edge right after the STI

    def test_a_taken_branch_and_a_trap_end_the_run(self):
        taken = """
.org 0x1000
    li s0, 3
    add s1, s0, 4
    beq s0, s0, over
    add s1, s1, 100         ; skipped
over:
    add s2, s1, 1
    hlt
"""
        cpu, probed, _ = self._pair(taken, max_instructions=100)
        over = 0x1000 + 8 + 8 + 8 + 8
        assert probed == [0x1000, over] and cpu.regs[11] == 8
        trap = """
.org 0x1000
    li s0, 3
    divu s1, s0, s2         ; s2 = 0: DIV0
    add s2, s1, 1
    hlt
"""
        cpu, probed, _ = self._pair(trap, max_instructions=100)
        # The vector's block; IRET lands back on the DIVU, which is cold
        # too and traps again... until the budget: two probes a lap.
        assert probed[:3] == [0x1000, VEC, 0x1008]
        assert cpu.regs[15] > 1

    def test_a_trap_to_a_vector_further_down_the_page_ends_the_run(self):
        # Not the sequential successor, though straight ahead on the page.
        source = """
.org 0x1000
    li s0, 3
    divu s1, s0, s2         ; s2 = 0: DIV0
    add s2, s1, 1
    hlt
vec:
    add k0, k0, 1
    hlt
"""
        vec = Assembler().assemble(source).symbols["vec"]
        cpu, probed, _ = self._pair(
            source, lambda cpu: cpu.csr.__setitem__(CSR.VBAR, vec),
            max_instructions=100)
        assert probed == [0x1000, vec] and cpu.regs[15] == 1

    def test_a_store_that_rewrites_the_next_instruction_is_what_runs(self):
        # Nothing of a cold run is kept but where to ask again: every
        # instruction is fetched by step(), so the new word executes.
        # The add below becomes a sub (its immediate word stays).
        new = int.from_bytes(encode(Op.SUB, rd=11, ra=11, imm32=0)[:4], "little")
        source = f"""
.org 0x1000
    li s0, {new}
    li s1, patch
    st [s1+0], s0
patch:
    add s2, s2, 1000
    hlt
"""
        cpu, probed, _ = self._pair(source, max_instructions=100)
        assert cpu.regs[11] == -1000 & 0xFFFFFFFF and probed == [0x1000]

    def test_a_vmexit_ends_the_run(self):
        from repro.core.policies import HW_ASSIST_NESTED

        source = """
.org 0x1000
    li s0, 3
    out 0x10, s0
    add s1, s0, 4
    hlt
"""
        for jit in (False, True):
            cpu, pm = _make_cpu(jit)
            pm.write_bytes(0x1000, _asm(source))
            cpu.controls = HW_ASSIST_NESTED
            seen = []

            def service(reason, _ins, pc, _arg, cpu=cpu, seen=seen):
                # The core ran the OUT / HLT before calling: nothing to do.
                seen.append((reason.value, pc, cpu.instret))
                return True

            probed = self._spy(cpu) if jit else []
            cpu.run(max_instructions=100, on_exit=service)
            assert seen == [("io_out", 0x1008, 2), ("hlt", 0x1014, 4)]
            assert cpu.halted and cpu.regs[10] == 7
        # An intercepted OUT does not end the cold run: one probe (was
        # [0x1000, 0x100C] while OUT ended a block and so the run).
        assert probed == [0x1000]

    def test_heat_counts_block_entries_not_instructions(self):
        laps = jitmod.HOT - 2
        source = TestHotnessTier._LOOP.format(n=laps)
        cpu, probed, out = self._pair(source, max_instructions=10_000)
        assert out[0] is StopReason.HALT
        assert out[1] == 1 + 3 * laps + 1  # what was interpreted ...
        assert len(probed) == laps + 1  # ... for one probe a block entry
        assert cpu.jit_stats()["blocks_compiled"] == 0

    def test_a_cold_extent_is_the_block_compile_builds(self, monkeypatch):
        # The compiler says what ends a block (``BlockJIT._compile``);
        # the dispatcher ends a cold run by what the instruction it just
        # stepped was. Random decodable code, heads all over the page:
        # short lines, lines longer than MAX_BLOCK_INSTRUCTIONS, lines
        # cut by the page end, with and without an instruction that
        # straddles it. Each head gets a fresh engine, so no other head
        # is heating, and a stand-in ``step`` that runs every instruction
        # as straight-line code, so only the instruction's kind (never a
        # taken branch, a trap or a wild access) can end the run.
        import random

        built = []
        real = jitmod._block_code

        def spy(costs, items, **kwargs):
            built.append(items)
            return real(costs, items, **kwargs)

        class Asked(Exception):
            """The dispatcher probed again: the cold run is over."""

        monkeypatch.setattr(jitmod, "_block_code", spy)
        rng = random.Random(23)
        enders = [Op.JAL, Op.BEQ, Op.JALR, Op.OUT, Op.SYSCALL, Op.HLT, Op.IRET]
        plain = [Op.ADD, Op.XOR, Op.MUL, Op.LD, Op.ST, Op.MOVI, Op.NOP]
        straddled = 0
        for _ in range(15):
            cpu, pm = _make_cpu(True)
            code = bytearray()
            while len(code) < 2 * PAGE_SIZE:
                op = rng.choice(enders if rng.random() < 0.04 else plain)
                imm = rng.getrandbits(32) if rng.random() < 0.4 else None
                code += encode(op, rd=rng.randrange(16), ra=rng.randrange(16),
                               rb=rng.randrange(16), imm32=imm)
            pm.write_bytes(0x1000, bytes(code))

            def straight(cpu=cpu):
                ins = cpu.fetch(cpu.pc)
                cpu.pc += ins.length
                cpu.instret += 1
                return ins

            cpu.step = straight
            va = 0x1000
            while va < 0x1000 + PAGE_SIZE:
                length = 8 if pm.read_u8(va + 3) & 0x80 else 4
                if rng.random() < 0.1 or va + length >= 0x1000 + PAGE_SIZE - 8:
                    engine = cpu._jit = jitmod.BlockJIT(cpu)
                    probed = []

                    def lookup(pc, mode, real=engine.lookup, probed=probed):
                        probed.append(pc)
                        if len(probed) > 1:
                            raise Asked
                        return real(pc, mode)

                    engine.lookup = lookup
                    cpu.pc = va
                    with pytest.raises(Asked):
                        cpu.run(max_instructions=100)
                    assert probed[0] == va and engine.cold_steps == 1
                    del built[:]
                    blk = engine._compile((va, va, False), va, va, False, None)
                    items = built[0] if blk else []
                    assert not items or items[0][1] == va
                    end = va + sum(ins.length for ins, _v in items)
                    assert end <= 0x1000 + PAGE_SIZE
                    in_line = not items or items[-1][0].op <= jitmod.LAST_MEM_OP
                    if (in_line and len(items) < jitmod.MAX_BLOCK_INSTRUCTIONS
                            and end + 8 > 0x1000 + PAGE_SIZE > end
                            and pm.read_u8(end + 3) & 0x80):
                        # The block stops short of an instruction that
                        # straddles the page, which no block can hold:
                        # the run steps it too and ends past the page.
                        straddled += 1
                        end += 8
                    assert probed[1] == end
                va += length
        assert straddled

    def test_a_run_stops_at_a_head_already_heating(self):
        # ``over`` heats first (the jump); the run from ``start`` then
        # reaches it in line and must stop there, so its second entry is
        # probed -- the block from ``start`` ends before it.
        source = """
.org 0x1000
    jal zero, over
start:
    add s1, s1, 1
over:
    add s2, s2, 1
    bnez s1, done
    jal zero, start
done:
    hlt
"""
        _cpu, probed, _ = self._pair(source, max_instructions=100)
        at = Assembler().assemble(source).symbols
        start, over, done = at["start"], at["over"], at["done"]
        assert probed == [0x1000, over, done - 8, start, over, done]

    def test_tlb_miss_fallback_takes_one_step_and_asks_again(self):
        # No EXEC translation cached: not "cold" -- compiled code may
        # start at the very next pc -- so one step, then a fresh probe.
        cpu, probed, _ = self._pair(
            self._LINE, lambda cpu: TestPaging._setup_paging(cpu, cpu.mmu.physmem, 0),
            max_instructions=100)
        assert probed == [0x1000, 0x1008]
        stats = cpu.jit_stats()
        assert (stats["fallback_steps"], stats["cold_steps"]) == (1, 1)


class TestCompiledMatchesOracleOnWorkloads:
    @pytest.mark.parametrize("workload_name,args", [
        ("cpu_bound", (400,)),
        ("memtouch", (8, 2)),
        ("syscall_storm", (25,)),
    ])
    def test_native_nanoos_differential(self, workload_name, args):
        from repro.core.machine import Machine
        from repro.guest import KernelOptions, boot_native, build_kernel
        from repro.guest import workloads

        kernel = build_kernel(
            KernelOptions(pv=False, memory_bytes=16 * MIB, timer_period=0)
        )
        workload = getattr(workloads, workload_name)(*args)
        states = []
        for jit in (False, True):
            machine = Machine(memory_bytes=16 * MIB, jit=jit)
            diag = boot_native(machine, kernel, workload)
            tlb = machine.mmu.tlb
            states.append(
                (
                    diag,
                    machine.cpu.cycles,
                    machine.cpu.instret,
                    tuple(machine.cpu.regs),
                    tuple(machine.cpu.csr),
                    (tlb.stats.hits, tlb.stats.misses, tlb.stats.evictions),
                    tuple(tlb._entries.items()),
                )
            )
        assert states[0] == states[1]
