"""The write log: recycling zeroes exactly the frames a case wrote.

``Hypervisor.recycle_vm`` and the fuzzer's bare pool zero only the
frames their :class:`~repro.mem.physmem.WriteLog` saw stored to, and a
run's ``mem`` reads only those. That is exact as long as every store
reaches ``PhysicalMemory._notify``. Held here four ways: one test per
store route (each frame it writes is logged, and zero after the next
recycle on the log's path), a source check that no other module writes
the bytes, an oracle over generated cases (every guest frame reads zero
after every recycle), and the fallback when a gfn was re-backed.
"""

import ast
import pathlib

import pytest

from repro.core.hypervisor import HypercallNumbers, RunOutcome
from repro.cpu import jit as jitmod
from repro.cpu.assembler import Assembler
from repro.cpu.interp import CPUCore
from repro.cpu.mmu import BareMMU
from repro.devices.virtio import BLK_T_READ, OFF_KICK, VIRTIO_BLK_BASE
from repro.fuzz import diff, gen
from repro.mem.costs import CostModel
from repro.mem.paging import (
    PTE_ACCESSED, PTE_DIRTY, PTE_PRESENT, PTE_WRITABLE, make_pte,
)
from repro.mem.physmem import ZERO_PAGE
from repro.util.units import PAGE_SHIFT, PAGE_SIZE
from tests.test_devices_virtio import DATA as VIRTIO_DATA
from tests.test_devices_virtio import blk_request, configure, publish
from tests.test_fuzz_recycle import CONFIGS, _case, _run

#: A page no setup below writes: only the route under test stores here.
DATA = 0x50000
ROOT, LEAF = 0x20000, 0x21000  # the guest page tables of the paging tests


def _forget(log, frames):
    """Have ``log`` forget that setup stored to ``frames``: only the route
    under test can log them again, and unlogged they would survive."""
    for pfn in frames:
        if pfn in log.written:
            log.written.remove(pfn)
            log.unwritten.add(pfn)


def _assert_logged_then_zeroed(hv, vm, gfns):
    """Each of ``gfns`` holds what the route stored and its frame is
    logged; the next recycle keeps the log (the map is the one it was
    made over, so only logged frames are zeroed) and zeroes it."""
    hfns = [vm.guest_mem.map[gfn] for gfn in gfns]
    log = vm.guest_mem.write_log
    for hfn in hfns:
        assert hv.physmem.read_frame(hfn) != ZERO_PAGE
        assert hfn in log.written and hfn not in log.unwritten
    assert len(log.written) < len(log.frames)
    assert hv.recycle_vm(vm).guest_mem.write_log is log
    assert all(hv.physmem.read_frame(hfn) == ZERO_PAGE for hfn in hfns)


def _run_program(hv, vm, source, jit=True):
    image = Assembler().assemble(".org 0x1000\n" + source + "    hlt\n")
    hv.load_program(vm, image)
    hv.reset_vcpu(vm, image.entry)
    vm.vcpus[0].cpu.jit_enabled = jit
    assert hv.run(vm, max_guest_instructions=10_000) is RunOutcome.HALTED


def _page_tables(write_u32, flags):
    """Identity-map guest pages 0-255 through ROOT / LEAF."""
    write_u32(ROOT, make_pte(LEAF >> PAGE_SHIFT, PTE_PRESENT | PTE_WRITABLE | flags))
    for vpn in range(gen.MEM_BYTES >> PAGE_SHIFT):
        write_u32(LEAF + 4 * vpn, make_pte(vpn, PTE_PRESENT | PTE_WRITABLE | flags))


#: Paging on, one store: the walk sets accessed bits in ROOT and LEAF,
#: and the dirty bit of DATA's PTE.
PAGED_STORE = f"""
    li   t0, {ROOT:#x}
    csrw PTBR, t0
    li   t0, {DATA:#x}
    li   t1, 0x5a
    st   [t0+0], t1
"""


# -- one test per store route ----------------------------------------------


@pytest.mark.parametrize("op", ["st", "stb"])
def test_an_interpreted_store_is_logged(op):
    hv, vm = diff.build_machine("hw-nested")
    _run_program(hv, vm, f"    li t0, {DATA:#x}\n    li t1, 0x5a\n"
                         f"    {op} [t0+0], t1\n", jit=False)
    _assert_logged_then_zeroed(hv, vm, [DATA >> PAGE_SHIFT])


def test_a_compiled_store_is_logged(monkeypatch):
    monkeypatch.setattr(jitmod, "HOT", 1)
    monkeypatch.setattr(jitmod, "_CODE", {})
    monkeypatch.setattr(jitmod, "_HEADS", set())
    hv, vm = diff.build_machine("hw-nested")
    _run_program(hv, vm, f"""
    li   t0, {DATA:#x}
    li   t1, 8
loop:
    st   [t0+0], t1
    add  t0, t0, 4096
    sub  t1, t1, 1
    bnez t1, loop
""")
    assert vm.vcpus[0].cpu.jit_stats()["blocks_compiled"] > 0
    _assert_logged_then_zeroed(
        hv, vm, [(DATA >> PAGE_SHIFT) + i for i in range(8)])


@pytest.mark.parametrize("config", ["hw-shadow", "hw-nested", "hw-hmode"])
def test_a_guest_accessed_dirty_write_back_is_logged(config):
    # hw-shadow: the shadow fill writes A/D back; hw-nested and hw-hmode:
    # the two-stage walker does.
    hv, vm = diff.build_machine(config)
    _page_tables(vm.guest_mem.write_u32, 0)
    tables = [ROOT >> PAGE_SHIFT, LEAF >> PAGE_SHIFT]
    _forget(vm.guest_mem.write_log, [vm.guest_mem.map[gfn] for gfn in tables])
    _run_program(hv, vm, PAGED_STORE)
    _assert_logged_then_zeroed(hv, vm, tables)


def test_the_bare_walkers_accessed_dirty_write_back_is_logged(monkeypatch):
    monkeypatch.setattr(diff, "_BARE", None)  # a pool of the test's own
    log = diff._bare_memory()
    pm = log.physmem
    _page_tables(pm.write_u32, 0)
    pm.write_bytes(0x1000, Assembler().assemble(
        ".org 0x1000\n" + PAGED_STORE + "    hlt\n").data)
    tables = [ROOT >> PAGE_SHIFT, LEAF >> PAGE_SHIFT]
    _forget(log, tables)
    cpu = CPUCore(BareMMU(pm, CostModel()), port_bus=None)
    cpu.reset(0x1000)
    cpu.run(max_instructions=100)
    pm.unwatch_writes(cpu._on_code_write)
    assert cpu.halted
    for pfn in tables:
        assert pm.read_frame(pfn) != ZERO_PAGE and pfn in log.written
    assert diff._bare_memory() is log
    assert all(pm.read_frame(pfn) == ZERO_PAGE for pfn in tables)


def test_an_emulated_page_table_store_is_logged():
    # Accessed and dirty bits preset: nothing but the trapped store (the
    # pt_write exit, completed by the VMM) changes LEAF.
    hv, vm = diff.build_machine("hw-shadow")
    _page_tables(vm.guest_mem.write_u32, PTE_ACCESSED | PTE_DIRTY)
    _forget(vm.guest_mem.write_log, [vm.guest_mem.map[LEAF >> PAGE_SHIFT]])
    _run_program(hv, vm, f"""
    li   t0, {ROOT:#x}
    csrw PTBR, t0
    li   t0, {LEAF + 4 * 0x60:#x}
    li   t1, {make_pte(0x61, PTE_PRESENT):#x}
    st   [t0+0], t1
""")
    assert vm.stats.shadow_pt_writes == 1
    _assert_logged_then_zeroed(hv, vm, [LEAF >> PAGE_SHIFT])


def test_an_mmu_batch_hypercall_store_is_logged():
    hv, vm = diff.build_machine("hw-nested")
    batch = 0x30000
    vm.guest_mem.write_u32(batch, DATA + 8)
    vm.guest_mem.write_u32(batch + 4, 0xFEED)
    _run_program(hv, vm, f"""
    li   a0, {batch:#x}
    li   a1, 1
    vmcall {int(HypercallNumbers.MMU_BATCH)}
""")
    assert vm.stats.hypercalls == 1
    assert vm.guest_mem.read_u32(DATA + 8) == 0xFEED
    _assert_logged_then_zeroed(hv, vm, [DATA >> PAGE_SHIFT])


def test_virtio_dma_into_guest_memory_is_logged():
    hv, vm = diff.build_machine("hw-nested")
    mem, dev = vm.guest_mem, vm.devices["virtio_blk"]
    dev.data[5 * 512:6 * 512] = b"\xa5" * 512
    configure(dev, VIRTIO_BLK_BASE, mem)
    publish(mem, [blk_request(mem, 0, BLK_T_READ, sector=5)])
    assert mem.read_bytes(VIRTIO_DATA, 512) == bytes(512)
    dev.port_write(VIRTIO_BLK_BASE + OFF_KICK, 0)
    assert mem.read_bytes(VIRTIO_DATA, 512) == b"\xa5" * 512
    _assert_logged_then_zeroed(hv, vm, [VIRTIO_DATA >> PAGE_SHIFT])


def test_a_multi_page_image_load_is_logged():
    hv, vm = diff.build_machine("hw-shadow")
    start = DATA + PAGE_SIZE - 100
    vm.guest_mem.write_bytes(start, b"\x5a" * (2 * PAGE_SIZE + 200))
    _assert_logged_then_zeroed(
        hv, vm, [(start >> PAGE_SHIFT) + i for i in range(4)])


def test_a_store_straddling_two_frames_logs_both():
    hv, vm = diff.build_machine("hw-nested")
    gfn = DATA >> PAGE_SHIFT
    assert vm.guest_mem.map[gfn + 1] == vm.guest_mem.map[gfn] + 1
    vm.guest_mem.write_u32(DATA + PAGE_SIZE - 2, 0x01020304)
    _assert_logged_then_zeroed(hv, vm, [gfn, gfn + 1])


# -- nothing else writes the bytes -------------------------------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
_BYTES = ("_data", "_view")


def _writes_into_memory_bytes(tree):
    """Lines where ``tree`` assigns into an ``x._data`` / ``x._view``
    (item, slice, rebinding, ``pack_into``), directly or through a name
    bound to one."""
    aliases = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Attribute) and node.value.attr in _BYTES
               for target in node.targets if isinstance(target, ast.Name)}

    def is_bytes(node):
        return (isinstance(node, ast.Attribute) and node.attr in _BYTES
                or isinstance(node, ast.Name) and node.id in aliases)

    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (isinstance(target, ast.Subscript) and is_bytes(target.value)
                    or isinstance(target, ast.Attribute) and target.attr in _BYTES):
                found.append(node.lineno)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pack_into" and any(map(is_bytes, node.args))):
            found.append(node.lineno)
    return found


def test_only_physmem_writes_physical_memory_bytes():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).as_posix() == "mem/physmem.py":
            continue
        lines = _writes_into_memory_bytes(ast.parse(path.read_text()))
        if lines:
            offenders[path.relative_to(SRC).as_posix()] = lines
    assert offenders == {}


def test_the_source_check_sees_each_form():
    src = """
pm._data[0] = 1
pm._view[0:4] = b"abcd"
pm._data[8:12] += b""
self.physmem._data = bytearray(4)
buf = pm._data
buf[3] = 7
_U32.pack_into(pm._data, 0, 5)
struct.pack_into("<I", buf, 0, 5)
x = pm._data[0]
y = _U32.unpack_from(pm._data, 0)
"""
    assert _writes_into_memory_bytes(ast.parse(src)) == [2, 3, 4, 5, 7, 8, 9]


# -- every frame reads zero after every recycle --------------------------------


@pytest.mark.parametrize("config", CONFIGS + ["bare"])
def test_every_frame_is_zero_after_every_recycle(config):
    zero = bytes(gen.MEM_BYTES)
    for seed in (1, 17, 23):
        for index in range(40):
            segments, common = _case(seed, index, 0.05)
            if config == "bare":
                assert diff._bare_memory().physmem.read_bytes(0, gen.MEM_BYTES) == zero
                for jit in (False, True):
                    diff.run_bare(segments, jit=jit, **common)
                continue
            hv, vm = diff.pooled_machine(config)
            assert vm.guest_mem.read_bytes(0, gen.MEM_BYTES) == zero, (seed, index)
            diff.run_on(hv, vm, segments, **common)


# -- a re-backed gfn -----------------------------------------------------------


@pytest.mark.parametrize("config", ["hw-shadow", "bt-shadow"])
def test_a_rebacked_gfn_takes_the_full_zero_path(config):
    # Under two-stage paging the edited G-stage refuses the recycle
    # (tests/test_fuzz_recycle.py); under shadow paging it goes ahead.
    hv, vm = diff.build_machine(config)
    segments, common = _case(1, 3, 0.05)
    first = diff.run_on(hv, vm, segments, **common)
    g1, g2 = sorted(first["mem"])[:2]
    h1, h2 = vm.guest_mem.map[g1], vm.guest_mem.map[g2]
    assert hv.balloon_give(vm, g1) and hv.balloon_give(vm, g2)
    # The allocator hands frames back last-in, first-out: taken back in
    # the order given, the two gfns swap frames.
    assert hv.balloon_take(vm, g1) and hv.balloon_take(vm, g2)
    assert (vm.guest_mem.map[g1], vm.guest_mem.map[g2]) == (h2, h1)
    old_log, watchers = vm.guest_mem.write_log, len(hv.physmem._watchers)
    vm = hv.recycle_vm(vm)
    # A new log over the new map, every frame zeroed; the old one is off.
    log = vm.guest_mem.write_log
    assert log is not old_log and log.frames == vm.guest_mem.map
    assert len(hv.physmem._watchers) == watchers
    assert vm.guest_mem.read_bytes(0, gen.MEM_BYTES) == bytes(gen.MEM_BYTES)
    # The next case runs as on a fresh machine, and the recycle after it
    # keeps the new log; it goes when the VM does.
    segments, common = _case(1, 4, 0.05)
    assert _run((hv, vm), segments, common) == _run(
        diff.build_machine(config), segments, common)
    vm = hv.recycle_vm(vm)
    assert vm.guest_mem.write_log is log
    hv.destroy_vm(vm)
    assert hv.physmem._watchers == []
