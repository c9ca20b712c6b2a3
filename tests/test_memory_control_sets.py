"""The host memory-control surface takes sets of gfns.

``map_gfns`` / ``rebind_gfns`` / ``drop_gfns`` / ``write_protect_gfns``
/ ``unprotect_gfns`` edit every gfn they are given in one call, and the
second stage in one ``AddressSpace.rewrite_leaves``. Held here:

* ``rewrite_leaves`` leaves what the same edits made one entry at a
  time leave -- every table byte, ``mapped_pages``, the frames it
  allocated, the leaves it returns, checkpoint / rollback -- and stores
  each run of adjacent leaves it changes in one write;
* on both MMUs, each call on a random set of gfns (across leaf tables,
  backed and not, writable and read-only) leaves the tables,
  ``mapped_pages``, ``write_protected`` and the TLB that the call on one
  gfn at a time leaves, with one TLB flush where those made any (a
  shadow write-protect makes none: it drops only the entries it made
  read-only, as the calls one gfn at a time do);
* one rule for an unbacked gfn: it joins and leaves ``write_protected``
  like any other;
* a hw-nested live migration: each ``protect`` round is one
  second-stage edit and one flush (and the migrator's own flush, on an
  empty TLB), and the destination's ``create_vm`` is one edit;
* a sharing scan flushes a shadow guest only if it rebinds one of its
  gfns.
"""

import random

import pytest

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.cpu.mmu import TwoStageMMU
from repro.guest import KernelOptions, build_kernel, workloads
from repro.mem.paging import (
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    AddressSpace,
    make_pte,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.migration import LiveMigrator
from repro.overcommit import PageSharer
from repro.util.units import MIB, PAGE_SHIFT
from tests.conftest import lookup, mappings

# -- AddressSpace.rewrite_leaves against one-entry edits ----------------------


def _space():
    pm = PhysicalMemory(4 * MIB)
    return pm, AddressSpace(pm, FrameAllocator(pm, reserved_frames=16))


def _random_puts(rng, keep):
    """Edits over directories 0-3 (populated) and 4-5 (absent): present
    leaves, non-present words, zeros."""
    puts = {}
    for _ in range(rng.randrange(1, 300)):
        vpn = rng.randrange(6 << 10)
        kind = rng.random()
        if kind < 0.4:
            puts[vpn] = make_pte(rng.randrange(1, 1024),
                                 PTE_PRESENT | rng.choice((0, PTE_WRITABLE, PTE_USER)))
        elif kind < 0.7 and keep == -1:
            puts[vpn] = PTE_WRITABLE  # an unprotect's put
        else:
            puts[vpn] = 0
    return puts


@pytest.mark.parametrize("seed", range(12))
def test_rewrite_leaves_leaves_what_one_entry_edits_leave(seed):
    rng = random.Random(seed)
    pair = [_space(), _space()]
    built = {}
    for _ in range(600):  # directories 0-3, some leaves read-only
        vpn = rng.randrange(4 << 10)
        built[vpn] = make_pte(rng.randrange(1, 1024),
                              PTE_PRESENT | rng.choice((PTE_WRITABLE, 0)))
    for _pm, space in pair:
        space.rewrite_leaves(0, built)
        space.checkpoint()
    (pm, space), (ref_pm, ref) = pair
    assert bytes(pm._data) == bytes(ref_pm._data)

    keep = rng.choice((-1, 0, ~PTE_WRITABLE))
    puts = _random_puts(rng, keep)
    stores = []
    write_bytes, write_u32 = pm.write_bytes, pm.write_u32
    pm.write_bytes = lambda pa, data: (stores.append((pa, len(data))),
                                       write_bytes(pa, data))
    pm.write_u32 = lambda pa, word: (stores.append((pa, 4)), write_u32(pa, word))
    before = bytes(pm._data)
    olds = space.rewrite_leaves(keep, puts)
    del pm.write_bytes, pm.write_u32
    ref_olds = {}
    for vpn in sorted(puts):
        ref_olds.update(ref.rewrite_leaves(keep, {vpn: puts[vpn]}))

    assert olds == ref_olds
    assert bytes(pm._data) == bytes(ref_pm._data)
    assert space.mapped_pages == ref.mapped_pages
    assert space.allocator.free_frames == ref.allocator.free_frames
    # One store a run of adjacent leaves that changed, nothing else.
    leaf_stores = sorted(store for store in stores
                         if store[0] >> PAGE_SHIFT != space.root_pfn)
    after = bytes(pm._data)
    changed = [pa for frame in range(pm.size >> PAGE_SHIFT)
               if frame != space.root_pfn and after[frame << PAGE_SHIFT:(frame + 1) << PAGE_SHIFT]
               != before[frame << PAGE_SHIFT:(frame + 1) << PAGE_SHIFT]
               for pa in range(frame << PAGE_SHIFT, (frame + 1) << PAGE_SHIFT, 4)
               if after[pa:pa + 4] != before[pa:pa + 4]]
    assert sum(n for _pa, n in leaf_stores) == 4 * len(changed)
    assert all(pa + n < next_pa for (pa, n), (next_pa, _n)
               in zip(leaf_stores, leaf_stores[1:]))
    assert space.rollback() == ref.rollback()
    assert bytes(pm._data) == bytes(ref_pm._data)


# -- the MMUs' set forms against the same calls one gfn at a time -------------

GUEST = 16 * MIB


def _boot(hv, mmu_mode, passes=30, name="g"):
    vm = hv.create_vm(GuestConfig(name=name, memory_bytes=GUEST,
                                  virt_mode=VirtMode.HW_ASSIST, mmu_mode=mmu_mode))
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST))
    hv.load_program(vm, kernel)
    hv.load_program(vm, workloads.memtouch(48, passes))
    hv.reset_vcpu(vm, kernel.entry)
    hv.run(vm, max_guest_instructions=12_000)
    return vm


def _spaces(mmu):
    if isinstance(mmu, TwoStageMMU):
        return [mmu.ept]
    return [space for _key, space in sorted(mmu._spaces.items())]


def _state(vm):
    mmu = vm.vcpus[0].cpu.mmu
    return ([sorted(mappings(space)) for space in _spaces(mmu)],
            [space.mapped_pages for space in _spaces(mmu)],
            sorted(vm.guest_mem.write_protected),
            list(mmu.tlb._entries.items()))


def _calls(rng, vm):
    """(name, set, further arguments) of each call: gfns across every
    leaf table, the TLB's among them."""
    mem = vm.guest_mem
    by_hfn = {hfn: gfn for gfn, hfn in mem.map.items()}
    hot = sorted({by_hfn[pte >> PAGE_SHIFT] for pte in vm.vcpus[0].cpu.mmu.tlb._entries.values()
                  if pte >> PAGE_SHIFT in by_hfn})

    def gfns(count):
        picked = set(rng.sample(range(mem.num_pages), count))
        picked.update(rng.sample(hot, min(len(hot), 4)))
        return sorted(picked | {1023, 1024})

    def frames(count):
        return {gfn: mem.map[gfn] for gfn in gfns(count) if gfn in mem.map}

    return [("write_protect_gfns", gfns(40)), ("unprotect_gfns", gfns(30)),
            ("write_protect_gfns", gfns(60)), ("rebind_gfns", frames(30), False),
            ("rebind_gfns", frames(20), True), ("drop_gfns", gfns(25)),
            ("unprotect_gfns", gfns(50)), ("drop_gfns", gfns(10))]


def _call(vm, name, arg, *rest):
    getattr(vm.vcpus[0].cpu.mmu, name)(arg, *rest)


@pytest.mark.parametrize("mmu_mode", [MMUVirtMode.NESTED, MMUVirtMode.HMODE,
                                      MMUVirtMode.SHADOW], ids=lambda m: m.value)
@pytest.mark.parametrize("seed", range(3))
def test_each_call_on_a_set_is_the_calls_on_its_gfns(mmu_mode, seed):
    # Two identical guests on two identical hosts; one is edited a set
    # at a time, the other one gfn at a time. Both run alike between.
    hosts = [Hypervisor(memory_bytes=64 * MIB) for _ in range(2)]
    vm, ref = [_boot(hv, mmu_mode) for hv in hosts]
    rng = random.Random(seed)
    # Unbacked gfns, whose leaves are absent, for every call below
    # (from the top half of the guest, which NanoOS never touches).
    unbacked = rng.sample(range(2048, 4096), 12)
    for hv, guest in zip(hosts, (vm, ref)):
        guest.vcpus[0].cpu.mmu.drop_gfns(unbacked)
        for gfn in unbacked:
            hv.allocator.free(guest.guest_mem.unmap_page(gfn))
    assert _state(vm) == _state(ref)

    # And half of them backed again, at the same frame on both hosts.
    backed = {}
    for hv, guest in zip(hosts, (vm, ref)):
        for gfn in unbacked[:6]:
            backed[gfn] = hv.allocator.alloc()
            guest.guest_mem.map_page(gfn, backed[gfn])
    for name, arg, *rest in [("map_gfns", backed)] + _calls(rng, vm):
        for hv, guest in zip(hosts, (vm, ref)):
            hv.run(guest, max_guest_instructions=300)
            assert len(guest.vcpus[0].cpu.mmu.tlb) > 0
            for space in _spaces(guest.vcpus[0].cpu.mmu):
                space.checkpoint()
        flushes = [guest.vcpus[0].cpu.mmu.tlb.stats.flushes for guest in (vm, ref)]
        mmu = vm.vcpus[0].cpu.mmu
        # The contract's flushes: a rebind always; a drop on shadow
        # always; a drop or a write-protect on two-stage if a leaf named
        # was present; map, unprotect and a shadow write-protect (which
        # drops the entries it made read-only) never.
        two_stage = isinstance(mmu, TwoStageMMU)
        flushing = (name == "rebind_gfns"
                    or name == "drop_gfns" and not two_stage
                    or name in ("drop_gfns", "write_protect_gfns") and two_stage
                    and any(lookup(mmu.ept, gfn << PAGE_SHIFT) for gfn in arg))
        _call(vm, name, arg, *rest)
        for gfn in arg:
            _call(ref, name, {gfn: arg[gfn]} if isinstance(arg, dict) else {gfn},
                  *rest)
        made, ref_made = (guest.vcpus[0].cpu.mmu.tlb.stats.flushes - before
                          for guest, before in zip((vm, ref), flushes))
        assert made == min(ref_made, 1) == flushing, name
        if made:
            assert len(mmu.tlb) == 0, name
        assert _state(vm) == _state(ref), name
        assert ([space.rollback() for space in _spaces(vm.vcpus[0].cpu.mmu)]
                == [space.rollback() for space in _spaces(ref.vcpus[0].cpu.mmu)])
        assert _state(vm) == _state(ref), name


@pytest.mark.parametrize("mmu_mode", [MMUVirtMode.NESTED, MMUVirtMode.SHADOW],
                         ids=lambda m: m.value)
def test_an_unbacked_gfn_joins_and_leaves_write_protected(mmu_mode):
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = _boot(hv, mmu_mode)
    mmu, mem = vm.vcpus[0].cpu.mmu, vm.guest_mem
    gfn = max(mem.map)
    mmu.drop_gfns({gfn})
    hv.allocator.free(mem.unmap_page(gfn))
    mmu.write_protect_gfns({gfn, gfn - 1})
    assert {gfn, gfn - 1} <= mem.write_protected
    mmu.unprotect_gfns({gfn, gfn - 1})
    assert not {gfn, gfn - 1} & mem.write_protected


def test_an_empty_set_edits_nothing_and_flushes_nothing():
    for mmu_mode in (MMUVirtMode.NESTED, MMUVirtMode.SHADOW):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = _boot(hv, mmu_mode)
        mmu = vm.vcpus[0].cpu.mmu
        before, flushes = _state(vm), mmu.tlb.stats.flushes
        for name in ("map_gfns", "drop_gfns", "write_protect_gfns",
                     "unprotect_gfns"):
            getattr(mmu, name)({})
        mmu.rebind_gfns({}, writable=False)
        assert (_state(vm), mmu.tlb.stats.flushes) == (before, flushes)


# -- one hw-nested live migration ---------------------------------------------


def test_a_migration_edits_the_second_stage_once_a_round(monkeypatch):
    src, dst = Hypervisor(memory_bytes=64 * MIB), Hypervisor(memory_bytes=64 * MIB)
    vm = _boot(src, MMUVirtMode.NESTED, passes=3000)
    edits = []
    rewrite_leaves = AddressSpace.rewrite_leaves

    def counted(space, keep, puts):
        edits.append((space, len(puts)))
        return rewrite_leaves(space, keep, puts)

    monkeypatch.setattr(AddressSpace, "rewrite_leaves", counted)
    mmu = vm.vcpus[0].cpu.mmu
    rounds = []
    write_protect_gfns, flush = mmu.write_protect_gfns, mmu.flush

    def protect(gfns):
        flushes, count = mmu.tlb.stats.flushes, len(edits)
        write_protect_gfns(gfns)
        rounds.append([len(edits) - count, mmu.tlb.stats.flushes - flushes])

    def flushed():
        flush()
        rounds[-1].append(len(mmu.tlb))

    mmu.write_protect_gfns, mmu.flush = protect, flushed
    result = LiveMigrator(src, dst, bytes_per_cycle=4.0).migrate(
        vm, quantum_instructions=5_000, threshold_pages=2)
    assert result.rounds >= 3
    # Round 0 protects every gfn, and each later round its dirty batch:
    # one edit and one flush, then the migrator's own flush finds the
    # TLB empty (12 rounds, 24 flushes; one gfn at a time, the same run
    # flushed 4,636 times).
    assert rounds == [[1, 1, 0]] * result.rounds
    # The destination's G-stage was built in one edit of 4,096 leaves.
    ept = result.dest_vm.vcpus[0].cpu.mmu.ept
    assert [n for space, n in edits if space is ept] == [GUEST >> PAGE_SHIFT]


# -- a sharing scan ------------------------------------------------------------


def test_a_repeat_scan_flushes_only_the_shadow_guests_it_rebinds():
    # A scan edits each guest's MMU in one write-protect and one rebind
    # call. Under shadow paging a write-protect drops the entries it
    # made read-only and flushes nothing, as when the scan edited one
    # gfn at a time: only a guest that had a gfn rebound is flushed.
    hv = Hypervisor(memory_bytes=96 * MIB)
    vms = [_boot(hv, MMUVirtMode.SHADOW, name=f"g{i}") for i in range(3)]
    sharer = PageSharer(hv)
    sharer.scan()
    # The second guest's stores break shares. The next scan merges its
    # copies again, and only write-protects the first guest, whose
    # frames are each group's canonical one.
    hv.run(vms[1], max_guest_instructions=2_000)
    protected = {}
    for vm in vms:
        mmu = vm.vcpus[0].cpu.mmu
        mmu.write_protect_gfns = lambda gfns, vm=vm, call=mmu.write_protect_gfns: (
            protected.__setitem__(vm.name, len(gfns)), call(gfns))
    maps = [dict(vm.guest_mem.map) for vm in vms]
    flushes = [vm.vcpus[0].cpu.mmu.tlb.stats.flushes for vm in vms]
    sharer.scan()
    for vm, old_map, before in zip(vms, maps, flushes):
        rebound = vm.guest_mem.map != old_map
        assert vm.vcpus[0].cpu.mmu.tlb.stats.flushes - before == rebound, vm.name
    assert protected[vms[0].name] and vms[0].guest_mem.map == maps[0]
