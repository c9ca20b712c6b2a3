"""The host memory-control surface of the virtualized MMUs.

``map_gfns`` / ``rebind_gfns`` / ``drop_gfns`` / ``write_protect_gfns``
/ ``unprotect_gfns`` are how page sharing, ballooning, host swap and
migration edit a guest's backing without knowing which MMU it has.
Two things are pinned here:

* a merge -> copy-on-write -> balloon -> swap sequence on real guests
  leaves, after every step, exactly the translation tables, page
  counts, write-protected sets, sharer refcounts and free-frame count
  it left before the surface did each edit in one leaf write (the
  digests were taken at the commit before), with the TLB empty after
  every edit;
* ``ShadowMMU.drop_gfns`` finds a frame's shadow entries through its
  fill back-map and leaves what a sweep of every shadow table leaves.
"""

import hashlib
import json

import pytest

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.cpu.mmu import TwoStageMMU
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.mem.paging import pte_frame
from repro.overcommit.sharing import PageSharer
from repro.overcommit.swap import HostSwap
from repro.util.units import MIB
from tests.conftest import mappings

GUEST = 16 * MIB
PAGES, PASSES = 48, 30


def _boot(hv, name, virt_mode, mmu_mode, instructions):
    vm = hv.create_vm(GuestConfig(name=name, memory_bytes=GUEST,
                                  virt_mode=virt_mode, mmu_mode=mmu_mode))
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST))
    hv.load_program(vm, kernel)
    hv.load_program(vm, workloads.memtouch(PAGES, PASSES))
    hv.reset_vcpu(vm, kernel.entry)
    hv.run(vm, max_guest_instructions=instructions)
    return vm


def _tables(mmu):
    """Every leaf word the MMU's tables hold, and their page count."""
    if isinstance(mmu, TwoStageMMU):
        return {"ept": sorted(mappings(mmu.ept))}, mmu.ept.mapped_pages
    spaces = sorted(mmu._spaces.items())
    return ({f"{root:#x}/{view}": sorted(mappings(space))
             for (root, view), space in spaces},
            sum(space.mapped_pages for _key, space in spaces))


# Taken at the parent of the commit that introduced ``rebind_gfn`` (the
# per-gfn form of ``rebind_gfns``), by
# running this very scenario there: sha256 (first 16 hex digits) of the
# JSON of everything ``note`` records at each step. The two-stage
# "balloon", "swap-out" and "end" digests were retaken when the
# write-protected set became one per guest: ``map_gfns`` takes the
# gfn it backs writable out of the set (the balloon's re-taken page),
# and the new digests are the old scenario's with every gfn whose
# G-stage leaf is writable left out of the recorded set.
GOLDEN = {
    MMUVirtMode.NESTED: {
        "merge": "a18926dafa807401", "cow": "02ca3371b455c0b8",
        "cow-host": "b219d4e283b9286a", "balloon": "b5ede5471fe9252a",
        "swap-out": "56a41ef9e361c5be", "end": "c292e9f57cf2b2e0"},
    MMUVirtMode.HMODE: {
        "merge": "b8db68aeb1959836", "cow": "c49e5e11b90bbcb9",
        "cow-host": "3ab56cbf79977130", "balloon": "829a512291a32618",
        "swap-out": "8598ff1de409a990", "end": "680f3a55a937fe43"},
    MMUVirtMode.SHADOW: {
        "merge": "8e117de46fc9f121", "cow": "6d299bfb64f95f24",
        "cow-host": "db32a879fcc512c9", "balloon": "d45c06e29fe38cf4",
        "swap-out": "dec53b930de475ba", "end": "c767b3e4b7bc44a1"},
}

#: Guest cycles at the end, per guest, at that commit. TLB flush totals
#: are deliberately not pinned: a merge used to flush twice (drop, then
#: write-protect) and flushes once now.
GOLDEN_CYCLES = {
    MMUVirtMode.NESTED: [96910, 91138],
    MMUVirtMode.HMODE: [96910, 91138],
    MMUVirtMode.SHADOW: [43252, 41801],
}


@pytest.mark.parametrize("mmu_mode", list(GOLDEN), ids=lambda m: m.value)
def test_share_balloon_swap_sequence_leaves_the_same_state(mmu_mode):
    hv = Hypervisor(memory_bytes=64 * MIB)
    vms = [_boot(hv, name, VirtMode.HW_ASSIST, mmu_mode, 9_000)
           for name in ("a", "b")]
    a, b = vms
    mmus = [vm.vcpus[0].cpu.mmu for vm in vms]
    sharer = PageSharer(hv)
    swap = HostSwap(hv)
    swap.install(a)
    swap.install(b)
    log = {}

    def note(step):
        entries = log.setdefault(step, [])
        for vm, mmu in zip(vms, mmus):
            tables, mapped = _tables(mmu)
            entries.append([vm.name, tables, mapped,
                            sorted(vm.guest_mem.write_protected), len(mmu.tlb)])
        entries.append([sorted(sharer.refcount.items()),
                        len(sharer._sharers), sharer.cow_breaks,
                        hv.allocator.free_frames])

    def warm(vm, mmu):
        hv.run(vm, max_guest_instructions=500)
        assert len(mmu.tlb) > 0

    assert all(len(mmu.tlb) > 0 for mmu in mmus)
    scan = sharer.scan()
    assert [len(mmu.tlb) for mmu in mmus] == [0, 0]
    assert (scan.pages_merged, scan.frames_freed) == (8137, 8137)
    note("merge")

    # Copy-on-write through the real exit path: b stores to shared pages.
    hv.run(b, max_guest_instructions=6_000)
    assert sharer.cow_breaks == 48
    note("cow")

    # ... and one break made host-side, under a warm TLB.
    warm(a, mmus[0])
    sharer.on_write_fault(a, min(g for n, g in sharer._sharers if n == "a"))
    assert len(mmus[0].tlb) == 0
    note("cow-host")

    # Balloon: three shared (zero, never touched) frames of b go; one
    # comes back as a private frame, goes again, comes back again.
    idle = sorted(g for n, g in sharer._sharers if n == "b")[-3:]
    warm(b, mmus[1])
    for gfn in idle:
        assert hv.balloon_give(b, gfn)
    assert len(mmus[1].tlb) == 0
    assert hv.balloon_take(b, idle[1])
    assert hv.balloon_give(b, idle[1]) and hv.balloon_take(b, idle[1])
    note("balloon")

    # Swap: private, non-zero, non-page-table frames of a go out; the
    # guest faults them back in below.
    warm(a, mmus[0])
    page_tables = getattr(mmus[0], "pt_gfns", ())
    victims = [g for g in sorted(a.guest_mem.map)
               if ("a", g) not in sharer._sharers and g not in page_tables
               and any(a.guest_mem.read_gfn(g))][-12:]
    for gfn in victims:
        swap.swap_out(a, gfn)
    assert len(mmus[0].tlb) == 0
    note("swap-out")

    outcomes = [hv.run(vm, max_guest_instructions=3_000_000) for vm in vms]
    note("end")

    assert outcomes == [RunOutcome.SHUTDOWN] * 2
    assert [read_diag(vm.guest_mem).user_result for vm in vms] == (
        [expected_memtouch(PAGES, PASSES)] * 2)
    digests = {step: hashlib.sha256(json.dumps(
        entries, sort_keys=True).encode()).hexdigest()[:16]
        for step, entries in log.items()}
    assert (sharer.cow_breaks, swap.swap_ins) == (101, 12)
    assert [vm.vcpus[0].cpu.cycles for vm in vms] == GOLDEN_CYCLES[mmu_mode]
    assert digests == GOLDEN[mmu_mode]


# -- ShadowMMU.drop_gfns against the sweep it replaced ------------------------


def _sweep_drop(mmu, gfn):
    """Reference: visit every leaf of every shadow table."""
    hfn = mmu.guest_mem.map.get(gfn, -1)
    for space in mmu._spaces.values():
        for va, pte in mappings(space):
            if pte_frame(pte) == hfn:
                space.unmap(va)
    mmu.tlb.flush()


@pytest.mark.parametrize("virt_mode", [VirtMode.HW_ASSIST,
                                       VirtMode.TRAP_EMULATE],
                         ids=lambda m: m.value)
def test_shadow_drop_gfn_leaves_what_the_sweep_leaves(virt_mode):
    # Two identical guests on two identical hosts: same frames, same
    # shadow tables. One drops through the back-map, one by sweeping.
    pair = []
    for _ in range(2):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = _boot(hv, "s", virt_mode, MMUVirtMode.SHADOW, 14_000)
        pair.append((hv, vm, vm.vcpus[0].cpu.mmu))
    (hv, vm, mmu), (ref_hv, ref_vm, ref_mmu) = pair
    before, mapped = _tables(mmu)
    assert (before, mapped) == _tables(ref_mmu) and mapped > 40

    filled = {}  # gfn -> how many shadow leaves map it
    for leaves in before.values():
        for _va, pte in leaves:
            gfn = next(g for g, h in vm.guest_mem.map.items()
                       if h == pte_frame(pte))
            filled[gfn] = filled.get(gfn, 0) + 1
    by_count = sorted(filled, key=lambda g: (-filled[g], g))
    never_filled = max(set(vm.guest_mem.map) - set(filled))
    targets = by_count[:6] + by_count[-6:] + sorted(mmu.pt_gfns)[:2] + [
        never_filled]
    if virt_mode is VirtMode.TRAP_EMULATE:
        assert len(before) == 2  # kernel and user view

    for gfn in targets:
        mmu.drop_gfns({gfn})
        _sweep_drop(ref_mmu, gfn)
        assert _tables(mmu) == _tables(ref_mmu)
        assert len(mmu.tlb) == len(ref_mmu.tlb) == 0
    assert _tables(mmu)[1] < mapped

    # Both guests refill what they need and finish alike.
    for host, guest in ((hv, vm), (ref_hv, ref_vm)):
        assert host.run(guest, max_guest_instructions=3_000_000) is (
            RunOutcome.SHUTDOWN)
        assert read_diag(guest.guest_mem).user_result == (
            expected_memtouch(PAGES, PASSES))
    assert vm.vcpus[0].cpu.cycles == ref_vm.vcpus[0].cpu.cycles
    assert dict(vm.exit_stats.counts) == dict(ref_vm.exit_stats.counts)
