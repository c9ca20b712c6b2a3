"""Overcommit: sharing, swap, WSS estimation, balloon policy, model."""

import hashlib

import pytest

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.overcommit import (
    BalloonPolicy,
    HostSwap,
    PageSharer,
    PolicyKind,
    VMDemand,
    clear_access_bits,
    count_accessed,
    estimate_wss,
    evaluate_policy,
)
from repro.util.errors import ConfigError, MemoryError_
from repro.util.units import MIB

GUEST_MEM = 16 * MIB


def start_vm(hv, name, mmu_mode=MMUVirtMode.NESTED, pages=16, passes=2000,
             warmup=100_000):
    vm = hv.create_vm(GuestConfig(name=name, memory_bytes=GUEST_MEM,
                                  virt_mode=VirtMode.HW_ASSIST,
                                  mmu_mode=mmu_mode))
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM))
    hv.load_program(vm, kernel)
    hv.load_program(vm, workloads.memtouch(pages, passes))
    hv.reset_vcpu(vm, kernel.entry)
    hv.run(vm, max_guest_instructions=warmup)
    return vm


class TestPageSharer:
    def test_scan_merges_identical_frames(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        for i in range(2):
            start_vm(hv, f"v{i}")
        free_before = hv.allocator.free_frames
        sharer = PageSharer(hv)
        result = sharer.scan()
        assert result.pages_merged > 1000  # two near-identical guests
        assert hv.allocator.free_frames == free_before + result.frames_freed
        assert sharer.refcount  # frames now shared

    def test_guests_stay_correct_through_cow(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        vms = [start_vm(hv, f"v{i}", passes=1200) for i in range(2)]
        sharer = PageSharer(hv)
        sharer.scan()
        for vm in vms:
            outcome = hv.run(vm, max_guest_instructions=60_000_000)
            diag = read_diag(vm.guest_mem)
            assert outcome is RunOutcome.SHUTDOWN
            assert diag.user_result == expected_memtouch(16, 1200)
        assert sharer.cow_breaks > 0

    def test_cow_write_isolates_content(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        a = start_vm(hv, "a")
        b = start_vm(hv, "b")
        sharer = PageSharer(hv)
        sharer.scan()
        # Find a gfn shared between the two VMs.
        shared_gfn = next(
            gfn for gfn in range(a.num_pages)
            if sharer.handles(a, gfn) and sharer.handles(b, gfn)
            and a.guest_mem.map.get(gfn) == b.guest_mem.map.get(gfn)
        )
        sharer.on_write_fault(a, shared_gfn)
        a.guest_mem.write_u32(shared_gfn * 4096, 0xAAAA5555)
        assert b.guest_mem.read_u32(shared_gfn * 4096) != 0xAAAA5555
        assert a.guest_mem.map[shared_gfn] != b.guest_mem.map[shared_gfn]

    def test_destroy_with_shared_frames_no_double_free(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        vms = [start_vm(hv, f"v{i}") for i in range(2)]
        sharer = PageSharer(hv)
        sharer.scan()
        for vm in vms:
            hv.destroy_vm(vm)
        assert hv.allocator.free_frames == (hv.physmem.num_frames
                                           - hv.allocator.reserved_frames)

    def test_cow_on_unshared_page_rejected(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        vm = start_vm(hv, "v")
        sharer = PageSharer(hv)
        with pytest.raises(MemoryError_):
            sharer.on_write_fault(vm, 0)


class TestHostSwap:
    @pytest.mark.parametrize("mmu_mode", [MMUVirtMode.NESTED,
                                          MMUVirtMode.SHADOW])
    def test_evict_and_transparent_pagein(self, mmu_mode):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = start_vm(hv, "s", mmu_mode=mmu_mode, pages=20, passes=8000)
        swap = HostSwap(hv)
        swap.install(vm)
        evicted = swap.evict_some(200)
        assert evicted == 200
        outcome = hv.run(vm, max_guest_instructions=60_000_000)
        diag = read_diag(vm.guest_mem)
        assert outcome is RunOutcome.SHUTDOWN
        assert diag.user_result == expected_memtouch(20, 8000)
        assert swap.swap_ins > 0

    def test_swap_out_frees_host_frame(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = start_vm(hv, "s")
        swap = HostSwap(hv)
        swap.install(vm)
        free_before = hv.allocator.free_frames
        swap.swap_out(vm, 2000)  # cold high page
        assert hv.allocator.free_frames == free_before + 1
        assert 2000 in vm.swapped
        assert not vm.guest_mem.is_mapped(2000)

    def test_swap_in_restores_content(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = start_vm(hv, "s")
        vm.guest_mem.write_u32(2000 * 4096, 0xFEEDFACE)
        swap = HostSwap(hv)
        swap.install(vm)
        swap.swap_out(vm, 2000)
        swap.swap_in(vm, 2000)
        assert vm.guest_mem.read_u32(2000 * 4096) == 0xFEEDFACE

    def test_double_swap_out_rejected(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = start_vm(hv, "s")
        swap = HostSwap(hv)
        swap.install(vm)
        swap.swap_out(vm, 2000)
        with pytest.raises(MemoryError_):
            swap.swap_out(vm, 2000)
        with pytest.raises(MemoryError_):
            swap.swap_in(vm, 1999)


class TestWSS:
    def test_estimate_tracks_working_set(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = start_vm(hv, "w", pages=30, passes=100_000)
        samples = estimate_wss(hv, vm)
        # ~30 heap pages plus a handful of kernel pages per interval.
        for touched in samples:
            assert 25 <= touched <= 60

    def test_clear_and_count_roundtrip(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = start_vm(hv, "w", pages=10, passes=100_000)
        assert count_accessed(vm) > 0
        cleared = clear_access_bits(vm)
        assert cleared > 0
        assert count_accessed(vm) == 0


class TestBalloonPolicy:
    def test_no_pressure_keeps_allocations(self):
        policy = BalloonPolicy(host_pages=10_000)
        policy.add_vm("a", current_pages=3000, wss_pages=1000)
        policy.add_vm("b", current_pages=3000, wss_pages=1000)
        targets = {t.name: t for t in policy.compute_targets()}
        assert targets["a"].target_pages == 3000
        assert targets["a"].inflate_pages == 0

    def test_pressure_taxes_idle_memory(self):
        policy = BalloonPolicy(host_pages=10_000)
        policy.add_vm("idle", current_pages=6000, wss_pages=1000)
        policy.add_vm("busy", current_pages=6000, wss_pages=5000)
        targets = {t.name: t for t in policy.compute_targets()}
        assert targets["idle"].inflate_pages > targets["busy"].inflate_pages
        total = sum(t.target_pages for t in targets.values())
        assert total <= 10_000
        # Working sets always survive.
        assert targets["idle"].target_pages >= 1000
        assert targets["busy"].target_pages >= 5000

    def test_overload_scales_wss_proportionally(self):
        policy = BalloonPolicy(host_pages=6000)
        policy.add_vm("a", current_pages=8000, wss_pages=4000)
        policy.add_vm("b", current_pages=8000, wss_pages=8000)
        targets = {t.name: t for t in policy.compute_targets()}
        assert targets["b"].target_pages == pytest.approx(
            2 * targets["a"].target_pages, rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigError):
            BalloonPolicy(host_pages=0)
        policy = BalloonPolicy(host_pages=100)


class TestModel:
    def _vms(self, n):
        return [VMDemand(f"vm{i}", configured_pages=1000, wss_pages=400,
                         shareable_fraction=0.5) for i in range(n)]

    def test_undercommitted_all_full_speed(self):
        for kind in PolicyKind:
            outcome = evaluate_policy(10_000, self._vms(4), kind)
            assert outcome.min_throughput == pytest.approx(1.0)

    def test_swap_only_collapses_first(self):
        vms = self._vms(6)  # 6000 configured on 4000: 1.5x overcommit
        swap = evaluate_policy(4000, vms, PolicyKind.SWAP_ONLY)
        balloon = evaluate_policy(4000, vms, PolicyKind.BALLOON)
        assert swap.min_throughput < 0.1
        assert balloon.min_throughput == pytest.approx(1.0)

    def test_sharing_extends_past_balloon(self):
        vms = self._vms(12)  # WSS sum = 4800 > 4000
        balloon = evaluate_policy(4000, vms, PolicyKind.BALLOON)
        share = evaluate_policy(4000, vms, PolicyKind.BALLOON_SHARE)
        assert balloon.min_throughput < 0.1
        assert share.min_throughput == pytest.approx(1.0)
        assert share.shared_saved_pages > 0

    def test_overcommit_ratio_reported(self):
        outcome = evaluate_policy(4000, self._vms(8), PolicyKind.BALLOON)
        assert outcome.overcommit_ratio == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            evaluate_policy(0, self._vms(1), PolicyKind.BALLOON)
        with pytest.raises(ConfigError):
            VMDemand("x", configured_pages=10, wss_pages=20).validate()


class TestSharerAliases:
    @staticmethod
    def _forge_alias(hv, vm, g1, g2):
        """Map ``g2`` at ``g1``'s host frame, as a buggy balloon or
        migration path might leave behind; returns that frame."""
        h1 = vm.guest_mem.map[g1]
        vm.vcpus[0].cpu.mmu.drop_gfns({g2})
        hv.allocator.free(vm.guest_mem.unmap_page(g2))
        vm.guest_mem.map_page(g2, h1)
        return h1

    def test_alias_of_canonical_frame_is_tracked_and_cow_safe(self):
        """A second gfn already mapping the canonical frame must be
        write-protected, refcounted, and tracked by the scan -- an
        untracked alias would let a guest write mutate the shared frame
        under every other sharer."""
        hv = Hypervisor(memory_bytes=96 * MIB)
        vm = start_vm(hv, "alias")
        g1, g2 = sorted(vm.guest_mem.map)[-2:]
        # Unique content keeps this merge group down to the two
        # aliases, making the aliased frame itself the canonical one.
        vm.guest_mem.write_u32(g1 * 4096, 0x51A50001)
        h1 = self._forge_alias(hv, vm, g1, g2)

        sharer = PageSharer(hv)
        sharer.scan()
        assert sharer.handles(vm, g1)
        assert sharer.handles(vm, g2)
        assert vm.guest_mem.map[g2] == h1
        # Refcount reflects every live mapping of the canonical frame.
        assert sharer.refcount[h1] == 2

        # Breaking COW on the alias isolates it without touching g1.
        before = vm.guest_mem.read_gfn(g1)
        sharer.on_write_fault(vm, g2)
        assert vm.guest_mem.map[g2] != vm.guest_mem.map[g1]
        vm.guest_mem.write_u32(g2 * 4096, 0xDEAD1234)
        assert vm.guest_mem.read_gfn(g1) == before

    def test_alias_of_noncanonical_frame_is_not_double_freed(self):
        """Aliases whose shared frame merges *into* another canonical
        frame must free that frame exactly once."""
        hv = Hypervisor(memory_bytes=96 * MIB)
        vm = start_vm(hv, "alias2")
        # Zero pages: the aliased frame joins the huge zero-content
        # group and is non-canonical there.
        g1, g2 = sorted(vm.guest_mem.map)[-2:]
        self._forge_alias(hv, vm, g1, g2)

        sharer = PageSharer(hv)
        sharer.scan()  # double free would raise MemoryError_ here
        assert sharer.handles(vm, g1)
        assert sharer.handles(vm, g2)
        canon = vm.guest_mem.map[g1]
        assert vm.guest_mem.map[g2] == canon
        live = sum(1 for v in hv.vms.values()
                   for hfn in v.guest_mem.map.values() if hfn == canon)
        assert sharer.refcount[canon] == live

    def test_refcount_equals_live_mapping_count(self):
        """Invariant: every shared hfn's refcount equals the number of
        live gfn mappings pointing at it, through scans and COW."""
        hv = Hypervisor(memory_bytes=96 * MIB)
        vms = [start_vm(hv, f"p{i}", passes=1200) for i in range(3)]
        sharer = PageSharer(hv)
        for _ in range(3):
            sharer.scan()
            for vm in vms:
                hv.run(vm, max_guest_instructions=150_000)
        mapping_count = {}
        for vm in hv.vms.values():
            for hfn in vm.guest_mem.map.values():
                mapping_count[hfn] = mapping_count.get(hfn, 0) + 1
        assert sharer.refcount  # scans actually merged something
        for hfn, rc in sharer.refcount.items():
            assert rc == mapping_count.get(hfn, 0), hfn
        # And every tracked sharer still maps a refcounted frame.
        for name, gfn in sharer._sharers:
            hfn = hv.vms[name].guest_mem.map[gfn]
            assert hfn in sharer.refcount, (name, gfn)


    def test_merges_frees_and_refcounts_are_pinned(self):
        """Three guests (nested, hmode, shadow) and a forged alias,
        scanned three times with runs between: each scan's counts, the
        free frames, COW breaks and a digest of refcounts, sharers and
        every gfn -> hfn map, as taken when the scan still hashed each
        frame and regrouped candidates by bytes."""
        hv = Hypervisor(memory_bytes=96 * MIB)
        vms = [start_vm(hv, f"s{i}", mmu_mode=mode, passes=1200)
               for i, mode in enumerate([MMUVirtMode.NESTED, MMUVirtMode.HMODE,
                                         MMUVirtMode.SHADOW])]
        self._forge_alias(hv, vms[0], *sorted(vms[0].guest_mem.map)[-2:])
        sharer = PageSharer(hv)
        scans = []
        for _ in range(3):
            r = sharer.scan()
            scans.append((r.frames_scanned, r.pages_merged, r.frames_freed,
                          r.shared_frames))
            for vm in vms:
                hv.run(vm, max_guest_instructions=150_000)
        assert scans == [(12288, 12264, 12263, 23), (12288, 37, 37, 23),
                         (12288, 0, 0, 23)]
        assert (hv.allocator.free_frames, sharer.cow_breaks) == (24523, 54)
        state = repr((sorted(sharer.refcount.items()), sorted(sharer._sharers),
                      [sorted(vm.guest_mem.map.items()) for vm in vms],
                      hv.allocator.free_frames, sharer.cow_breaks))
        assert hashlib.sha256(state.encode()).hexdigest() == (
            "7163a0d17ded26a86fc19c8059223c1dd7d385b8711564c54d5c08c90b66ae4c")


class TestHostSwapEdgeCases:
    def test_swap_in_nothing_evictable_raises_typed_error(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = start_vm(hv, "dry")
        swap = HostSwap(hv)
        swap.install(vm)
        gfn = sorted(vm.guest_mem.map)[10]
        content = vm.guest_mem.read_gfn(gfn)
        swap.swap_out(vm, gfn)
        while hv.allocator.free_frames:
            hv.allocator.alloc()
        # Simulate every resident page being pinned/shared: nothing the
        # LRU can give back.
        swap._resident_lru.clear()
        with pytest.raises(MemoryError_, match="nothing evictable"):
            swap.swap_in(vm, gfn)
        # The only copy of the page must survive the failed page-in.
        assert gfn in vm.swapped
        assert vm.swapped[gfn] == content

    def test_install_is_idempotent(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = start_vm(hv, "twice")
        swap = HostSwap(hv)
        swap.install(vm)
        order = list(swap._resident_lru)
        swap.evict_some(5)
        after_evict = list(swap._resident_lru)
        swap.install(vm)  # second install: no re-seed, no re-wire
        assert list(swap._resident_lru) == after_evict
        assert len(after_evict) == len(order) - 5

    def test_two_owners_cannot_clobber_each_other(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        swap = HostSwap(hv)
        with pytest.raises(ConfigError):
            HostSwap(hv)
        assert hv.swap is swap


class TestBalloonPolicyValidation:
    def test_duplicate_vm_rejected(self):
        policy = BalloonPolicy(host_pages=1000)
        policy.add_vm("a", 100, 50)
        with pytest.raises(ConfigError):
            policy.add_vm("a", 200, 80)

    def test_zero_wss_on_a_one_page_host(self):
        # Zero total WSS with one page available (used to divide by zero).
        policy = BalloonPolicy(host_pages=1)
        policy.add_vm("a", 200, 0)
        policy.add_vm("b", 200, 0)
        targets = {t.name: t.target_pages for t in policy.compute_targets()}
        assert sum(targets.values()) <= 1

    def test_negative_pages_rejected(self):
        policy = BalloonPolicy(host_pages=1000)
        with pytest.raises(ConfigError):
            policy.add_vm("a", -1, 0)
        with pytest.raises(ConfigError):
            policy.add_vm("b", 10, -5)

    def test_scaled_wss_floor_respects_available(self):
        # 9 VMs on a 10-page host: the per-VM floor of one page would
        # push the aggregate past what is available; the overshoot must
        # be trimmed from the largest targets.
        policy = BalloonPolicy(host_pages=10)
        policy.add_vm("big", 2000, 1000)
        for i in range(8):
            policy.add_vm(f"s{i}", 100, 1)
        targets = {t.name: t.target_pages for t in policy.compute_targets()}
        assert sum(targets.values()) <= 10
        assert all(t >= 1 for t in targets.values())
        assert targets["big"] >= targets["s0"]
