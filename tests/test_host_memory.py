"""Host RAM is demand-backed: ``PhysicalMemory`` is a private anonymous
mapping, and a frame that reads zero is never written to zero it.

The invariant: every frame ``FrameAllocator.alloc()`` hands out reads
zero, unless its caller asked for ``zero=False``. A fresh frame is not
touched (only the allocator's callers store to host RAM); a frame that
came back through ``free`` is zero-filled. Each free path the repository
has is driven below with data in the frames it frees, and every frame
freed holding data is then handed out again.
"""

import gc
import os

import pytest

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.mem.physmem import ZERO_PAGE, FrameAllocator, PhysicalMemory
from repro.overcommit import HostSwap, PageSharer
from repro.util.units import MIB, PAGE_SIZE

GFNS = range(40, 48)  # guest frames the tests fill; no VM's tables live there


class Handouts:
    """While installed: each frame ``FrameAllocator.alloc`` handed out,
    as ``(pfn, zero asked, freed holding data, reads zero)``, and the
    frames freed holding data that were not handed out since."""

    def __init__(self, monkeypatch):
        self.log, self.stale = [], set()
        alloc, free = FrameAllocator.alloc, FrameAllocator.free

        def logged_free(allocator, pfn):
            if allocator.physmem.read_frame(pfn) != ZERO_PAGE:
                self.stale.add(pfn)
            free(allocator, pfn)

        def logged_alloc(allocator, zero=True):
            pfn = alloc(allocator, zero)
            self.log.append((pfn, zero, pfn in self.stale,
                             allocator.physmem.read_frame(pfn) == ZERO_PAGE))
            self.stale.discard(pfn)
            return pfn

        monkeypatch.setattr(FrameAllocator, "free", logged_free)
        monkeypatch.setattr(FrameAllocator, "alloc", logged_alloc)

    def drain(self, allocator):
        """Hand out frames until every one freed holding data is out
        again (freed frames go out before fresh ones)."""
        while self.stale:
            allocator.alloc()

    def check(self):
        zeroed = [entry for entry in self.log if entry[1]]
        assert [entry for entry in zeroed if not entry[3]] == []
        assert any(entry[2] for entry in zeroed), "no frame held data when handed out"


@pytest.fixture
def handouts(monkeypatch):
    return Handouts(monkeypatch)


def _vm(hv, name, mmu_mode=MMUVirtMode.NESTED, memory_bytes=1 * MIB):
    return hv.create_vm(GuestConfig(name=name, memory_bytes=memory_bytes,
                                    virt_mode=VirtMode.HW_ASSIST, mmu_mode=mmu_mode))


def _fill(vm, byte):
    for gfn in GFNS:
        vm.guest_mem.write_gfn(gfn, bytes([byte]) * PAGE_SIZE)


def test_a_fresh_frame_reads_zero_and_is_not_written():
    pm = PhysicalMemory(16 * PAGE_SIZE)
    written = []
    pm.watch_writes(set(range(pm.num_frames)), written.append)
    allocator = FrameAllocator(pm, reserved_frames=2)
    frames = [allocator.alloc() for _ in range(allocator.free_frames)]
    assert frames == list(range(2, 16))
    assert all(pm.read_frame(pfn) == ZERO_PAGE for pfn in frames)
    assert written == []


def test_balloon_give_then_take(handouts):
    hv = Hypervisor(memory_bytes=8 * MIB)
    vm = _vm(hv, "b")
    _fill(vm, 0xA5)
    for gfn in GFNS:
        assert hv.balloon_give(vm, gfn)
    for gfn in GFNS:
        assert hv.balloon_take(vm, gfn)
        assert vm.guest_mem.read_gfn(gfn) == ZERO_PAGE
    assert not handouts.stale
    handouts.check()


def test_page_sharing_merge_and_copy_on_write_break(handouts):
    hv = Hypervisor(memory_bytes=8 * MIB)
    a, b = _vm(hv, "a"), _vm(hv, "b")
    _fill(a, 0x3C)
    _fill(b, 0x3C)
    sharer = PageSharer(hv)
    assert sharer.scan().frames_freed >= len(GFNS)  # b's copies go
    for gfn in GFNS:
        sharer.on_write_fault(a, gfn)  # a copy into alloc(zero=False)
        assert a.guest_mem.read_gfn(gfn) == b"\x3c" * PAGE_SIZE
    handouts.drain(hv.allocator)
    handouts.check()


def test_swap_out_and_in(handouts):
    hv = Hypervisor(memory_bytes=8 * MIB)
    vm = _vm(hv, "s", MMUVirtMode.SHADOW)
    _fill(vm, 0x77)
    swap = HostSwap(hv)
    swap.install(vm)
    for gfn in GFNS:
        swap.swap_out(vm, gfn)
    swap.swap_in(vm, GFNS[0])  # alloc(zero=False), then its bytes
    assert vm.guest_mem.read_gfn(GFNS[0]) == b"\x77" * PAGE_SIZE
    handouts.drain(hv.allocator)
    handouts.check()


@pytest.mark.parametrize("mmu_mode", [MMUVirtMode.NESTED, MMUVirtMode.SHADOW])
def test_a_torn_down_vm_and_its_tables(handouts, mmu_mode):
    """``destroy_vm`` frees the guest's frames and its G-stage or shadow
    tables; a VM built next on the same host gets them back zeroed."""
    hv = Hypervisor(memory_bytes=8 * MIB)
    vm = _vm(hv, "old", mmu_mode)
    _fill(vm, 0x11)
    hv.destroy_vm(vm)
    fresh = _vm(hv, "new", mmu_mode)
    assert all(fresh.guest_mem.read_gfn(gfn) == ZERO_PAGE for gfn in GFNS)
    handouts.drain(hv.allocator)
    handouts.check()


def _resident_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads the resident set from /proc/self/statm")
def test_a_fresh_hypervisor_is_not_resident():
    """Neither the host's RAM nor a guest's preallocated frames are
    backed before anything is stored to them."""
    gc.collect()
    before = _resident_bytes()
    hv = Hypervisor(memory_bytes=256 * MIB)
    vm = _vm(hv, "idle", memory_bytes=64 * MIB)
    grown = _resident_bytes() - before
    assert vm.guest_mem.map and hv.physmem.size == 256 * MIB
    assert grown < 16 * MIB


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads the resident set from /proc/self/statm")
def test_a_default_vm_and_its_disks_are_not_resident():
    """A default VM has both disks (1 MiB images each, demand-backed
    like host RAM): building one grows the resident set by < 1 MiB,
    averaged over a few to ride out the heap's own growth."""
    hv = Hypervisor(memory_bytes=64 * MIB)
    hv.create_vm(GuestConfig(name="warm"))
    gc.collect()
    before = _resident_bytes()
    vms = [hv.create_vm(GuestConfig(name=f"d{i}")) for i in range(8)]
    grown = _resident_bytes() - before
    assert all({"block", "virtio_blk"} <= set(vm.devices) for vm in vms)
    assert grown < len(vms) * MIB
