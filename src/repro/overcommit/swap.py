"""Host-level swapping of guest frames.

The host evicts a guest frame by stashing its contents in a host-side
store, the VM's ``swapped``, and unmapping it everywhere. The next
access to it -- the guest's own under any MMU, the shadow walker's read
of a page table, device DMA, a migrator reading the page -- reaches
``Hypervisor._fault``, which finds the gfn in ``vm.swapped`` and calls
:meth:`HostSwap.swap_in`, evicting something else if the host is still
tight. An unbacked gfn nobody holds (not swapped, not remote to a
post-copy) is backed by :meth:`HostSwap.back`, which LRU-tracks it.

This is the transparent last-resort mechanism of the overcommit stack:
correct for any guest, but each fault costs a "disk" access, which is
why E7 shows swap-only overcommit collapsing where balloon + sharing
still perform.
"""

from collections import OrderedDict
from typing import Tuple

from repro.core.hypervisor import Hypervisor
from repro.core.vm import VirtualMachine
from repro.obs.registry import counter_attr
from repro.util.errors import ConfigError, MemoryError_


#: What bringing one page back from the swap device costs the VMM.
SWAP_IN_CYCLES = 200_000


class HostSwap:
    """Per-hypervisor swap device with LRU-ish victim selection; it
    installs itself as ``hypervisor.swap``, one per host."""

    swap_outs = counter_attr()
    swap_ins = counter_attr()

    def __init__(self, hypervisor: Hypervisor):
        if hypervisor.swap is not None:
            raise ConfigError("a HostSwap is already installed on this host")
        hypervisor.swap = self
        self.hv = hypervisor
        self.metrics = hypervisor.registry.scope("overcommit.swap")
        self._ops = hypervisor.registry.counter("overcommit.operations")
        #: Insertion-ordered map of resident (vm name, gfn) -> vm, used
        #: for victim selection when swapping in under pressure.
        self._resident_lru: "OrderedDict[Tuple[str, int], VirtualMachine]" = (
            OrderedDict()
        )

    def install(self, vm: VirtualMachine) -> None:
        """Seed the LRU with one VM's resident pages; a page already in
        it keeps its place (a second install changes no eviction order)."""
        for gfn in vm.guest_mem.map:
            self._resident_lru.setdefault((vm.name, gfn), vm)

    # -- eviction -----------------------------------------------------------

    def swap_out(self, vm: VirtualMachine, gfn: int) -> None:
        """Evict one guest frame to the host store."""
        if not vm.guest_mem.is_mapped(gfn):
            raise MemoryError_(f"swap_out of unmapped gfn {gfn} in {vm.name}")
        if self.hv.sharing is not None and self.hv.sharing.handles(vm, gfn):
            raise MemoryError_("cannot swap a shared page; break it first")
        content = vm.guest_mem.read_gfn(gfn)
        vm.vcpus[0].cpu.mmu.drop_gfns((gfn,))
        hfn = vm.guest_mem.unmap_page(gfn)
        self.hv.allocator.free(hfn)
        vm.swapped[gfn] = content
        self._resident_lru.pop((vm.name, gfn), None)
        self.swap_outs += 1
        self._ops.inc()

    def evict_some(self, count: int) -> int:
        """Evict up to ``count`` resident pages (oldest first)."""
        evicted = 0
        for key in list(self._resident_lru):
            if evicted >= count:
                break
            vm = self._resident_lru[key]
            name, gfn = key
            if name not in self.hv.vms or not vm.guest_mem.is_mapped(gfn):
                self._resident_lru.pop(key, None)
                continue
            if self.hv.sharing is not None and self.hv.sharing.handles(vm, gfn):
                self._resident_lru.move_to_end(key)
                continue
            self.swap_out(vm, gfn)
            evicted += 1
        return evicted

    # -- page-in ------------------------------------------------------------

    def back(self, vm: VirtualMachine, gfn: int, zero: bool) -> int:
        """Back ``gfn`` with a frame, evicting one first when the host is
        dry, and LRU-track it.

        Eviction can legitimately find nothing (every resident page
        shared, or the LRU empty); surface that as a typed
        :class:`MemoryError_` with context rather than an uncaught
        allocator failure mid-fault.
        """
        if self.hv.allocator.free_frames == 0:
            self.evict_some(1)
        if self.hv.allocator.free_frames == 0:
            raise MemoryError_(
                f"host out of frames backing gfn {gfn} of {vm.name}: "
                f"nothing evictable ({len(self._resident_lru)} LRU entries, "
                f"{len(vm.swapped)} of its pages already swapped)"
            )
        hfn = self.hv.allocator.alloc(zero=zero)
        vm.guest_mem.map_page(gfn, hfn)
        self._resident_lru[(vm.name, gfn)] = vm
        return hfn

    def swap_in(self, vm: VirtualMachine, gfn: int) -> None:
        """Bring a swapped page back (charging the fault cost)."""
        content = vm.swapped.get(gfn)
        if content is None:
            raise MemoryError_(f"gfn {gfn} of {vm.name} is not swapped")
        # Back the gfn before popping the store: a failed eviction must
        # not lose the only copy of the page.
        hfn = self.back(vm, gfn, zero=False)
        del vm.swapped[gfn]
        self.hv.physmem.write_frame(hfn, content)
        vm.stats.vmm_cycles += SWAP_IN_CYCLES
        self.swap_ins += 1
        self._ops.inc()
