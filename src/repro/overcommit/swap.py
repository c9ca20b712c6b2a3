"""Host-level swapping of guest frames.

The host evicts a guest frame by stashing its contents in a host-side
store and unmapping it everywhere. The next guest touch faults --
through the shadow fill path (``page_in_hook``) or an EPT violation --
and the page is brought back in, evicting something else if the host is
still tight. EPT faults arrive through the hypervisor's composable
dispatch chain: the swap-in handler claims only gfns it actually holds,
and a fallback-tier handler demand-allocates (and LRU-tracks) whatever
every other owner declined, so host swap composes with post-copy
migration instead of stealing its faults.

This is the transparent last-resort mechanism of the overcommit stack:
correct for any guest, but each fault costs a "disk" access, which is
why E7 shows swap-only overcommit collapsing where balloon + sharing
still perform.
"""

from collections import OrderedDict
from typing import Dict, Set, Tuple

from repro.core.hypervisor import Hypervisor
from repro.core.shadow import ShadowMMU
from repro.core.vm import VirtualMachine
from repro.obs.registry import counter_attr
from repro.util.errors import MemoryError_


class HostSwap:
    """Per-hypervisor swap device with LRU-ish victim selection."""

    swap_outs = counter_attr()
    swap_ins = counter_attr()

    def __init__(self, hypervisor: Hypervisor, swap_in_cost_cycles: int = 200_000):
        self.hv = hypervisor
        self.swap_in_cost_cycles = swap_in_cost_cycles
        self.metrics = hypervisor.registry.scope("overcommit.swap")
        self._ops = hypervisor.registry.counter("overcommit.operations")
        self._store: Dict[Tuple[str, int], bytes] = {}
        #: Insertion-ordered map of resident (vm name, gfn) -> vm, used
        #: for victim selection when swapping in under pressure.
        self._resident_lru: "OrderedDict[Tuple[str, int], VirtualMachine]" = (
            OrderedDict()
        )
        #: VM names already wired by :meth:`install` (idempotence).
        self._installed: Set[str] = set()
        hypervisor.register_ept_fault_handler(self._ept_fault, name="swap_in")
        hypervisor.register_ept_fault_handler(
            self._demand_alloc, name="swap_demand", fallback=True
        )

    def install(self, vm: VirtualMachine) -> None:
        """Wire the page-in path for one VM and seed the LRU.

        Idempotent per VM: a second install neither re-seeds (which
        would scramble eviction order) nor double-wires the hook.
        """
        if vm.name in self._installed:
            return
        self._installed.add(vm.name)
        mmu = vm.vcpus[0].cpu.mmu
        if isinstance(mmu, ShadowMMU):
            mmu.page_in_hook = lambda gfn, _vm=vm: self.swap_in(_vm, gfn)
        for gfn in vm.guest_mem.map:
            self._resident_lru[(vm.name, gfn)] = vm

    # -- eviction -----------------------------------------------------------

    def swap_out(self, vm: VirtualMachine, gfn: int) -> None:
        """Evict one guest frame to the host store."""
        if not vm.guest_mem.is_mapped(gfn):
            raise MemoryError_(f"swap_out of unmapped gfn {gfn} in {vm.name}")
        if self.hv.sharing is not None and self.hv.sharing.handles(vm, gfn):
            raise MemoryError_("cannot swap a shared page; break it first")
        content = vm.guest_mem.read_gfn(gfn)
        vm.vcpus[0].cpu.mmu.drop_gfn(gfn)
        hfn = vm.guest_mem.unmap_page(gfn)
        self.hv.allocator.free(hfn)
        self._store[(vm.name, gfn)] = content
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

    def _alloc_or_evict(self, vm: VirtualMachine, gfn: int, zero: bool) -> int:
        """Allocate a frame, evicting one first when the host is dry.

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
                f"{self.swapped_pages} already swapped)"
            )
        return self.hv.allocator.alloc(zero=zero)

    def swap_in(self, vm: VirtualMachine, gfn: int) -> None:
        """Bring a swapped page back (charging the fault cost)."""
        key = (vm.name, gfn)
        content = self._store.get(key)
        if content is None:
            raise MemoryError_(f"gfn {gfn} of {vm.name} is not swapped")
        # Allocate before popping the store: a failed eviction must not
        # lose the only copy of the page.
        hfn = self._alloc_or_evict(vm, gfn, zero=False)
        del self._store[key]
        self.hv.physmem.write_frame(hfn, content)
        vm.guest_mem.map_page(gfn, hfn)
        self._resident_lru[key] = vm
        vm.stats.vmm_cycles += self.swap_in_cost_cycles
        self.swap_ins += 1
        self._ops.inc()

    def is_swapped(self, vm: VirtualMachine, gfn: int) -> bool:
        return (vm.name, gfn) in self._store

    @property
    def swapped_pages(self) -> int:
        return len(self._store)

    # -- EPT-fault chain entries --------------------------------------------

    def _ept_fault(self, vm: VirtualMachine, gfn: int, _access) -> bool:
        """Claim faults on pages this swap actually holds."""
        if not self.is_swapped(vm, gfn):
            return False
        self.swap_in(vm, gfn)
        return True

    def _demand_alloc(self, vm: VirtualMachine, gfn: int, _access) -> bool:
        """Fallback tier: demand-allocate what every owner declined,
        keeping the residency LRU complete."""
        vm.guest_mem.map_page(gfn, self._alloc_or_evict(vm, gfn, zero=True))
        self._resident_lru[(vm.name, gfn)] = vm
        return True
