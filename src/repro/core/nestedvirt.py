"""Hypervisor-under-hypervisor: an inner VMM inside an H-mode guest.

The scenario the H-mode extension makes first-class: an L0 hypervisor
hosts an L1 guest under hardware-assisted virtualization with two-stage
paging, and the *software running in that guest* is itself a hypervisor
whose shadow/nested software MMU paths manage an L2 guest.

The simulator models the L1 hypervisor as a :class:`Hypervisor` whose
"physical" memory is the L1 guest's RAM: H-mode preallocation hands the
guest an ascending contiguous run of host frames (asserted by
:func:`guest_ram_window`), so the guest-physical address space is a flat
window of L0 RAM and :class:`AliasedPhysicalMemory` exposes exactly that
window, zero-copy. Every byte the inner VMM or its L2 guest touches is
a byte of the H-mode guest's RAM under the G-stage table, which keeps
L0-level machinery (snapshots, dirty logging, ballooning) truthful
about the nested state.

One caveat is inherent to the aliasing: stores through the inner view
bypass the *outer* memory's write watchers (the compiled-code
invalidation tap). That is fine here because the L1 vCPU does not
execute VISA code concurrently with the inner VMM -- the inner VMM *is*
the model of the L1 guest's software.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.hypervisor import Hypervisor
from repro.core.modes import MMUVirtMode, VirtMode
from repro.core.vm import GuestConfig, VirtualMachine
from repro.mem.costs import CostModel
from repro.mem.physmem import PhysicalMemory
from repro.util.errors import ConfigError, MemoryError_
from repro.util.units import MIB, PAGE_SHIFT, PAGE_SIZE


def guest_ram_window(vm: VirtualMachine) -> Tuple[int, int]:
    """The guest's backing as one host-physical window: ``(base, size)``.

    Requires every gfn mapped and the host frames ascending and
    contiguous -- what preallocation on a fresh hypervisor produces.
    Raises :class:`MemoryError_` otherwise (a ballooned, swapped, or
    shared guest has no flat window to alias).
    """
    mem = vm.guest_mem
    try:
        hfns = [mem.map[gfn] for gfn in range(mem.num_pages)]
    except KeyError as exc:
        raise MemoryError_(
            f"guest {vm.name!r} gfn {exc.args[0]} is unbacked; "
            f"nested hosting needs fully preallocated RAM"
        ) from None
    base = hfns[0]
    for i, hfn in enumerate(hfns):
        if hfn != base + i:
            raise MemoryError_(
                f"guest {vm.name!r} RAM is not physically contiguous at "
                f"gfn {i} (hfn {hfn}, expected {base + i})"
            )
    return base << PAGE_SHIFT, mem.num_pages << PAGE_SHIFT


class AliasedPhysicalMemory(PhysicalMemory):
    """A zero-copy :class:`PhysicalMemory` view of another's window.

    Reads and writes go straight to ``backing``'s bytes; there is no
    second copy to keep coherent. Addresses are window-relative, so a
    hypervisor built over the view sees an ordinary flat RAM starting
    at zero.
    """

    def __init__(self, backing: PhysicalMemory, base_pa: int, nbytes: int):
        if base_pa % PAGE_SIZE:
            raise MemoryError_(f"window base {base_pa:#x} not page aligned")
        backing._check(base_pa, nbytes)
        super().__init__(nbytes)
        self.backing = backing
        self.base_pa = base_pa
        self._data = self._view = (
            memoryview(backing._data)[base_pa : base_pa + nbytes])


@dataclass
class NestedHost:
    """An L0 hypervisor, its H-mode L1 guest, and the inner VMM."""

    outer: Hypervisor
    l1_vm: VirtualMachine
    inner: Hypervisor
    #: The L1 guest's RAM as a host-physical window (base, size).
    window: Tuple[int, int]


def build_nested_host(
    outer_memory_bytes: int = 64 * MIB,
    l1_memory_bytes: int = 24 * MIB,
    costs: Optional[CostModel] = None,
    registry=None,
    l1_name: str = "l1",
) -> NestedHost:
    """Stand up the hypervisor-under-hypervisor stack.

    The L0 hypervisor hosts one H-mode guest (``l1_name``) with fully
    preallocated RAM; the returned inner :class:`Hypervisor` runs over
    that RAM and is ready for ``create_vm`` of L2 guests using the
    software shadow/nested MMU paths.
    """
    outer = Hypervisor(
        memory_bytes=outer_memory_bytes, costs=costs, registry=registry
    )
    l1_vm = outer.create_vm(
        GuestConfig(
            name=l1_name,
            memory_bytes=l1_memory_bytes,
            virt_mode=VirtMode.HW_ASSIST,
            mmu_mode=MMUVirtMode.HMODE,
            prealloc=True,
        )
    )
    base, size = guest_ram_window(l1_vm)
    inner_pm = AliasedPhysicalMemory(outer.physmem, base, size)
    inner = Hypervisor(costs=costs, physmem=inner_pm)
    return NestedHost(outer=outer, l1_vm=l1_vm, inner=inner,
                      window=(base, size))


def create_l2_vm(
    host: NestedHost,
    virt_mode: VirtMode,
    mmu_mode: MMUVirtMode,
    memory_bytes: int = 16 * MIB,
    name: str = "l2",
) -> VirtualMachine:
    """An L2 guest under the inner VMM's software MMU path.

    The inner hypervisor must not itself use H-mode -- the point of the
    scenario is the *software* shadow/nested paths running inside an
    H-mode guest (and recursion would model hardware the L1 "machine"
    does not expose to its guests).
    """
    if mmu_mode is MMUVirtMode.HMODE:
        raise ConfigError(
            "the inner hypervisor has no H-mode hardware; "
            "use shadow or nested for L2 guests"
        )
    return host.inner.create_vm(
        GuestConfig(
            name=name,
            memory_bytes=memory_bytes,
            virt_mode=virt_mode,
            mmu_mode=mmu_mode,
        )
    )
