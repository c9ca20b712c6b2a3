"""Virtual machine objects: configuration, guest-physical memory, the VM.

:class:`GuestMemory` is the gPA -> hPA indirection every other piece
builds on. The host side reaches guest memory through its accessors --
device DMA, the VMM's own emulation -- under the mapping state a guest
access obeys; ballooning, swap and page sharing re-point it.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.core.modes import MMUVirtMode, VirtMode
from repro.core.stats import ExitStats, VMStats
from repro.cpu.isa import Cause
from repro.devices.bus import PortBus
from repro.mem.paging import AccessType
from repro.mem.physmem import PhysicalMemory, WriteLog
from repro.util.errors import ConfigError, MemoryError_
from repro.util.units import MIB, PAGE_SHIFT, PAGE_SIZE

_READ, _WRITE = AccessType.READ, AccessType.WRITE  # bound once: enum lookups


@dataclass
class GuestConfig:
    """Static configuration of one VM."""

    name: str = "vm"
    memory_bytes: int = 4 * MIB
    virt_mode: VirtMode = VirtMode.HW_ASSIST
    mmu_mode: MMUVirtMode = MMUVirtMode.NESTED
    #: Allocate and map all guest frames up front (False = demand-page
    #: through EPT violations; only meaningful with nested paging).
    prealloc: bool = True
    #: Attach virtio devices instead of (or in addition to) emulated ones.
    with_virtio: bool = True
    with_emulated_io: bool = True

    def validate(self) -> None:
        if self.memory_bytes <= 0 or self.memory_bytes % PAGE_SIZE:
            raise ConfigError(
                f"guest memory must be a positive multiple of {PAGE_SIZE}"
            )
        if self.virt_mode is VirtMode.NATIVE:
            raise ConfigError("NATIVE mode runs on a Machine, not in a VM")
        if (
            self.virt_mode is not VirtMode.HW_ASSIST
            and self.mmu_mode is not MMUVirtMode.SHADOW
        ):
            raise ConfigError(
                f"{self.virt_mode.value} requires shadow paging "
                f"({self.mmu_mode.value} paging needs hardware assistance)"
            )
        if not self.prealloc and self.mmu_mode is MMUVirtMode.SHADOW:
            raise ConfigError(
                "demand paging of guest RAM requires nested or hmode"
            )


class GuestMemory:
    """Guest-physical address space: a gfn -> hfn map over host RAM.

    All byte accessors accept arbitrary (possibly page-crossing) ranges.
    Reaching a gfn the map lacks, or writing one in ``write_protected``,
    first calls ``fault(gfn, write)``: the hypervisor's routine a guest
    access reaches (swap-in, post-copy fetch, dirty log, COW break). A
    write into a gfn in ``tables`` then calls ``tables_written(gpa,
    length)``: under shadow paging those are the guest's page tables,
    and whoever wrote one (device DMA, an emulated store, a hypercall)
    has changed translations the shadows were derived from.
    """

    def __init__(self, host_physmem: PhysicalMemory, num_pages: int):
        if num_pages <= 0:
            raise MemoryError_("guest needs at least one page")
        self.host = host_physmem
        self.num_pages = num_pages
        self.map: Dict[int, int] = {}  # gfn -> hfn
        #: gfns whose writes the host intercepts (dirty logging, COW):
        #: the one copy, read by both MMU classes and the accessors.
        self.write_protected: Set[int] = set()
        #: Set by ``Hypervisor._build_machine``.
        self.fault: Optional[Callable[[int, bool], None]] = None
        #: A shadow MMU's ``pt_gfns`` and ``tables_written``; set by
        #: ``Hypervisor._build_machine`` (empty under two-stage paging).
        self.tables: Set[int] = set()
        self.tables_written: Optional[Callable[[int, int], None]] = None
        #: What ``Hypervisor.recycle_vm`` zeroes (None before the first).
        self.write_log: Optional[WriteLog] = None

    @property
    def size(self) -> int:
        return self.num_pages << PAGE_SHIFT

    def map_page(self, gfn: int, hfn: int) -> None:
        if not 0 <= gfn < self.num_pages:
            raise MemoryError_(f"gfn {gfn} outside guest of {self.num_pages} pages")
        self.map[gfn] = hfn

    def unmap_page(self, gfn: int) -> int:
        """Remove a mapping; returns the host frame it pointed to."""
        try:
            return self.map.pop(gfn)
        except KeyError:
            raise MemoryError_(f"gfn {gfn} not mapped") from None

    def is_mapped(self, gfn: int) -> bool:
        return gfn in self.map

    def gpa_to_hpa(self, gpa: int, access: AccessType = _READ) -> int:
        """Host address of ``gpa``, once an ``access`` (READ or WRITE) of
        it may proceed: the shadow MMU's step for walking guest tables."""
        gfn = gpa >> PAGE_SHIFT
        hfn = self.map.get(gfn)
        if hfn is None or access is _WRITE and gfn in self.write_protected:
            if self.fault is not None and gfn < self.num_pages:
                self.fault(gfn, access is _WRITE)
            hfn = self.map.get(gfn)
            if hfn is None:
                raise MemoryError_(f"guest-physical {gpa:#x} not backed (gfn {gfn})")
        return (hfn << PAGE_SHIFT) | (gpa & (PAGE_SIZE - 1))

    def backing(self, gfn: int) -> int:
        """The host frame behind ``gfn``, once it may be read."""
        return self.gpa_to_hpa(gfn << PAGE_SHIFT) >> PAGE_SHIFT

    # -- scalar accessors ------------------------------------------------

    def read_u32(self, gpa: int) -> int:
        return self.host.read_u32(self.gpa_to_hpa(gpa))

    def write_u32(self, gpa: int, value: int) -> None:
        self.host.write_u32(self.gpa_to_hpa(gpa, _WRITE), value)
        if gpa >> PAGE_SHIFT in self.tables:
            self.tables_written(gpa, 4)

    def write_u8(self, gpa: int, value: int) -> None:
        self.host.write_u8(self.gpa_to_hpa(gpa, _WRITE), value)
        if gpa >> PAGE_SHIFT in self.tables:
            self.tables_written(gpa, 1)

    # -- bulk accessors (page-crossing safe) --------------------------------

    def read_bytes(self, gpa: int, length: int) -> bytes:
        chunks = []
        while length > 0:
            in_page = min(length, PAGE_SIZE - (gpa & (PAGE_SIZE - 1)))
            chunks.append(self.host.read_bytes(self.gpa_to_hpa(gpa), in_page))
            gpa += in_page
            length -= in_page
        return b"".join(chunks)

    def write_bytes(self, gpa: int, data: bytes) -> None:
        offset = 0
        while offset < len(data):
            in_page = min(len(data) - offset, PAGE_SIZE - (gpa & (PAGE_SIZE - 1)))
            self.host.write_bytes(self.gpa_to_hpa(gpa, _WRITE), data[offset : offset + in_page])
            if gpa >> PAGE_SHIFT in self.tables:
                self.tables_written(gpa, in_page)
            gpa += in_page
            offset += in_page

    def read_gfn(self, gfn: int) -> bytes:
        return self.host.read_bytes(self.gpa_to_hpa(gfn << PAGE_SHIFT), PAGE_SIZE)

    def write_gfn(self, gfn: int, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise MemoryError_("write_gfn needs exactly one page of data")
        self.write_bytes(gfn << PAGE_SHIFT, data)


class VirtualMachine:
    """One guest: memory, vCPUs, virtual devices, statistics.

    Construction wires nothing up -- :meth:`repro.core.hypervisor.
    Hypervisor.create_vm` is the factory that allocates memory, builds
    the MMU, attaches devices, and registers the VM.
    """

    def __init__(self, config: GuestConfig, guest_mem: GuestMemory, metrics):
        config.validate()
        self.config = config
        self.name = config.name
        self.guest_mem = guest_mem
        self.vcpus: List = []
        self.port_bus = PortBus()  # virtual device bus
        self.pic = None  # virtual InterruptController
        self.bt = None  # BTEngine under BINARY_TRANSLATION
        self.devices: Dict[str, object] = {}
        #: this VM's namespace (``vm.<name>``) in the run's registry
        self.metrics = metrics
        self.exit_stats = ExitStats(metrics)
        self.stats = VMStats(metrics)
        #: (world_switches, vmm_cycles) counters, bound at the first exit.
        self.exit_counters = None
        #: virtual IRQ causes awaiting injection (deprivileged modes).
        self.pending_virqs: Set[Cause] = set()
        #: set by the balloon driver: gfns surrendered to the host.
        self.ballooned_gfns: Set[int] = set()

    @property
    def num_pages(self) -> int:
        return self.guest_mem.num_pages

    # The PIC's interrupt sink: route a coalesced interrupt toward the
    # vCPU. Under HW_ASSIST injection goes straight into the core's
    # pending set (hardware event injection); under deprivileged modes
    # the VMM reflects it at the next exit boundary, respecting the
    # guest's *virtual* IE.
    def assert_irq(self, cause: Cause) -> None:
        if self.config.virt_mode is VirtMode.HW_ASSIST:
            for vcpu in self.vcpus:
                vcpu.cpu.assert_irq(cause)
                vcpu.halted = False
        else:
            self.pending_virqs.add(cause)
            for vcpu in self.vcpus:
                vcpu.halted = False

    def __repr__(self) -> str:
        return (
            f"<VirtualMachine {self.name} {self.config.virt_mode.value}/"
            f"{self.config.mmu_mode.value} {self.num_pages} pages>"
        )
