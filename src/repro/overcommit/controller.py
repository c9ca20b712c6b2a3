"""Closed-loop memory pressure controller.

E7 measures the overcommit mechanisms -- ballooning, content-based
sharing, host swap -- in isolation; this module closes the loop the
experiment implies. On every tick the controller:

1. samples per-VM working sets by access-bit scan
   (:func:`repro.overcommit.wss.count_accessed` over what accrued since
   the previous tick, then clears the bits for the next interval);
2. feeds the samples to a fresh :class:`~repro.overcommit.balloon.\
BalloonPolicy` and executes the resulting inflate targets through the
   balloon mechanism (:meth:`Hypervisor.balloon_give`), with hysteresis
   so a target wobbling by a few pages does not thrash the guest;
3. runs a periodic :class:`~repro.overcommit.sharing.PageSharer` scan;
4. falls back to :class:`~repro.overcommit.swap.HostSwap` eviction only
   when the free-frame count is still below the watermark -- swap is
   the correct-for-any-guest last resort, not the first lever.

Balloon victims are chosen conservatively: only guest frames that are
*cold* (ACCESSED bit clear), *unshared*, and whose backing frame is
**all zeroes**. A surrendered zero page that the guest later refaults is
rebuilt bit-identically by the demand-zero path, so the controller
never alters guest-visible memory contents -- the safety property the
correctness sweep in ``bench/e7_overcommit.py`` asserts.

Fault sites (see :mod:`repro.faults.injector`):

* ``overcommit.scan_stall`` -- the scheduled sharing scan stalls and is
  skipped this tick;
* ``overcommit.balloon_refuse`` -- a guest's balloon driver refuses the
  inflate request this tick (retried on the next).

Every tick appends a :class:`TickRecord` to :attr:`
MemoryPressureController.tick_log`; the serialized log is part of E7's
byte-reproducible manifest.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.core.hypervisor import Hypervisor
from repro.core.vm import VirtualMachine
from repro.mem.physmem import ZERO_PAGE as _ZERO_PAGE
from repro.overcommit.balloon import BalloonPolicy
from repro.overcommit.sharing import PageSharer
from repro.overcommit.swap import HostSwap
from repro.overcommit.wss import accessed_gfns, clear_access_bits
from repro.util.errors import ConfigError, GuestError


#: Ignore inflate deltas at or below this many pages (hysteresis).
HYSTERESIS_PAGES = 8
#: Run a sharing scan every this many ticks.
SCAN_PERIOD_TICKS = 4
#: Swap-evict down to this many free frames, only as a last resort.
FREE_LOW_WATERMARK = 16
#: Cap on pages ballooned out of one VM in one tick.
MAX_BALLOON_PER_TICK = 256
#: Ticks :meth:`MemoryPressureController.reclaim` tries before swapping.
RECLAIM_TICKS = 8


@dataclass
class TickRecord:
    """What one control iteration observed and did."""

    tick: int
    wss: Dict[str, int] = field(default_factory=dict)
    targets: Dict[str, int] = field(default_factory=dict)
    inflated: Dict[str, int] = field(default_factory=dict)
    balloon_refusals: int = 0
    scan_ran: bool = False
    scan_stalled: bool = False
    pages_merged: int = 0
    swap_evictions: int = 0
    free_frames_after: int = 0

    def as_dict(self) -> Dict:
        return {
            "tick": self.tick,
            "wss": dict(sorted(self.wss.items())),
            "targets": dict(sorted(self.targets.items())),
            "inflated": dict(sorted(self.inflated.items())),
            "balloon_refusals": self.balloon_refusals,
            "scan_ran": self.scan_ran,
            "scan_stalled": self.scan_stalled,
            "pages_merged": self.pages_merged,
            "swap_evictions": self.swap_evictions,
            "free_frames_after": self.free_frames_after,
        }


class MemoryPressureController:
    """Drive balloon, sharing, and swap from working-set feedback."""

    def __init__(self, hypervisor: Hypervisor):
        self.hv = hypervisor
        self.sharer = PageSharer(hypervisor)
        self.swap = HostSwap(hypervisor)
        self.metrics = hypervisor.registry.scope("overcommit.controller")
        self.ticks = 0
        self.tick_log: List[TickRecord] = []
        self._vms: List[VirtualMachine] = []
        #: last WSS sample per VM, reused when a tick cannot sample
        #: (guest paging not up yet).
        self._last_wss: Dict[str, int] = {}

    # -- membership ---------------------------------------------------------

    def manage(self, vm: VirtualMachine) -> None:
        """Put one VM under control (wires host swap for it too)."""
        if any(v.name == vm.name for v in self._vms):
            raise ConfigError(f"VM {vm.name!r} already managed")
        self._vms.append(vm)
        self.swap.install(vm)

    @property
    def managed(self) -> List[VirtualMachine]:
        """Managed VMs that still exist on the hypervisor."""
        self._vms = [vm for vm in self._vms if vm.name in self.hv.vms]
        return list(self._vms)

    # -- the control loop ---------------------------------------------------

    def tick(self) -> TickRecord:
        """One control iteration: sample, retarget, balloon, scan, swap."""
        self.ticks += 1
        record = TickRecord(tick=self.ticks)
        vms = self.managed

        cold: Dict[str, Set[int]] = {}
        for vm in vms:
            record.wss[vm.name] = self._sample_wss(vm, cold)

        if vms:
            self._apply_balloon_targets(vms, cold, record)

        if self.ticks % SCAN_PERIOD_TICKS == 0 and len(vms) > 1:
            if self._fires("overcommit.scan_stall"):
                record.scan_stalled = True
                self.metrics.counter("scan_stalls").inc()
            else:
                scan = self.sharer.scan(vms)
                record.scan_ran = True
                record.pages_merged = scan.pages_merged

        shortfall = FREE_LOW_WATERMARK - self.hv.allocator.free_frames
        if shortfall > 0:
            record.swap_evictions = self.swap.evict_some(shortfall)
            self.metrics.counter("swap_evictions").inc(record.swap_evictions)

        record.free_frames_after = self.hv.allocator.free_frames
        self.metrics.counter("ticks").inc()
        self.metrics.gauge("free_frames").set(record.free_frames_after)
        self.tick_log.append(record)
        return record

    def reclaim(self, pages: int) -> int:
        """Tick until at least ``pages`` frames are free (best effort).

        This is the admission path: before a new VM is created the host
        asks the controller to make room. Ballooning and sharing are
        tried first (cheap demand-zero refaults); whatever is still
        missing after ``RECLAIM_TICKS`` is swap-evicted (expensive faults).
        Returns the number of free frames afterwards.
        """
        for _ in range(RECLAIM_TICKS):
            if self.hv.allocator.free_frames >= pages:
                break
            self.tick()
        missing = pages - self.hv.allocator.free_frames
        if missing > 0:
            self.swap.evict_some(missing)
        return self.hv.allocator.free_frames

    # -- tick pieces --------------------------------------------------------

    def _sample_wss(self, vm: VirtualMachine, cold: Dict[str, Set[int]]) -> int:
        """Access-bit sample since the last tick; primes ``cold`` with
        the VM's mapped-but-unaccessed gfns."""
        try:
            hot = accessed_gfns(vm)
            clear_access_bits(vm)
        except GuestError:
            # Paging not enabled yet: nothing is provably cold, and the
            # best WSS guess is the previous sample (or full residency).
            cold[vm.name] = set()
            wss = self._last_wss.get(vm.name, len(vm.guest_mem.map))
            self.metrics.counter("wss_sample_skipped").inc()
            return wss
        cold[vm.name] = set(vm.guest_mem.map) - hot
        wss = len(hot)
        self._last_wss[vm.name] = wss
        return wss

    def _apply_balloon_targets(
        self,
        vms: List[VirtualMachine],
        cold: Dict[str, Set[int]],
        record: TickRecord,
    ) -> None:
        host_pages = (
            self.hv.physmem.num_frames - self.hv.allocator.reserved_frames
        )
        policy = BalloonPolicy(host_pages)
        for vm in vms:
            policy.add_vm(
                vm.name,
                current_pages=len(vm.guest_mem.map),
                wss_pages=record.wss[vm.name],
            )
        by_name = {vm.name: vm for vm in vms}
        for target in policy.compute_targets():
            record.targets[target.name] = target.target_pages
            delta = target.inflate_pages
            if delta <= HYSTERESIS_PAGES:
                continue
            vm = by_name[target.name]
            if self._fires("overcommit.balloon_refuse"):
                record.balloon_refusals += 1
                self.metrics.counter("balloon_refusals").inc()
                continue
            given = self._inflate(vm, cold[target.name], delta)
            if given:
                record.inflated[target.name] = given
                self.metrics.counter("balloon_inflated").inc(given)

    def _inflate(self, vm: VirtualMachine, cold: Set[int], want: int) -> int:
        """Balloon out up to ``want`` cold, unshared, all-zero pages.

        A refault of one takes ``Hypervisor._fault`` under every MMU,
        whose zeroed backing rebuilds the page bit-identically.
        """
        want = min(want, MAX_BALLOON_PER_TICK)
        given = 0
        sharing = self.hv.sharing
        for gfn in sorted(cold):
            if given >= want:
                break
            hfn = vm.guest_mem.map.get(gfn)
            if hfn is None:
                continue
            if sharing is not None and sharing.handles(vm, gfn):
                continue
            if self.hv.physmem.read_frame(hfn) != _ZERO_PAGE:
                continue
            if self.hv.balloon_give(vm, gfn):
                given += 1
        return given

    # -- plumbing -----------------------------------------------------------

    def _fires(self, site: str) -> bool:
        injector = self.hv.injector
        return injector is not None and injector.fires(site)

    def serialized_log(self) -> List[Dict]:
        """Tick log as plain dicts (deterministic key order)."""
        return [record.as_dict() for record in self.tick_log]
