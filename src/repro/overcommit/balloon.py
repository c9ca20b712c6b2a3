"""Host-side ballooning policy.

The balloon *mechanism* is the guest-driven ``BALLOON_GIVE`` /
``BALLOON_TAKE`` hypercall pair; this module is the *policy*: given
per-VM configured sizes, working-set estimates, and the host's free
memory, compute how many pages each VM's balloon driver should inflate
(give up) or deflate (take back).

The allocation rule is VMware-style sharing: each VM keeps its working
set plus an equal share of the remaining memory, and idle memory is
taxed -- memory neither VM's WSS claims is reclaimed first from the VMs
holding the most idle pages.
"""

from dataclasses import dataclass
from typing import Dict, List

from repro.util.errors import ConfigError


@dataclass(frozen=True)
class BalloonTarget:
    """Policy output for one VM."""

    name: str
    current_pages: int
    target_pages: int

    @property
    def inflate_pages(self) -> int:
        """Pages the guest balloon should give up (0 if deflating)."""
        return max(0, self.current_pages - self.target_pages)


@dataclass(frozen=True)
class _VMEntry:
    name: str
    current_pages: int
    wss_pages: int


#: The tax on idle memory: the share of a VM's idle pages it gives up.
IDLE_TAX = 0.75


class BalloonPolicy:
    """Idle-memory-tax proportional allocator."""

    def __init__(self, host_pages: int):
        if host_pages <= 0:
            raise ConfigError("host_pages must be positive")
        self.host_pages = host_pages
        self._vms: List[_VMEntry] = []

    def add_vm(self, name: str, current_pages: int, wss_pages: int) -> None:
        if any(vm.name == name for vm in self._vms):
            raise ConfigError(f"duplicate VM name {name!r} in balloon policy")
        if current_pages < 0 or wss_pages < 0:
            raise ConfigError("current_pages and wss_pages must be >= 0")
        if wss_pages > current_pages:
            wss_pages = current_pages
        self._vms.append(_VMEntry(name, current_pages, wss_pages))

    def compute_targets(self) -> List[BalloonTarget]:
        """Compute per-VM page targets under current pressure."""
        if not self._vms:
            return []
        available = self.host_pages
        total_wss = sum(vm.wss_pages for vm in self._vms)
        total_current = sum(vm.current_pages for vm in self._vms)

        if total_current <= available:
            # No pressure: everyone keeps what they have.
            return [
                BalloonTarget(vm.name, vm.current_pages, vm.current_pages)
                for vm in self._vms
            ]

        targets: Dict[str, int] = {}
        if total_wss >= available:
            # Even working sets do not fit: scale WSS proportionally
            # (the remainder will hit host swap). ``available`` is
            # positive here, so total_wss > 0.
            for vm in self._vms:
                targets[vm.name] = max(
                    1, int(available * vm.wss_pages / total_wss)
                )
            # The per-VM floor of one page can push the aggregate past
            # ``available``; trim the largest targets back (never below
            # the floor) so the cap holds whenever n_vms <= available.
            overshoot = sum(targets.values()) - available
            if overshoot > 0:
                for vm in sorted(self._vms,
                                 key=lambda v: (-targets[v.name], v.name)):
                    cut = min(targets[vm.name] - 1, overshoot)
                    targets[vm.name] -= cut
                    overshoot -= cut
                    if overshoot <= 0:
                        break
        else:
            # Working sets fit. Distribute the surplus evenly, after
            # taxing idle memory (current - wss) at IDLE_TAX.
            surplus = available - total_wss
            for vm in self._vms:
                idle = vm.current_pages - vm.wss_pages
                keep_idle = int(idle * (1.0 - IDLE_TAX))
                share_part = int(surplus / len(self._vms))
                target = vm.wss_pages + min(keep_idle + share_part, idle)
                targets[vm.name] = min(target, vm.current_pages)
            # Never exceed what is available in aggregate.
            overshoot = sum(targets.values()) - available
            if overshoot > 0:
                for vm in sorted(
                    self._vms,
                    key=lambda v: targets[v.name] - v.wss_pages,
                    reverse=True,
                ):
                    slack = targets[vm.name] - vm.wss_pages
                    cut = min(slack, overshoot)
                    targets[vm.name] -= cut
                    overshoot -= cut
                    if overshoot <= 0:
                        break
        return [
            BalloonTarget(vm.name, vm.current_pages, targets[vm.name])
            for vm in self._vms
        ]
