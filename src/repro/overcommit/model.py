"""Analytic host-memory model: the generator for experiment E7.

Given a host and a set of VM demands, evaluate each reclamation policy
stack and report the per-VM resident allocations and resulting
performance. Performance follows the standard miss-cost model: a VM
whose resident memory covers its working set runs at full speed; below
that, each missing working-set page turns the corresponding accesses
into swap faults::

    throughput = 1 / (h + (1 - h) * miss_penalty),  h = resident / wss

(uniform access over the WSS -- a pessimistic but standard closure).
"""

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.util.errors import ConfigError


class PolicyKind(enum.Enum):
    """Reclamation stacks compared in E7."""

    SWAP_ONLY = "swap_only"
    BALLOON = "balloon"
    BALLOON_SHARE = "balloon_share"


@dataclass(frozen=True)
class VMDemand:
    """One VM's memory behaviour."""

    name: str
    configured_pages: int
    wss_pages: int
    #: Fraction of this VM's pages whose content duplicates other VMs'
    #: (common OS image, zero pages) -- reclaimable by sharing.
    shareable_fraction: float = 0.0

    def validate(self) -> None:
        if self.configured_pages <= 0:
            raise ConfigError("configured_pages must be positive")
        if not 0 < self.wss_pages <= self.configured_pages:
            raise ConfigError("wss must be in (0, configured]")
        if not 0.0 <= self.shareable_fraction <= 1.0:
            raise ConfigError("shareable_fraction must be in [0, 1]")


@dataclass(frozen=True)
class PolicyOutcome:
    """E7 table row."""

    policy: PolicyKind
    num_vms: int
    overcommit_ratio: float
    resident: Dict[str, int]
    swapped_pages: int
    shared_saved_pages: int
    #: Per-VM normalized throughput in [0, 1].
    throughput: Dict[str, float]

    @property
    def min_throughput(self) -> float:
        return min(self.throughput.values())


#: A miss costs this many hits' worth of time.
MISS_PENALTY = 1000.0
#: Host swapping keeps at most this share of a VM's hot set resident.
LRU_EFFICIENCY = 0.9


def evaluate_policy(
    host_pages: int,
    vms: List[VMDemand],
    policy: PolicyKind,
) -> PolicyOutcome:
    """Evaluate one policy stack on one host configuration.

    ``LRU_EFFICIENCY`` models host-level swapping's blindness: without
    guest cooperation the host's global LRU keeps only this fraction of
    each VM's hot set resident once swapping is active (double paging,
    guest/host replacement conflicts -- Waldspurger's motivation for
    ballooning). Ballooning releases only guest-idle memory, so it is
    not penalized.
    """
    if host_pages <= 0:
        raise ConfigError("host_pages must be positive")
    for vm in vms:
        vm.validate()
    configured = {vm.name: vm.configured_pages for vm in vms}
    total_configured = sum(configured.values())

    # Effective footprint each VM *needs resident* for full speed, and
    # the demand each one places on host memory, by policy.
    if policy is PolicyKind.SWAP_ONLY:
        # No guest cooperation: the host must back every configured
        # page; under pressure, residency shrinks proportionally.
        demand = dict(configured)
        shared_saved = 0
    elif policy is PolicyKind.BALLOON:
        # Balloon returns idle pages: demand shrinks to the WSS.
        demand = {vm.name: vm.wss_pages for vm in vms}
        shared_saved = 0
    else:
        # Balloon + sharing: WSS, of which the shareable fraction
        # collapses to single host copies. Model: one copy of the
        # shareable content is charged to the aggregate, not per VM.
        demand = {}
        shareable_total = 0
        max_shareable = 0
        for vm in vms:
            shareable = int(vm.wss_pages * vm.shareable_fraction)
            demand[vm.name] = vm.wss_pages - shareable
            shareable_total += shareable
            max_shareable = max(max_shareable, shareable)
        # One canonical copy stays resident.
        shared_saved = shareable_total - max_shareable
        demand["__shared__"] = max_shareable

    total_demand = sum(demand.values())
    resident: Dict[str, int] = {}
    if total_demand <= host_pages:
        for vm in vms:
            resident[vm.name] = demand[vm.name]
        swapped = 0
    else:
        scale = host_pages / total_demand
        for vm in vms:
            resident[vm.name] = max(1, int(demand[vm.name] * scale))
        swapped = total_demand - sum(
            resident[vm.name] for vm in vms
        ) - int(demand.get("__shared__", 0) * scale)
        swapped = max(0, swapped)

    swapping_active = total_demand > host_pages
    throughput: Dict[str, float] = {}
    for vm in vms:
        if policy is PolicyKind.BALLOON_SHARE:
            # Shared pages are resident (the canonical copy), so the
            # VM's effective residency includes its shareable WSS part.
            shareable = int(vm.wss_pages * vm.shareable_fraction)
            have = resident[vm.name] + shareable * (
                1.0 if total_demand <= host_pages
                else host_pages / total_demand
            )
        else:
            have = resident[vm.name]
        h = min(1.0, have / vm.wss_pages)
        if policy is PolicyKind.SWAP_ONLY and swapping_active:
            h = min(h, LRU_EFFICIENCY)
        throughput[vm.name] = 1.0 / (h + (1.0 - h) * MISS_PENALTY)

    return PolicyOutcome(
        policy=policy,
        num_vms=len(vms),
        overcommit_ratio=total_configured / host_pages,
        resident=resident,
        swapped_pages=swapped,
        shared_saved_pages=shared_saved,
        throughput=throughput,
    )
