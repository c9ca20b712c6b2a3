"""VM placement: bin packing, anti-affinity constraints, host failover.

Failure-domain awareness lives here. Every host carries a ``domain``
(rack) label; a :class:`ConstraintSet` expresses spread requirements
over those domains (anti-affinity groups, a per-domain cap) plus N+R
capacity reservation, and both initial placement (:func:`place` and
friends) and :func:`failover` re-placement honor them.

Constraints relax in a documented order when unsatisfiable
(:data:`RELAX_ORDER`): first the domain-granularity spread is dropped
to host-granularity (no two group members on one *host*), then
anti-affinity is dropped entirely -- liveness beats availability
headroom. Capacity reservation is admission control, not a preference:
it never relaxes, and a VM it refuses raises :class:`AdmissionError`
so callers can count rejections instead of silently overpacking.
"""

import enum
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.cluster.host import Host, HostSpec, Placement, VMSpec
from repro.util.errors import ConfigError


class PlacementPolicy(enum.Enum):
    FIRST_FIT = "first_fit"
    BEST_FIT = "best_fit"
    WORST_FIT = "worst_fit"


class AdmissionError(ConfigError):
    """Capacity reservation refused a placement (admission control)."""


#: Candidate selection per policy; candidates are pre-filtered by fits().
_CHOOSERS: Dict[
    PlacementPolicy, Callable[[VMSpec, List[Host]], Optional[Host]]
] = {
    PlacementPolicy.FIRST_FIT: lambda vm, cs: cs[0] if cs else None,
    PlacementPolicy.BEST_FIT: (
        lambda vm, cs: min(cs, key=lambda h: h.memory_free) if cs else None
    ),
    PlacementPolicy.WORST_FIT: (
        lambda vm, cs: max(cs, key=lambda h: h.memory_free) if cs else None
    ),
}

#: Relax ladder for anti-affinity, strictest first. Reservation is
#: *not* on the ladder: admission control refuses rather than relaxes.
RELAX_ORDER = ("domain-spread", "host-spread", "unconstrained")


@dataclass
class ConstraintSet:
    """Spread/anti-affinity constraints plus capacity reservation.

    ``anti_affinity_groups`` maps a group (service) name to the VM
    names that replicate it; members of one group spread across
    failure domains, at most one of them per domain.
    ``reserve_failures`` is N+R admission control: a placement is
    admitted only if, afterwards, the fleet could still evacuate its
    ``reserve_failures`` most-loaded hosts into the remaining free
    memory (a capacity-level check; the exact bin packing of a real
    evacuation may still strand a straggler).
    """

    anti_affinity_groups: Mapping[str, Sequence[str]]
    reserve_failures: int = 0

    def __post_init__(self) -> None:
        if self.reserve_failures < 0:
            raise ConfigError("reserve_failures must be non-negative")
        self._group_of: Dict[str, str] = {}
        for group, members in self.anti_affinity_groups.items():
            for name in members:
                if name in self._group_of:
                    raise ConfigError(
                        f"VM {name} in two anti-affinity groups "
                        f"({self._group_of[name]} and {group})"
                    )
                self._group_of[name] = group

    def is_empty(self) -> bool:
        return not self.anti_affinity_groups and self.reserve_failures == 0

    def group_of(self, vm_name: str) -> Optional[str]:
        return self._group_of.get(vm_name)

    def peers_of(self, vm_name: str) -> frozenset:
        """Other members of ``vm_name``'s anti-affinity group."""
        group = self.group_of(vm_name)
        if group is None:
            return frozenset()
        return frozenset(self.anti_affinity_groups[group]) - {vm_name}


def reservation_satisfied(
    hosts: Sequence[Host], reserve: int, candidate: Host, vm: VMSpec,
) -> bool:
    """N+R capacity check with ``vm`` pre-placed on ``candidate``.

    True iff the free memory on the alive hosts *outside* the
    ``reserve`` most-loaded ones can absorb everything those
    most-loaded hosts currently run.
    """
    if reserve <= 0:
        return True
    alive = [h for h in hosts if h.alive]
    if reserve >= len(alive):
        return False  # nobody would be left to evacuate onto

    def used(h: Host) -> int:
        extra = vm.memory_bytes if h is candidate else 0
        return h.memory_used + extra

    doomed = sorted(alive, key=lambda h: (-used(h), h.index))[:reserve]
    spare = sum(h.spec.memory_bytes - used(h) for h in alive
                if h not in doomed)
    return spare >= sum(used(h) for h in doomed)


def _constrained_candidates(
    vm: VMSpec,
    hosts: Sequence[Host],
    constraints: ConstraintSet,
    level: int,
) -> List[Host]:
    """Hosts that fit ``vm`` at relax ``level`` (index into RELAX_ORDER)."""
    fits = [h for h in hosts if h.fits(vm)]
    peers = constraints.peers_of(vm.name)
    if peers and level < 2:
        if level == 0:
            census: Dict[str, int] = {}
            for h in hosts:
                if not h.alive:
                    continue  # a dead host's VMs are stranded, not running
                count = sum(1 for name in h.vms if name in peers)
                census[h.domain] = census.get(h.domain, 0) + count
            fits = [h for h in fits if not census.get(h.domain, 0)]
        else:  # level 1: peers may share a domain but never a host
            fits = [h for h in fits if not peers.intersection(h.vms)]
    if constraints.reserve_failures > 0:
        fits = [h for h in fits
                if reservation_satisfied(hosts, constraints.reserve_failures,
                                         h, vm)]
    return fits


def _choose_constrained(
    vm: VMSpec,
    hosts: Sequence[Host],
    choose: Callable[[VMSpec, List[Host]], Optional[Host]],
    constraints: ConstraintSet,
) -> Tuple[Optional[Host], str]:
    """Pick a host walking the relax ladder; returns (host, level name).

    Raises :class:`AdmissionError` when capacity reservation -- which
    never relaxes -- is the only thing standing between ``vm`` and a
    host that fits.
    """
    for level, name in enumerate(RELAX_ORDER):
        host = choose(vm, _constrained_candidates(vm, hosts, constraints,
                                                  level))
        if host is not None:
            return host, name
    if (constraints.reserve_failures > 0
            and any(h.fits(vm) for h in hosts)):
        raise AdmissionError(
            f"admission control (N+{constraints.reserve_failures} "
            f"reservation) refuses VM {vm.name}"
        )
    return None, RELAX_ORDER[-1]


def choose_host(
    vm: VMSpec,
    hosts: Sequence[Host],
    policy: PlacementPolicy,
    constraints: Optional[ConstraintSet] = None,
) -> Tuple[Optional[Host], str]:
    """Which host takes ``vm`` right now: ``(host or None, relax level)``.

    Without constraints the policy's chooser picks among the hosts that
    fit; with them the relax ladder is walked (and reservation may raise
    :class:`AdmissionError`). One pick is one pass over ``hosts``.
    """
    choose = _CHOOSERS[policy]
    if constraints is None or constraints.is_empty():
        return choose(vm, [h for h in hosts if h.fits(vm)]), RELAX_ORDER[0]
    return _choose_constrained(vm, hosts, choose, constraints)


class _FreeIndex:
    """Max-tree over positions in ``hosts``, keyed by free memory.

    Lives for one :func:`place` pass. A dead host is keyed -1 and a VM
    needs at least one byte, so "free >= need" is exactly
    :meth:`Host.fits`. The query descends left-first, which resolves
    ties to the leftmost list position -- what ``cs[0]`` over the
    filtered scan returns.
    """

    def __init__(self, hosts: Sequence[Host]):
        size = 1
        while size < len(hosts):
            size *= 2
        self.size = size
        self.tree = tree = [-1] * (2 * size)
        for pos, host in enumerate(hosts):
            if host.alive:
                tree[size + pos] = host.memory_free
        for node in range(size - 1, 0, -1):
            tree[node] = max(tree[2 * node], tree[2 * node + 1])

    def first(self, need: int) -> Optional[int]:
        """Leftmost position with free >= ``need`` (first-fit)."""
        tree = self.tree
        if tree[1] < need:
            return None
        node = 1
        while node < self.size:
            node *= 2
            if tree[node] < need:
                node += 1
        return node - self.size

    def update(self, pos: int, free: int) -> None:
        tree = self.tree
        node = self.size + pos
        tree[node] = free
        while node > 1:
            node //= 2
            top = max(tree[2 * node], tree[2 * node + 1])
            if tree[node] == top:
                break
            tree[node] = top


def _commit(vm: VMSpec, host: Optional[Host]) -> None:
    if host is None:
        raise ConfigError(
            f"no host can fit VM {vm.name} "
            f"({vm.memory_bytes} bytes of memory)"
        )
    host.place(vm)


def place(
    vms: Sequence[VMSpec], hosts: List[Host], policy: PlacementPolicy,
    constraints: Optional[ConstraintSet] = None,
) -> Placement:
    """Place ``vms`` in order onto ``hosts`` under ``policy``.

    Unconstrained first-fit asks a :class:`_FreeIndex` built for this
    pass; every other policy and constrained placement pick each VM's
    host with :func:`choose_host`.
    """
    relaxations: Dict[str, str] = {}
    if (policy is PlacementPolicy.FIRST_FIT
            and (constraints is None or constraints.is_empty())):
        index = _FreeIndex(hosts)
        for vm in vms:
            vm.validate()
            pos = index.first(vm.memory_bytes)
            _commit(vm, None if pos is None else hosts[pos])
            index.update(pos, hosts[pos].memory_free)
    else:
        for vm in vms:
            vm.validate()
            host, level = choose_host(vm, hosts, policy, constraints)
            _commit(vm, host)
            if level != RELAX_ORDER[0]:
                relaxations[vm.name] = level
    return Placement(hosts=hosts, relaxations=relaxations)


def first_fit(
    vms: Sequence[VMSpec], hosts: List[Host],
    constraints: Optional[ConstraintSet] = None,
) -> Placement:
    """Place each VM on the first host with room."""
    return place(vms, hosts, PlacementPolicy.FIRST_FIT, constraints)


@dataclass
class FailoverReport:
    """Outcome of one failover pass over a placement."""

    failed_hosts: List[str] = field(default_factory=list)
    recovered: List[str] = field(default_factory=list)
    #: Full specs (not just names) of VMs no survivor could hold, so a
    #: controller can retry placement once capacity returns.
    lost: List[VMSpec] = field(default_factory=list)
    #: (vm, from_host, to_host) for every successful re-placement.
    moves: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def lost_names(self) -> List[str]:
        return [vm.name for vm in self.lost]


def failover(placement: Placement) -> FailoverReport:
    """Re-place every VM stranded on dead hosts onto the survivors.

    Stranded VMs are drained largest-first (better packing under
    pressure; name-ordered within a size tie, so the move sequence is
    deterministic) onto the emptiest survivor. A VM no survivor can
    hold is reported in ``lost`` with its full spec -- capacity
    exhaustion is a real outcome, not an exception: the caller decides
    whether lost VMs warrant paging an operator or spinning up hosts.
    :class:`~repro.cluster.resilience.ResilienceController` is the loop
    that also prices moves, keeps anti-affinity and survives cascades.
    """
    report = FailoverReport(
        failed_hosts=[h.name for h in placement.hosts if not h.alive]
    )
    for host in placement.hosts:
        if host.alive or not host.vms:
            continue
        stranded = sorted(
            host.vms.values(),
            key=lambda v: (-v.memory_bytes, v.name),
        )
        for vm in stranded:
            host.remove(vm.name)
            target, _level = choose_host(vm, placement.hosts,
                                         PlacementPolicy.WORST_FIT)
            if target is None:
                report.lost.append(vm)
                continue
            target.place(vm)
            report.recovered.append(vm.name)
            report.moves.append((vm.name, host.name, target.name))
    return report


#: CPU demand :func:`plan_consolidation` packs per unit of capacity
#: (consolidation accepts some contention).
CPU_OVERCOMMIT = 1.5


def plan_consolidation(
    vms: Sequence[VMSpec],
    host_spec: HostSpec,
) -> Placement:
    """Minimize hosts: first-fit decreasing by memory, opening hosts on
    demand, up to ``CPU_OVERCOMMIT`` x capacity of CPU demand each.
    """
    ordered = sorted(vms, key=lambda v: v.memory_bytes, reverse=True)
    hosts: List[Host] = []
    for vm in ordered:
        vm.validate()
        target = None
        for host in hosts:
            if host.fits(vm) and (
                host.cpu_demand + vm.cpu_demand
                <= host.spec.cpu_capacity * CPU_OVERCOMMIT
            ):
                target = host
                break
        if target is None:
            target = Host(host_spec, index=len(hosts))
            if not target.fits(vm):
                raise ConfigError(
                    f"VM {vm.name} larger than an empty {host_spec.name}"
                )
            hosts.append(target)
        target.place(vm)
    return Placement(hosts=hosts)
