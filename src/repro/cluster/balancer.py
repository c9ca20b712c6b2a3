"""Threshold-driven load balancing via live migration.

When a host's CPU utilization exceeds the high watermark, the balancer
migrates its smallest relieving VM to the least-loaded host that stays
under the low watermark -- the standard DRS-style greedy heuristic.
Migrations are costed with the pre-copy model over a shared management
link, so concurrent rebalancing decisions queue on real bandwidth.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.host import Host, HostSummary, Placement, VMSpec
from repro.cluster.placement import ConstraintSet
from repro.migration.model import MigrationConfig, simulate_precopy
from repro.obs.clock import SimClock
from repro.obs.registry import MetricsRegistry
from repro.sim.link import NetworkLink
from repro.util.errors import ConfigError
from repro.util.units import PAGE_SIZE


@dataclass
class BalanceReport:
    """What one rebalancing pass did."""

    migrations: List[Tuple[str, str, str]] = field(default_factory=list)
    total_migration_time_us: int = 0
    total_downtime_us: int = 0
    imbalance_before: float = 0.0
    imbalance_after: float = 0.0

    @property
    def migration_count(self) -> int:
        return len(self.migrations)


def _imbalance(placement: Placement) -> float:
    """Population standard deviation of per-host utilization."""
    utils = [h.cpu_utilization for h in placement.hosts]
    if not utils:
        return 0.0
    mean = sum(utils) / len(utils)
    return math.sqrt(sum((u - mean) ** 2 for u in utils) / len(utils))


class LoadBalancer:
    """Greedy migration-based rebalancer."""

    def __init__(
        self,
        link: NetworkLink,
        high_watermark: float = 0.85,
        low_watermark: float = 0.70,
        max_migrations: int = 32,
        dirty_rate_pps: float = 2000.0,
        constraints: Optional[ConstraintSet] = None,
        metrics=None,
    ):
        if not 0 < low_watermark <= high_watermark <= 1.5:
            raise ConfigError("watermarks must satisfy 0 < low <= high")
        self.link = link
        self.high = high_watermark
        self.low = low_watermark
        self.max_migrations = max_migrations
        self.dirty_rate_pps = dirty_rate_pps
        #: Anti-affinity constraints; unlike placement/failover the
        #: balancer never relaxes them -- rebalancing is an
        #: optimization, so a move that would break spread is skipped.
        self.constraints = constraints
        #: ``cluster.balancer.*``: passes, migrations, time moved.
        self.metrics = (metrics if metrics is not None else
                        MetricsRegistry(clock=SimClock(link.sim)).scope(
                            "cluster.balancer"))

    def rebalance(self, placement: Placement) -> BalanceReport:
        """Migrate VMs until no host exceeds the high watermark (or the
        migration budget runs out)."""
        report = BalanceReport(imbalance_before=_imbalance(placement))
        for _ in range(self.max_migrations):
            move = self._pick_move(placement)
            if move is None:
                break
            vm, source, target = move
            result = self._migrate(vm)
            source.remove(vm.name)
            target.place(vm)
            report.migrations.append((vm.name, source.name, target.name))
            report.total_migration_time_us += result.total_time_us
            report.total_downtime_us += result.downtime_us
        report.imbalance_after = _imbalance(placement)
        m = self.metrics
        m.counter("passes").inc()
        m.counter("migrations").inc(report.migration_count)
        m.counter("migration_time_us").inc(report.total_migration_time_us)
        m.counter("downtime_us").inc(report.total_downtime_us)
        return report

    # -- internals -------------------------------------------------------

    def _pick_move(
        self, placement: Placement
    ) -> Optional[Tuple[VMSpec, Host, Host]]:
        overloaded = [
            h
            for h in placement.hosts
            if h.vms and h.cpu_demand / h.spec.cpu_capacity > self.high
        ]
        if not overloaded:
            return None
        source = max(overloaded, key=lambda h: h.cpu_demand / h.spec.cpu_capacity)
        # Smallest VM whose departure brings the source under the mark.
        excess = source.cpu_demand - self.high * source.spec.cpu_capacity
        candidates = sorted(source.vms.values(), key=lambda v: v.cpu_demand)
        vm = next((v for v in candidates if v.cpu_demand >= excess), None)
        if vm is None:
            vm = candidates[-1]  # biggest we have; partial relief
        targets = [
            h
            for h in placement.hosts
            if h is not source
            and h.fits(vm)
            and (h.cpu_demand + vm.cpu_demand) / h.spec.cpu_capacity <= self.low
            and self._spread_ok(vm, h, placement)
        ]
        if not targets:
            return None
        target = min(targets, key=lambda h: h.cpu_demand / h.spec.cpu_capacity)
        return vm, source, target

    def _spread_ok(self, vm: VMSpec, target: Host,
                   placement: Placement) -> bool:
        """Strict (never-relaxed) anti-affinity check for one move."""
        if self.constraints is None:
            return True
        peers = self.constraints.peers_of(vm.name)
        if not peers:
            return True
        in_domain = sum(
            1
            for h in placement.hosts
            if h.alive and h.domain == target.domain
            for name in h.vms
            if name in peers
        )
        return in_domain < self.constraints.max_per_domain

    def _migrate(self, vm: VMSpec):
        cfg = MigrationConfig(
            vm_pages=max(1, vm.memory_bytes // PAGE_SIZE),
            dirty_rate_pps=self.dirty_rate_pps,
        )
        return simulate_precopy(cfg, self.link, metrics=self.metrics)


# -- coordinator-side planning over summaries --------------------------------


@dataclass(frozen=True)
class RebalanceMove:
    """One planned migration: move ``vm`` from ``src`` to ``dst`` host."""

    vm: VMSpec
    src: str
    dst: str
    src_shard: int
    dst_shard: int


class _WorkingHost:
    """Mutable per-host load the planner updates as it commits moves."""

    __slots__ = ("summary", "cpu_demand", "memory_free", "vms")

    def __init__(self, summary: HostSummary):
        self.summary = summary
        self.cpu_demand = summary.cpu_demand
        self.memory_free = summary.memory_free
        self.vms: Dict[str, VMSpec] = {vm.name: vm for vm in summary.vms}

    @property
    def utilization(self) -> float:
        return self.cpu_demand / self.summary.cpu_capacity


def plan_rebalance(summaries: Sequence[HostSummary],
                   high_watermark: float = 0.85,
                   low_watermark: float = 0.70,
                   max_moves: int = 8) -> List[RebalanceMove]:
    """The :meth:`LoadBalancer._pick_move` greedy, lifted to summaries.

    The sharded coordinator cannot touch live hosts, so it plans
    against :class:`HostSummary` snapshots at the epoch barrier and
    ships each move as a depart/arrive message pair. Moves are applied
    to a working copy as they are planned, so later picks see earlier
    decisions. Determinism: ties in the max/min selections resolve to
    the first candidate in ``summaries`` order, which callers keep in
    (shard, host index) order.
    """
    if not 0 < low_watermark <= high_watermark <= 1.5:
        raise ConfigError("watermarks must satisfy 0 < low <= high")
    hosts = [_WorkingHost(s) for s in summaries]
    moves: List[RebalanceMove] = []
    for _ in range(max_moves):
        overloaded = [h for h in hosts
                      if h.summary.alive and h.vms
                      and h.utilization > high_watermark]
        if not overloaded:
            break
        source = max(overloaded, key=lambda h: h.utilization)
        excess = (source.cpu_demand
                  - high_watermark * source.summary.cpu_capacity)
        candidates = sorted(source.vms.values(),
                            key=lambda v: (v.cpu_demand, v.name))
        vm = next((v for v in candidates if v.cpu_demand >= excess), None)
        if vm is None:
            vm = candidates[-1]  # biggest we have; partial relief
        targets = [
            h for h in hosts
            if h is not source
            and h.summary.alive
            and vm.memory_bytes <= h.memory_free
            and ((h.cpu_demand + vm.cpu_demand)
                 / h.summary.cpu_capacity) <= low_watermark
        ]
        if not targets:
            break
        target = min(targets, key=lambda h: h.utilization)
        del source.vms[vm.name]
        source.cpu_demand -= vm.cpu_demand
        source.memory_free += vm.memory_bytes
        target.vms[vm.name] = vm
        target.cpu_demand += vm.cpu_demand
        target.memory_free -= vm.memory_bytes
        moves.append(RebalanceMove(
            vm=vm, src=source.summary.name, dst=target.summary.name,
            src_shard=source.summary.shard, dst_shard=target.summary.shard))
    return moves
