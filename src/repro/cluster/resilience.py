"""Failure-domain-aware resilience control for a cluster.

The :class:`ResilienceController` closes the full availability loop a
HA control plane runs -- **detect → evacuate → re-place → verify** --
under *continuous* fault injection. Unlike one-shot
:func:`repro.cluster.placement.failover`, the controller assumes the
world keeps failing while it recovers:

* the ``host.crash`` fault site is polled **between evacuation moves**
  (one opportunity per alive host per move), so a cascade can strike
  mid-failover;
* a move whose target host died before the move landed is re-planned
  against the remaining survivors (counted in ``replans``);
* each move is priced through the pre-copy DES model over one shared
  management link (moves serialize, as on a real management network),
  so ``migrate.link_drop`` / ``migrate.round_stall`` faults produce real
  retry/giveup behaviour per VM, bounded by a default
  :class:`~repro.faults.recovery.RetryPolicy`;
* anti-affinity constraints are honored on re-placement via the same
  relax ladder as initial placement, and VMs nobody can hold keep
  their full spec in ``lost`` so placement can be retried once
  capacity returns.

Telemetry lands under ``cluster.resilience.*`` (rounds, crashes,
moves, replans, recovered/lost counts, evacuation timing).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.host import Placement, VMSpec
from repro.cluster.placement import (
    RELAX_ORDER,
    AdmissionError,
    ConstraintSet,
    PlacementPolicy,
    choose_host,
)
from repro.faults.recovery import RetryPolicy
from repro.migration.model import MigrationConfig, simulate_precopy
from repro.obs.registry import MetricsRegistry
from repro.sim.kernel import Simulator
from repro.sim.link import NetworkLink
from repro.util.units import MIB, PAGE_SIZE

#: Detect->evacuate rounds before the controller stops trying.
MAX_ROUNDS = 32
#: What one evacuation is priced at: the management link's bandwidth,
#: the dirty rate of a moved VM, and its pre-copy round budget.
EVAC_BANDWIDTH = 125 * MIB
EVAC_DIRTY_RATE_PPS = 2000.0
EVAC_MAX_ROUNDS = 12


@dataclass
class ResilienceReport:
    """Outcome of one controller run to quiescence."""

    #: Hosts already dead when the run started.
    initial_failures: List[str] = field(default_factory=list)
    #: Hosts that died *during* recovery (cascades).
    cascade_failures: List[str] = field(default_factory=list)
    #: Detect→evacuate rounds taken to reach quiescence.
    rounds: int = 0
    #: (vm, from_host, to_host) for every committed re-placement.
    moves: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Moves whose target died before landing and were planned again.
    replans: int = 0
    recovered: List[str] = field(default_factory=list)
    #: Full specs of VMs that ran out of cluster (retryable later).
    lost: List[VMSpec] = field(default_factory=list)
    #: VMs whose evacuation exhausted its retry budget (also in lost).
    gave_up: List[str] = field(default_factory=list)
    #: VM name -> relax level for re-placements below strict spread.
    relaxations: Dict[str, str] = field(default_factory=dict)
    evacuation_time_us: int = 0
    evacuation_retries: int = 0
    evacuation_backoff_us: int = 0
    #: True when, at quiescence, no dead host still holds a VM and
    #: every recovered VM sits on an alive host.
    verified: bool = False

    @property
    def lost_names(self) -> List[str]:
        return [vm.name for vm in self.lost]


class ResilienceController:
    """Drives a placement back to quiescence under continuous faults."""

    def __init__(
        self,
        placement: Placement,
        injector,
        constraints: Optional[ConstraintSet] = None,
        metrics=None,
    ):
        self.placement = placement
        # Re-placement never refuses for headroom: strip reservation,
        # keep the spread constraints.
        self.constraints = None
        if constraints is not None and constraints.anti_affinity_groups:
            self.constraints = ConstraintSet(constraints.anti_affinity_groups)
        self.injector = injector
        #: ``cluster.resilience.*`` counters/histograms.
        self.metrics = (metrics if metrics is not None else
                        MetricsRegistry().scope("cluster.resilience"))
        self._link = NetworkLink(Simulator(), EVAC_BANDWIDTH,
                                 name="evacuation", injector=injector)
        self._retry_policy = RetryPolicy()

    # -- detect --------------------------------------------------------------

    def poll_crashes(self) -> List[str]:
        """One ``host.crash`` opportunity per alive host, in host order."""
        return [h.name for h in self.placement.hosts
                if h.maybe_crash(self.injector)]

    def stranded_hosts(self):
        return [h for h in self.placement.hosts if not h.alive and h.vms]

    # -- evacuate / re-place -------------------------------------------------

    def _pick_target(self, vm: VMSpec):
        try:
            return choose_host(vm, self.placement.hosts,
                               PlacementPolicy.WORST_FIT, self.constraints)
        except AdmissionError:  # pragma: no cover - reservation stripped
            return None, RELAX_ORDER[-1]

    def _evacuate_one(self, vm: VMSpec, from_host, report: ResilienceReport
                      ) -> bool:
        """Move one stranded VM to a survivor; False when it is lost."""
        while True:
            target, level = self._pick_target(vm)
            if target is None:
                report.lost.append(vm)
                self.metrics.counter("lost").inc()
                return False
            result = simulate_precopy(
                MigrationConfig(
                    vm_pages=max(1, vm.memory_bytes // PAGE_SIZE),
                    dirty_rate_pps=EVAC_DIRTY_RATE_PPS,
                    max_rounds=EVAC_MAX_ROUNDS,
                ),
                self._link,
                injector=self.injector,
                retry_policy=self._retry_policy,
            )
            report.evacuation_time_us += result.total_time_us
            report.evacuation_retries += result.retries
            report.evacuation_backoff_us += result.backoff_us
            if result.gave_up:
                report.gave_up.append(vm.name)
                report.lost.append(vm)
                self.metrics.counter("gave_up").inc()
                self.metrics.counter("lost").inc()
                return False
            # The cascade window: hosts may die while the move is in
            # flight. A freshly dead target means the move never
            # landed -- plan again against whoever is left.
            newly_dead = self.poll_crashes()
            if newly_dead:
                report.cascade_failures.extend(newly_dead)
                self.metrics.counter("crashes").inc(len(newly_dead))
            if not target.alive:
                report.replans += 1
                self.metrics.counter("replans").inc()
                continue
            target.place(vm)
            if level != RELAX_ORDER[0]:
                report.relaxations[vm.name] = level
            report.moves.append((vm.name, from_host.name, target.name))
            report.recovered.append(vm.name)
            self.metrics.counter("moves").inc()
            return True

    # -- the loop ------------------------------------------------------------

    def run(self) -> ResilienceReport:
        """Detect → evacuate → re-place until quiescent, then verify."""
        report = ResilienceReport(
            initial_failures=[h.name for h in self.placement.hosts
                              if not h.alive]
        )
        while report.rounds < MAX_ROUNDS:
            stranded_on = self.stranded_hosts()
            if not stranded_on:
                break
            report.rounds += 1
            self.metrics.counter("rounds").inc()
            for host in stranded_on:
                # Largest-first (name-ordered within ties): packing
                # under pressure, deterministically.
                for vm in sorted(host.vms.values(),
                                 key=lambda v: (-v.memory_bytes, v.name)):
                    host.remove(vm.name)
                    self._evacuate_one(vm, host, report)
            # Cascades during this round may have stranded more VMs;
            # the next round picks them up.
        report.verified = self.verify(report)
        self.metrics.counter("recovered").inc(len(report.recovered))
        if report.evacuation_time_us:
            self.metrics.observe("recovery_time_us",
                                 report.evacuation_time_us)
        return report

    # -- verify --------------------------------------------------------------

    def verify(self, report: ResilienceReport) -> bool:
        """No dead host holds VMs; every recovered VM is on a live host."""
        if any(h.vms for h in self.placement.hosts if not h.alive):
            return False
        lost = set(report.lost_names)
        for name in report.recovered:
            if name in lost:
                continue  # recovered earlier, lost to a later cascade
            host = self.placement.host_of(name)
            if host is None or not host.alive:
                return False
        return True
