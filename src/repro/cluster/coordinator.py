"""Sharded cluster simulation: shard-local epochs, coordinator barriers.

This is the scale-out path for the cluster experiments. Hosts are
partitioned into :class:`ShardState` shards; each shard owns a private
clock, a private RNG stream forked from the run seed, a private fault
injector (seeded via :meth:`FaultPlan.for_shard`), and a private
metrics registry. An epoch advances every shard independently --
demand jitter, crash polling, per-host performance evaluation -- so
shards fan out across worker processes via
:class:`repro.sim.shard.ShardExecutor`.

Everything global happens single-threaded at the **epoch barrier**:
the coordinator receives :class:`HostSummary` snapshots plus
evacuation requests from crashed hosts, and runs re-placement,
DRS-style rebalancing (:func:`repro.cluster.balancer.plan_rebalance`),
admission control with a summary-level N+1 reserve check, and a
consolidation lower-bound estimate. Its decisions return to the
shards as ``depart``/``arrive`` :class:`ShardMessage` deliveries at
the *next* barrier.

Determinism contract (tested in ``tests/test_cluster_sharded.py``):

* the epoch step is a pure function of ``(shard state, epoch, inbox)``,
  so worker scheduling cannot leak into results -- for a fixed shard
  count the merged manifest is byte-identical for ``jobs=1`` and
  ``jobs=N``;
* ``shards=1`` runs the identical code inline with one shard and
  reproduces the single-process results exactly;
* changing the shard *count* legitimately changes results (it
  repartitions RNG streams and fault plans), exactly as changing a
  seed would.

At run end each shard's registry becomes a *partial* manifest
(histograms carry raw samples) and the coordinator reduces them with
:func:`repro.obs.manifest.merge_manifests` -- counters add, gauges
take the max, histogram samples concatenate -- then finalizes and
serializes canonically, so the merged manifest bytes depend only on
the configuration and seed.
"""

import hashlib
import math
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.balancer import plan_rebalance
from repro.cluster.host import Host, HostSpec, HostSummary, VMSpec
from repro.cluster.interference import host_performance
from repro.cluster.placement import first_fit
from repro.cluster.workgen import DEFAULT_CATALOGUE, VMClass, generate_fleet
from repro.faults.injector import FaultInjector, FaultPlan
from repro.obs.clock import ManualClock
from repro.obs.manifest import (
    build_manifest,
    finalize_manifest,
    manifest_bytes,
    merge_manifests,
    register_baseline,
)
from repro.obs.registry import MetricsRegistry
from repro.sim.shard import (
    COORDINATOR,
    ShardExecutor,
    ShardMessage,
    route_messages,
)
from repro.util.errors import ConfigError
from repro.util.rng import DeterministicRNG
from repro.util.units import GIB

__all__ = [
    "ClusterSimConfig",
    "ClusterSimReport",
    "ShardState",
    "run_cluster_shard_epoch",
    "run_sharded_cluster",
]

#: Default host for sharded runs: a 16-core/64 GiB blade.
DEFAULT_HOST_SPEC = HostSpec(
    name="blade", cores=16, cpu_capacity=16.0, memory_bytes=64 * GIB)


@dataclass(frozen=True)
class ClusterSimConfig:
    """Everything a sharded cluster run is a pure function of."""

    fleet_size: int = 200
    shards: int = 4
    epochs: int = 6
    seed: int = 1
    #: Simulated length of one epoch (the barrier cadence).
    epoch_us: int = 1_000_000
    host_spec: HostSpec = DEFAULT_HOST_SPEC
    #: Provisioned memory slack over the fleet's aggregate demand; sets
    #: the host count (rounded up to a multiple of ``shards``).
    memory_headroom: float = 1.35
    #: Per-epoch uniform demand wobble around each VM's nominal demand
    #: (non-compounding: always relative to the base, never the jittered
    #: value, so long runs do not drift).
    demand_jitter: float = 0.25
    virt_overhead: float = 0.05
    #: Per-opportunity host-crash probability (one opportunity per host
    #: per epoch); 0 disables fault injection entirely.
    crash_rate: float = 0.0
    #: New VMs submitted to admission control at every barrier.
    arrivals_per_epoch: int = 0
    balance: bool = True
    high_watermark: float = 0.85
    low_watermark: float = 0.70
    max_moves_per_epoch: int = 8
    #: Barrier cadence of the consolidation lower-bound estimate.
    consolidation_every: int = 2
    cpu_overcommit: float = 1.5
    #: Summary-level N+R admission reserve (0 disables the check).
    reserve_failures: int = 1

    def validate(self) -> None:
        self.host_spec.validate()
        if self.fleet_size <= 0:
            raise ConfigError("fleet_size must be positive")
        if self.shards <= 0:
            raise ConfigError("shards must be positive")
        if self.epochs <= 0:
            raise ConfigError("epochs must be positive")
        if self.epoch_us <= 0:
            raise ConfigError("epoch_us must be positive")
        if self.memory_headroom < 1.0:
            raise ConfigError("memory_headroom must be >= 1")
        if not 0.0 <= self.demand_jitter < 1.0:
            raise ConfigError("demand_jitter must be in [0, 1)")
        if not 0.0 <= self.crash_rate <= 1.0:
            raise ConfigError("crash_rate must be in [0, 1]")
        if self.arrivals_per_epoch < 0:
            raise ConfigError("arrivals_per_epoch must be non-negative")
        if not 0 < self.low_watermark <= self.high_watermark:
            raise ConfigError("watermarks must satisfy 0 < low <= high")
        if self.consolidation_every <= 0:
            raise ConfigError("consolidation_every must be positive")
        if self.cpu_overcommit <= 0:
            raise ConfigError("cpu_overcommit must be positive")
        if self.reserve_failures < 0:
            raise ConfigError("reserve_failures must be non-negative")

    def describe(self) -> Dict[str, object]:
        """JSON-safe config block for the manifest's ``extra``."""
        return {
            "fleet_size": self.fleet_size,
            "shards": self.shards,
            "epochs": self.epochs,
            "seed": self.seed,
            "epoch_us": self.epoch_us,
            "host": {
                "name": self.host_spec.name,
                "cores": self.host_spec.cores,
                "memory_gib": self.host_spec.memory_bytes / GIB,
            },
            "demand_jitter": self.demand_jitter,
            "crash_rate": self.crash_rate,
            "arrivals_per_epoch": self.arrivals_per_epoch,
            "balance": self.balance,
        }


class ShardState:
    """One shard's private world; pickled whole across epoch fan-outs.

    The hosts, their metrics scopes, the registry, the RNG, and the
    injector travel as one pickle graph, so shared-object identity
    (every host scope writes the same registry) survives the process
    boundary. Nothing in here may reference another shard.
    """

    def __init__(self, shard_id: int, hosts: List[Host],
                 registry: MetricsRegistry, rng: DeterministicRNG,
                 injector: Optional[FaultInjector],
                 epoch_us: int, demand_jitter: float, virt_overhead: float):
        self.shard_id = shard_id
        self.hosts = hosts
        self.host_by_name: Dict[str, Host] = {h.name: h for h in hosts}
        self.registry = registry
        self.rng = rng
        self.injector = injector
        self.epoch_us = epoch_us
        self.demand_jitter = demand_jitter
        self.virt_overhead = virt_overhead
        #: VM name -> nominal demand the jitter wobbles around.
        self.base_demand: Dict[str, float] = {
            vm.name: vm.cpu_demand
            for host in hosts for vm in host.vms.values()
        }
        #: Next outgoing message sequence number (monotonic per shard).
        self.seq = 0
        self.scope = registry.scope(f"cluster.shard.{shard_id:03d}")

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq


def run_cluster_shard_epoch(task) -> Tuple["ShardState",
                                           List[HostSummary],
                                           List[ShardMessage]]:
    """Advance one shard one epoch. Pure in ``(state, epoch, inbox)``.

    Runs as the worker-side function of the epoch fan-out; the caller
    replaces its state with the returned one, so in-place mutation
    here is invisible to other shards and to the coordinator.

    Epoch order (each stage iterates hosts in list order and VMs in
    sorted-name order, so the RNG consumption sequence is fixed):

    1. apply inbox messages (``arrive``/``depart``) in delivery order;
    2. wobble every resident VM's demand around its nominal value;
    3. poll the ``host.crash`` fault site per host; crashed hosts
       strand their VMs, which leave as ``evac`` messages to the
       coordinator;
    4. evaluate per-host performance (throughput, interactive latency
       inflation) into the shard registry;
    5. advance the shard clock to the epoch end and snapshot host
       summaries for the coordinator.
    """
    state, epoch, inbox = task
    t1 = (epoch + 1) * state.epoch_us
    scope = state.scope
    out: List[ShardMessage] = []

    for msg in inbox:
        if msg.kind == "arrive":
            vm, host_name = msg.payload
            host = state.host_by_name.get(host_name)
            if host is not None and host.fits(vm):
                host.place(vm)
                state.base_demand[vm.name] = vm.cpu_demand
                scope.counter("messages.arrived").inc()
            else:
                # Shards are inert between barriers, so a planned
                # arrival can only miss if its target host is gone;
                # bounce the VM back for re-placement.
                scope.counter("messages.bounced").inc()
                out.append(ShardMessage(
                    time=t1, src_shard=state.shard_id, seq=state.next_seq(),
                    kind="evac", dst_shard=COORDINATOR,
                    payload=(vm, host_name)))
        elif msg.kind == "depart":
            vm_name, host_name = msg.payload
            host = state.host_by_name.get(host_name)
            if host is not None and vm_name in host.vms:
                host.remove(vm_name)
                state.base_demand.pop(vm_name, None)
                scope.counter("messages.departed").inc()
            else:
                scope.counter("messages.stale").inc()
        else:
            raise ConfigError(f"shard {state.shard_id} cannot handle "
                              f"message kind {msg.kind!r}")

    jitter = state.demand_jitter
    if jitter > 0.0:
        for host in state.hosts:
            if not host.alive:
                continue
            for name in sorted(host.vms):
                base = state.base_demand.get(name)
                if base is None:
                    continue
                factor = 1.0 + (state.rng.random() * 2.0 - 1.0) * jitter
                host.set_demand(name, round(base * factor, 3))

    if state.injector is not None:
        for host in state.hosts:
            if host.maybe_crash(state.injector):
                scope.counter("crashes").inc()
                for name in sorted(host.vms):
                    vm = host.remove(name)
                    state.base_demand.pop(name, None)
                    out.append(ShardMessage(
                        time=t1, src_shard=state.shard_id,
                        seq=state.next_seq(), kind="evac",
                        dst_shard=COORDINATOR, payload=(vm, host.name)))

    aggregate = 0.0
    for host in state.hosts:
        if not host.alive or not host.vms:
            continue
        perf = host_performance(host, virt_overhead=state.virt_overhead)
        aggregate += perf.aggregate_throughput
        if perf.saturated:
            scope.counter("perf.saturated_host_epochs").inc()
        for name, factor in perf.latency_factor.items():
            if host.vms[name].interactive:
                scope.observe("latency.interactive", factor)

    state.registry.clock.set(t1)
    scope.gauge("throughput").set(round(aggregate, 6))
    scope.counter("epochs").inc()
    summaries = [host.summary(state.shard_id) for host in state.hosts]
    return state, summaries, out


# -- the coordinator ---------------------------------------------------------


class _BarrierHost:
    """Coordinator's working copy of one host between summary and plan."""

    __slots__ = ("name", "shard", "domain", "alive", "cpu_capacity",
                 "memory_bytes", "vms", "memory_used")

    def __init__(self, summary: HostSummary):
        self.name = summary.name
        self.shard = summary.shard
        self.domain = summary.domain
        self.alive = summary.alive
        self.cpu_capacity = summary.cpu_capacity
        self.memory_bytes = summary.memory_bytes
        #: Written only by :meth:`add` / :meth:`drop`, which keep
        #: ``memory_used`` the sum of the residents' ``memory_bytes``.
        self.vms: Dict[str, VMSpec] = {vm.name: vm for vm in summary.vms}
        self.memory_used = summary.memory_used

    def add(self, vm: VMSpec) -> None:
        self.vms[vm.name] = vm
        self.memory_used += vm.memory_bytes

    def drop(self, name: str) -> None:
        self.memory_used -= self.vms.pop(name).memory_bytes

    @property
    def memory_free(self) -> int:
        return self.memory_bytes - self.memory_used

    @property
    def cpu_demand(self) -> float:
        return sum(vm.cpu_demand for vm in self.vms.values())

    def fits(self, vm: VMSpec) -> bool:
        return self.alive and vm.memory_bytes <= self.memory_free

    def summary(self) -> HostSummary:
        return HostSummary(
            name=self.name, index=0, shard=self.shard, domain=self.domain,
            alive=self.alive, cpu_capacity=self.cpu_capacity,
            memory_bytes=self.memory_bytes,
            vms=tuple(self.vms[n] for n in sorted(self.vms)))


def _reserve_satisfied(hosts: Sequence[_BarrierHost], reserve: int) -> bool:
    """Summary-level N+R: can the ``reserve`` most-loaded alive hosts
    evacuate into the free memory of the rest?"""
    alive = [h for h in hosts if h.alive]
    if reserve <= 0:
        return True
    if len(alive) <= reserve:
        return False
    doomed = sorted(alive, key=lambda h: (-h.memory_used, h.name))[:reserve]
    doomed_names = {h.name for h in doomed}
    needed = sum(h.memory_used for h in doomed)
    free = sum(h.memory_free for h in alive if h.name not in doomed_names)
    return needed <= free


@dataclass
class ClusterSimReport:
    """Outcome of one sharded run.

    ``manifest`` is the finalized merged manifest -- a pure function
    of the configuration, so its ``sha256`` is comparable across
    ``--jobs`` values. Wall-clock timing lives *outside* the manifest
    (``wall_s``) for exactly that reason.
    """

    config: ClusterSimConfig
    jobs: int
    manifest: Dict[str, object]
    sha256: str
    stats: Dict[str, object]
    wall_s: float = 0.0

    @property
    def bytes(self) -> bytes:
        return manifest_bytes(self.manifest)


def _build_shards(config: ClusterSimConfig) -> List[ShardState]:
    """Generate the fleet, provision hosts, and run initial placement.

    Runs in the parent before any fan-out. The fleet and the host
    count depend only on (fleet_size, seed, host_spec, headroom), so
    two runs with different shard counts provision identical hardware
    -- only the partition and the per-shard RNG streams differ.
    """
    fleet = generate_fleet(config.fleet_size, seed=config.seed)
    total_mem = sum(vm.memory_bytes for vm in fleet)
    host_count = max(
        config.shards,
        math.ceil(total_mem * config.memory_headroom
                  / config.host_spec.memory_bytes),
    )
    host_count = ((host_count + config.shards - 1)
                  // config.shards) * config.shards
    per_shard = host_count // config.shards

    root = DeterministicRNG(config.seed)
    plan = (FaultPlan.from_rates(config.seed,
                                 {"host.crash": config.crash_rate})
            if config.crash_rate > 0.0 else None)
    states: List[ShardState] = []
    all_hosts: List[Host] = []
    for shard_id in range(config.shards):
        registry = register_baseline(
            MetricsRegistry(clock=ManualClock(timebase="us")))
        injector = (FaultInjector(plan.for_shard(shard_id),
                                  metrics=registry.scope("faults"))
                    if plan is not None else None)
        hosts = []
        for i in range(per_shard):
            index = shard_id * per_shard + i
            name = f"{config.host_spec.name}-{index}"
            hosts.append(Host(
                config.host_spec, index,
                metrics=registry.scope(
                    f"cluster.shard.{shard_id:03d}.host.{name}")))
        all_hosts.extend(hosts)
        states.append(ShardState(
            shard_id=shard_id, hosts=hosts, registry=registry,
            rng=root.fork(0x5AA0 + shard_id),
            injector=injector, epoch_us=config.epoch_us,
            demand_jitter=config.demand_jitter,
            virt_overhead=config.virt_overhead))

    # Global initial placement across the whole fleet of hosts; the
    # resulting per-host VM sets land in the owning shard's registry.
    first_fit(fleet, all_hosts)
    for state in states:
        state.base_demand = {
            vm.name: vm.cpu_demand
            for host in state.hosts for vm in host.vms.values()
        }
    return states


def run_sharded_cluster(config: ClusterSimConfig, jobs: int = 1,
                        experiment: Optional[str] = None) -> ClusterSimReport:
    """Run the epoch-barrier loop and merge per-shard manifests."""
    config.validate()
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    started = _time.monotonic()
    states = _build_shards(config)
    shards = config.shards

    coord_registry = register_baseline(
        MetricsRegistry(clock=ManualClock(timebase="us")))
    coord = coord_registry.scope("cluster.coordinator")
    coord_rng = DeterministicRNG(config.seed).fork(0xC00D)
    coord_seq = 0
    pending_evac: List[VMSpec] = []
    messages_total = 0
    arrivals_index = 0

    inboxes: List[List[ShardMessage]] = [[] for _ in range(shards)]
    with ShardExecutor(jobs=jobs) as executor:
        for epoch in range(config.epochs):
            tasks = [(states[s], epoch, tuple(inboxes[s]))
                     for s in range(shards)]
            results = executor.map(run_cluster_shard_epoch, tasks)
            states = [r[0] for r in results]
            barrier_time = (epoch + 1) * config.epoch_us

            outgoing: List[ShardMessage] = []
            for _state, _summaries, msgs in results:
                outgoing.extend(msgs)
            _inboxes, evac_msgs = route_messages(outgoing, shards)
            # Shards never message each other directly today; every
            # shard-originated message is an evacuation to us.
            for shard_inbox in _inboxes:
                if shard_inbox:
                    raise ConfigError("unexpected direct shard-to-shard "
                                      "message")

            work: List[_BarrierHost] = []
            for result in results:
                work.extend(_BarrierHost(s) for s in result[1])
            by_name = {h.name: h for h in work}

            decisions: List[ShardMessage] = []

            def send(kind: str, dst_shard: int, payload: Tuple) -> None:
                nonlocal coord_seq
                coord_seq += 1
                decisions.append(ShardMessage(
                    time=barrier_time, src_shard=COORDINATOR,
                    seq=coord_seq, kind=kind, dst_shard=dst_shard,
                    payload=payload))

            # 1. Evacuation re-placement: stranded VMs (this barrier's
            # plus any still pending) go worst-fit onto survivors.
            stranded = pending_evac + [m.payload[0] for m in evac_msgs]
            pending_evac = []
            coord.counter("evac.requests").inc(len(evac_msgs))
            for vm in stranded:
                candidates = [h for h in work if h.fits(vm)]
                if candidates:
                    target = max(candidates,
                                 key=lambda h: (h.memory_free, h.name))
                    target.add(vm)
                    send("arrive", target.shard, (vm, target.name))
                    coord.counter("evac.replaced").inc()
                else:
                    pending_evac.append(vm)
                    coord.counter("evac.deferred").inc()

            # 2. Rebalancing: the DRS greedy over summaries; each move
            # becomes a depart/arrive pair delivered next epoch.
            if config.balance:
                moves = plan_rebalance(
                    [h.summary() for h in work],
                    high_watermark=config.high_watermark,
                    low_watermark=config.low_watermark,
                    max_moves=config.max_moves_per_epoch)
                for move in moves:
                    src, dst = by_name[move.src], by_name[move.dst]
                    src.drop(move.vm.name)
                    dst.add(move.vm)
                    send("depart", move.src_shard, (move.vm.name, move.src))
                    send("arrive", move.dst_shard, (move.vm, move.dst))
                    coord.counter("balancer.moves").inc()
                    coord.counter("balancer.moved_bytes").inc(
                        move.vm.memory_bytes)

            # 3. Admission: new arrivals clear a summary-level N+R
            # reserve check before they are placed first-fit.
            for _ in range(config.arrivals_per_epoch):
                klass: VMClass = DEFAULT_CATALOGUE[
                    coord_rng.sample_zipf(len(DEFAULT_CATALOGUE))]
                vm = VMSpec(name=f"new-{arrivals_index:04d}",
                            cpu_demand=klass.cpu_demand,
                            memory_bytes=klass.memory_bytes,
                            interactive=klass.interactive)
                arrivals_index += 1
                target = next((h for h in work if h.fits(vm)), None)
                if target is None:
                    coord.counter("admission.rejected.capacity").inc()
                    continue
                target.add(vm)
                if not _reserve_satisfied(work, config.reserve_failures):
                    target.drop(vm.name)
                    coord.counter("admission.rejected.reserve").inc()
                    continue
                send("arrive", target.shard, (vm, target.name))
                coord.counter("admission.accepted").inc()

            # 4. Consolidation floor: the cheap capacity lower bound
            # (FFD planning is O(V*H) -- far too hot for a 10k-VM
            # barrier; the bound is what the periodic report needs).
            if (epoch + 1) % config.consolidation_every == 0:
                vms = [vm for h in work for vm in h.vms.values()]
                if vms:
                    mem_lb = math.ceil(sum(v.memory_bytes for v in vms)
                                       / config.host_spec.memory_bytes)
                    cpu_lb = math.ceil(sum(v.cpu_demand for v in vms)
                                       / (config.host_spec.cpu_capacity
                                          * config.cpu_overcommit))
                    coord.gauge("consolidation.lower_bound_hosts").set(
                        max(mem_lb, cpu_lb))
                    coord.counter("consolidation.estimates").inc()

            messages_total += len(outgoing) + len(decisions)
            inboxes, leftover = route_messages(decisions, shards)
            if leftover:
                raise ConfigError("coordinator addressed itself")

    coord.counter("evac.unplaced_at_end").inc(len(pending_evac))
    coord_registry.clock.set(config.epochs * config.epoch_us)

    partials = [build_manifest(state.registry, experiment=experiment,
                               samples=True)
                for state in states]
    partials.append(build_manifest(
        coord_registry, experiment=experiment, samples=True,
        extra={"cluster_sharded": config.describe()}))
    manifest = finalize_manifest(merge_manifests(partials))
    payload = manifest_bytes(manifest)

    alive = sum(1 for s in states for h in s.hosts if h.alive)
    placed = sum(len(h.vms) for s in states for h in s.hosts)
    stats = {
        "hosts": sum(len(s.hosts) for s in states),
        "hosts_alive": alive,
        "vms_resident": placed,
        "messages": messages_total,
        "evac_unplaced": len(pending_evac),
    }
    return ClusterSimReport(
        config=config, jobs=jobs, manifest=manifest,
        sha256=hashlib.sha256(payload).hexdigest(), stats=stats,
        wall_s=_time.monotonic() - started)
