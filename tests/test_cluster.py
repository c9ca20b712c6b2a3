"""Cluster: hosts, placement, interference, power, balancing."""

import random

import pytest

from repro.cluster import (
    DEFAULT_CATALOGUE,
    RELAX_ORDER,
    ConstraintSet,
    Host,
    HostSpec,
    LoadBalancer,
    Placement,
    PlacementPolicy,
    VMSpec,
    ResilienceController,
    consolidation_savings,
    failover,
    host_watts,
    first_fit,
    host_performance,
    place,
    plan_consolidation,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sim.kernel import Simulator
from repro.sim.link import NetworkLink
from repro.util.errors import ConfigError
from repro.util.units import GIB, MIB

SPEC = HostSpec(cores=4, cpu_capacity=4.0, memory_bytes=16 * GIB)


def vm(name, cpu=1.0, mem=2 * GIB, interactive=False):
    return VMSpec(name, cpu_demand=cpu, memory_bytes=mem,
                  interactive=interactive)


class TestHost:
    def test_place_and_accounting(self):
        host = Host(SPEC, 0)
        host.place(vm("a", cpu=1.5, mem=4 * GIB))
        assert host.memory_used == 4 * GIB
        assert host.cpu_demand == 1.5
        assert host.memory_free == 12 * GIB

    def test_memory_is_hard_constraint(self):
        host = Host(SPEC, 0)
        host.place(vm("a", mem=12 * GIB))
        assert not host.fits(vm("b", mem=8 * GIB))
        with pytest.raises(ConfigError):
            host.place(vm("b", mem=8 * GIB))

    def test_cpu_oversubscription_allowed(self):
        host = Host(SPEC, 0)
        for i in range(6):
            host.place(vm(f"v{i}", cpu=1.0, mem=1 * GIB))
        assert host.cpu_demand == 6.0
        assert host.cpu_utilization == 1.0  # clipped

    def test_duplicate_and_missing_vm(self):
        host = Host(SPEC, 0)
        host.place(vm("a"))
        with pytest.raises(ConfigError):
            host.place(vm("a"))
        with pytest.raises(ConfigError):
            host.remove("nope")

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            HostSpec(cores=0).validate()
        with pytest.raises(ConfigError):
            HostSpec(idle_watts=300, peak_watts=200).validate()


class TestPlacement:
    def _hosts(self, n=3):
        return [Host(SPEC, i) for i in range(n)]

    def test_first_fit_fills_in_order(self):
        hosts = self._hosts()
        placement = first_fit([vm(f"v{i}", mem=6 * GIB) for i in range(4)],
                              hosts)
        assert len(hosts[0].vms) == 2
        assert len(hosts[1].vms) == 2
        assert placement.hosts_used == 2

    def test_best_fit_packs_tightest(self):
        hosts = self._hosts(2)
        hosts[0].place(vm("pre", mem=10 * GIB))
        place([vm("new", mem=4 * GIB)], hosts, PlacementPolicy.BEST_FIT)
        assert "new" in hosts[0].vms  # squeezed into the fuller host

    def test_worst_fit_spreads(self):
        hosts = self._hosts(2)
        hosts[0].place(vm("pre", mem=10 * GIB))
        place([vm("new", mem=4 * GIB)], hosts, PlacementPolicy.WORST_FIT)
        assert "new" in hosts[1].vms

    def test_placement_failure(self):
        hosts = self._hosts(1)
        with pytest.raises(ConfigError):
            first_fit([vm("big", mem=20 * GIB)], hosts)

    def test_consolidation_minimizes_hosts(self):
        vms = [vm(f"v{i}", cpu=1.0, mem=4 * GIB) for i in range(8)]
        placement = plan_consolidation(vms, SPEC)
        assert placement.hosts_used == 2  # 4 VMs x 4 GiB per 16 GiB host
        assert placement.total_vms == 8

    def test_consolidation_respects_cpu_cap(self):
        # 1.5 x 4 cores: three 2-core VMs per host, though memory fits 8.
        vms = [vm(f"v{i}", cpu=2.0, mem=1 * GIB) for i in range(8)]
        assert plan_consolidation(vms, SPEC).hosts_used == 3

    def test_host_of_lookup(self):
        vms = [vm("a"), vm("b")]
        placement = plan_consolidation(vms, SPEC)
        assert placement.host_of("a") is not None
        assert placement.host_of("zz") is None


class TestInterference:
    def _loaded(self, n, interactive_first=True):
        host = Host(HostSpec(cores=4, cpu_capacity=4.0,
                             memory_bytes=64 * GIB), 0)
        for i in range(n):
            host.place(vm(f"v{i}", cpu=1.0, mem=1 * GIB,
                          interactive=(i == 0 and interactive_first)))
        return host

    def test_linear_region(self):
        perf = host_performance(self._loaded(2))
        assert perf.aggregate_throughput == pytest.approx(2.0)
        assert not perf.saturated

    def test_knee_at_capacity(self):
        # Four cores less the 5 % virtualization tax: the knee is 3.81.
        perf3 = host_performance(self._loaded(3))
        perf8 = host_performance(self._loaded(8))
        capacity = 4.0 / 1.05
        assert perf3.aggregate_throughput == pytest.approx(3.0)
        assert perf8.aggregate_throughput == pytest.approx(capacity)
        assert perf8.throughput["v1"] == pytest.approx(capacity / 8)

    def test_latency_blows_up_near_saturation(self):
        low = host_performance(self._loaded(2))
        high = host_performance(self._loaded(4))
        assert high.latency_factor["v0"] > 5 * low.latency_factor["v0"]

    def test_virt_overhead_shaves_capacity(self):
        assert host_performance(self._loaded(6)).aggregate_throughput < 4.0


class TestPower:
    def test_idle_host_powered_off(self):
        assert host_watts(Host(SPEC, 0)) == 0.0

    def test_watts_scale_with_utilization(self):
        light = Host(SPEC, 0)
        light.place(vm("a", cpu=1.0, mem=1 * GIB))
        heavy = Host(SPEC, 1)
        for i in range(4):
            heavy.place(vm(f"b{i}", cpu=1.0, mem=1 * GIB))
        assert host_watts(light) < host_watts(heavy)
        assert host_watts(heavy) == SPEC.peak_watts

    def test_consolidation_savings_report(self):
        vms = [vm(f"v{i}", cpu=1.0, mem=2 * GIB) for i in range(12)]
        before_hosts = []
        for i, v in enumerate(vms):
            host = Host(SPEC, 100 + i)
            host.place(v)
            before_hosts.append(host)
        before = Placement(hosts=before_hosts)
        after = plan_consolidation(vms, SPEC)
        savings = consolidation_savings(before, after)
        assert savings.hosts_after < savings.hosts_before
        assert savings.annual_saving > 0
        assert savings.consolidation_ratio > 2
        assert savings.saving_per_retired_host > 0

    def test_mismatched_placements_rejected(self):
        a = Placement(hosts=[Host(SPEC, 0)])
        host = Host(SPEC, 1)
        host.place(vm("x"))
        b = Placement(hosts=[host])
        with pytest.raises(ConfigError):
            consolidation_savings(a, b)


class TestBalancer:
    def _link(self):
        return NetworkLink(Simulator(), bandwidth_bytes_per_sec=125 * MIB)

    def test_relieves_overload(self):
        hosts = [Host(SPEC, i) for i in range(3)]
        for i in range(8):
            hosts[0].place(vm(f"hot{i}", cpu=1.0, mem=1 * GIB))
        placement = Placement(hosts=hosts)
        balancer = LoadBalancer(self._link())
        report = balancer.rebalance(placement)
        assert report.migration_count > 0
        assert report.imbalance_after < report.imbalance_before
        assert all(h.cpu_demand / h.spec.cpu_capacity <= 0.95
                   for h in hosts)
        assert report.total_downtime_us > 0

    def test_noop_when_balanced(self):
        hosts = [Host(SPEC, i) for i in range(2)]
        hosts[0].place(vm("a", cpu=1.0, mem=1 * GIB))
        hosts[1].place(vm("b", cpu=1.0, mem=1 * GIB))
        balancer = LoadBalancer(self._link())
        report = balancer.rebalance(Placement(hosts=hosts))
        assert report.migration_count == 0

    def test_no_target_no_migration(self):
        hosts = [Host(SPEC, 0)]  # nowhere to go
        for i in range(8):
            hosts[0].place(vm(f"v{i}", cpu=1.0, mem=1 * GIB))
        balancer = LoadBalancer(self._link())
        report = balancer.rebalance(Placement(hosts=hosts))
        assert report.migration_count == 0


def balanced(hosts):
    """The books: every host's maintained byte count equals a recount."""
    return all(h.memory_used == sum(v.memory_bytes for v in h.vms.values())
               for h in hosts)


class TestBooks:
    """``memory_used`` is maintained, not recounted; whoever moves VMs
    must leave it equal to the recount."""

    def _loaded(self, n=6):
        hosts = [Host(SPEC, i, domain=f"rack{i % 3}") for i in range(n)]
        return first_fit([vm(f"v{i}", cpu=0.9, mem=(1 + i % 3) * GIB)
                          for i in range(5 * n)], hosts)

    def test_place_remove_set_demand(self):
        host = Host(SPEC, 0)
        host.place(vm("a", mem=3 * GIB))
        host.place(vm("b", mem=5 * GIB))
        host.set_demand("a", 2.5)
        assert host.vms["a"] == vm("a", cpu=2.5, mem=3 * GIB)
        assert list(host.vms) == ["a", "b"]  # repricing keeps its place
        assert host.memory_used == 8 * GIB
        host.remove("a")
        with pytest.raises(ConfigError):
            host.remove("a")
        with pytest.raises(ConfigError):
            host.place(vm("b", mem=1 * GIB))
        assert host.memory_used == 5 * GIB and balanced([host])

    def test_failover(self):
        placement = self._loaded()
        placement.hosts[0].fail()
        report = failover(placement)
        assert report.recovered and not placement.hosts[0].vms
        assert balanced(placement.hosts)

    def test_resilience_controller_under_cascades(self):
        placement = self._loaded()
        placement.hosts[0].fail()
        injector = FaultInjector(FaultPlan(seed=5, specs=[
            FaultSpec("host.crash", rate=1.0, after=3, count=2)]))
        report = ResilienceController(placement, injector).run()
        assert report.cascade_failures and report.moves
        assert balanced(placement.hosts)

    def test_load_balancer(self):
        placement = self._loaded(n=3)  # first-fit leaves host-0 hot
        link = NetworkLink(Simulator(), bandwidth_bytes_per_sec=125 * MIB)
        report = LoadBalancer(link).rebalance(placement)
        assert report.migration_count > 0
        assert balanced(placement.hosts)


# -- place() against the per-VM scan it replaced ------------------------------


def scan_pick(v, hosts, policy, cons):
    """Reference: filter every host by fits(), then cs[0] / min / max
    (first of equals), walking the anti-affinity relax ladder."""
    peers = cons.peers_of(v.name) if cons is not None else frozenset()
    for level, name in enumerate(RELAX_ORDER):
        cs = [h for h in hosts if h.fits(v)]
        if peers and level == 0:
            census = {}
            for h in hosts:
                if h.alive:
                    census[h.domain] = (census.get(h.domain, 0)
                                        + len(peers.intersection(h.vms)))
            cs = [h for h in cs if not census[h.domain]]
        elif peers and level == 1:
            cs = [h for h in cs if not peers.intersection(h.vms)]
        if cs:
            if policy is PlacementPolicy.FIRST_FIT:
                return cs[0], name
            pick = min if policy is PlacementPolicy.BEST_FIT else max
            return pick(cs, key=lambda h: h.memory_free), name
    return None, RELAX_ORDER[-1]


def scan_place(vms, hosts, policy, cons):
    relaxations = {}
    for v in vms:
        host, level = scan_pick(v, hosts, policy, cons)
        if host is None:
            raise ConfigError(f"no host can fit VM {v.name}")
        host.place(v)
        if level != RELAX_ORDER[0]:
            relaxations[v.name] = level
    return relaxations


def twin_fleets(rng):
    """Two identical host lists: 1-70 hosts of mixed size over three
    racks, some dead before anything is placed."""
    sizes = [rng.choice((8 * GIB, 16 * GIB, 16 * GIB, 24 * GIB,
                         16 * GIB + 12345)) for _ in range(rng.randint(1, 70))]
    dead = {i for i in range(len(sizes)) if rng.random() < 0.15}
    twins = []
    for _ in range(2):
        hosts = [Host(HostSpec(cores=4, cpu_capacity=4.0, memory_bytes=size),
                      i, domain=f"rack{i % 3}")
                 for i, size in enumerate(sizes)]
        for i in dead:
            hosts[i].fail()
        twins.append(hosts)
    return twins


def random_batch(rng, hosts, tag):
    """Catalogue sizes, odd byte counts, and sizes that exactly fill
    some host's remaining room."""
    batch = []
    for i in range(rng.randint(1, 60)):
        kind = rng.random()
        if kind < 0.6:
            mem = rng.choice(DEFAULT_CATALOGUE).memory_bytes
        elif kind < 0.8:
            mem = rng.randrange(1, 5 * GIB) | 1
        else:
            mem = max(1, rng.choice(hosts).memory_free)
        batch.append(vm(f"{tag}-{i}", cpu=0.5, mem=mem))
    return batch


CONSTRAINTS = {
    "none": lambda names: None,
    "empty": lambda names: ConstraintSet({}),
    # Non-empty, but no placed VM has peers: the ladder's first rung.
    "strangers": lambda names: ConstraintSet({"svc": ["x", "y"]}),
    "groups": lambda names: ConstraintSet(
        {f"svc{g}": names[g::7] for g in range(7)}),
}


class TestPlaceMatchesScan:
    @pytest.mark.parametrize("kind", sorted(CONSTRAINTS))
    @pytest.mark.parametrize("policy", list(PlacementPolicy))
    def test_same_host_for_every_vm(self, policy, kind):
        refused = relaxed = 0
        for seed in range(25):
            rng = random.Random(seed)
            ours, theirs = twin_fleets(rng)
            cons = CONSTRAINTS[kind]([f"b{b}-{i}" for b in range(3)
                                      for i in range(60)])
            for round_ in range(3):
                batch = random_batch(rng, theirs, f"b{round_}")
                try:
                    expected = scan_place(batch, theirs, policy, cons)
                except ConfigError:
                    refused += 1
                    with pytest.raises(ConfigError):
                        place(batch, ours, policy, cons)
                else:
                    got = place(batch, ours, policy, cons)
                    assert got.relaxations == expected
                    relaxed += len(expected)
                # Same VMs, same hosts, same arrival order -- including
                # the prefix placed before a refusal.
                assert ([list(h.vms) for h in ours]
                        == [list(h.vms) for h in theirs]), (seed, round_)
                assert balanced(ours)
                for mine, twin in zip(ours, theirs):
                    for name in [n for n in mine.vms if rng.random() < 0.3]:
                        mine.remove(name)
                        twin.remove(name)
        assert refused  # the nothing-fits path was exercised
        assert relaxed or kind != "groups"

    def test_ties_go_to_the_leftmost_host(self):
        # n-1 equal VMs, worst-fit, over a dead host and n-1 equal live
        # ones: every pick is a tie among the still-empty hosts, and
        # any tie-break but the leftmost permutes the result.
        for n in (2, 3, 5, 8, 13, 64, 70):
            hosts = [Host(SPEC, i) for i in range(n)]
            hosts[0].fail()
            place([vm(f"v{i}") for i in range(n - 1)], hosts,
                  PlacementPolicy.WORST_FIT)
            assert ([list(h.vms) for h in hosts]
                    == [[]] + [[f"v{i}"] for i in range(n - 1)])
