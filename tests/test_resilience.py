"""Failure domains, constrained placement, evacuation, and the
detect→evacuate→re-place→verify resilience loop."""

import pytest

from repro.cluster import (
    AdmissionError,
    ConstraintSet,
    EvacuationConfig,
    Host,
    HostSpec,
    RELAX_ORDER,
    ResilienceController,
    VMSpec,
    failover,
    first_fit,
    reservation_satisfied,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.util.errors import ConfigError
from repro.util.units import GIB

SPEC = HostSpec(cores=4, cpu_capacity=4.0, memory_bytes=16 * GIB)


def vm(name, cpu=1.0, mem=2 * GIB):
    return VMSpec(name, cpu_demand=cpu, memory_bytes=mem)


def racked_hosts(n=4, per_rack=2, spec=SPEC):
    return [Host(spec, i, domain=f"rack{i // per_rack}") for i in range(n)]


class TestConstraintSet:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ConstraintSet(max_per_domain=0)
        with pytest.raises(ConfigError):
            ConstraintSet(reserve_failures=-1)
        with pytest.raises(ConfigError):
            ConstraintSet(anti_affinity_groups={"a": ["x"], "b": ["x"]})

    def test_group_lookup(self):
        cs = ConstraintSet(anti_affinity_groups={"svc": ["a", "b", "c"]})
        assert cs.group_of("a") == "svc"
        assert cs.group_of("zzz") is None
        assert cs.peers_of("a") == frozenset({"b", "c"})
        assert cs.peers_of("zzz") == frozenset()
        assert not cs.is_empty()
        assert ConstraintSet().is_empty()

    def test_domain_labels(self):
        hosts = racked_hosts()
        assert [h.domain for h in hosts] == \
            ["rack0", "rack0", "rack1", "rack1"]
        # The spec-level default applies when no override is given.
        assert Host(SPEC, 9).domain == SPEC.failure_domain
        placement = first_fit([vm("a")], hosts)
        assert placement.domain_of("a") == "rack0"
        assert placement.domains == ["rack0", "rack1"]


class TestConstrainedPlacement:
    def test_anti_affinity_spreads_across_domains(self):
        hosts = racked_hosts()
        cs = ConstraintSet(anti_affinity_groups={"svc": ["a", "b"]})
        placement = first_fit([vm("a"), vm("b")], hosts, constraints=cs)
        assert placement.domain_of("a") != placement.domain_of("b")
        assert placement.relaxations == {}

    def test_relaxes_to_host_spread_then_unconstrained(self):
        # Two hosts, one rack: domain-spread is unsatisfiable for the
        # second replica, host-spread still is for the third.
        hosts = [Host(SPEC, i, domain="rack0") for i in range(2)]
        cs = ConstraintSet(
            anti_affinity_groups={"svc": ["a", "b", "c"]})
        placement = first_fit([vm("a"), vm("b"), vm("c")], hosts,
                              constraints=cs)
        assert placement.relaxations["b"] == "host-spread"
        assert placement.host_of("a") is not placement.host_of("b")
        assert placement.relaxations["c"] == "unconstrained"
        assert RELAX_ORDER == ("domain-spread", "host-spread",
                               "unconstrained")

    def test_max_per_domain_allows_bounded_colocation(self):
        hosts = racked_hosts()
        cs = ConstraintSet(anti_affinity_groups={"svc": ["a", "b", "c"]},
                           max_per_domain=2)
        placement = first_fit([vm("a"), vm("b"), vm("c")], hosts,
                              constraints=cs)
        assert placement.relaxations == {}
        by_domain = {}
        for name in "abc":
            d = placement.domain_of(name)
            by_domain[d] = by_domain.get(d, 0) + 1
        assert max(by_domain.values()) <= 2

    def test_unconstrained_call_sites_unchanged(self):
        a = [Host(SPEC, i) for i in range(2)]
        b = [Host(SPEC, i) for i in range(2)]
        p1 = first_fit([vm("a"), vm("b")], a)
        p2 = first_fit([vm("a"), vm("b")], b, constraints=ConstraintSet())
        assert [sorted(h.vms) for h in p1.hosts] == \
            [sorted(h.vms) for h in p2.hosts]


class TestReservation:
    def test_capacity_level_check(self):
        hosts = racked_hosts()
        first_fit([vm("a", mem=8 * GIB)], hosts)
        # 8 GiB on the doomed host, 3 x 16 GiB spare elsewhere: fine.
        assert reservation_satisfied(hosts, reserve=1)
        assert not reservation_satisfied(hosts, reserve=4)
        assert reservation_satisfied(hosts, reserve=0)

    def test_admission_refuses_instead_of_relaxing(self):
        hosts = [Host(SPEC, i) for i in range(2)]
        cs = ConstraintSet(reserve_failures=1)
        first_fit([vm(f"v{i}", mem=4 * GIB) for i in range(4)], hosts,
                  constraints=cs)
        # 16 GiB used; the fuller host can still evacuate. One more VM
        # and it could not: admission control refuses, it never relaxes.
        with pytest.raises(AdmissionError):
            first_fit([vm("straw", mem=8 * GIB)], hosts, constraints=cs)
        assert all("straw" not in h.vms for h in hosts)


class TestHostFail:
    def test_fail_is_idempotent(self):
        host = Host(SPEC, 0)
        start = host.crashes
        assert host.fail() is True
        assert host.fail() is False
        assert host.crashes == start + 1
        assert not host.alive

    def test_maybe_crash_skips_dead_hosts(self):
        injector = FaultInjector(FaultPlan(seed=7, specs=[
            FaultSpec("host.crash", rate=1.0),
        ]))
        host = Host(SPEC, 0)
        assert host.maybe_crash(injector)
        assert not host.maybe_crash(injector)  # already dead: no-op
        assert host.crashes == 1
        assert not Host(SPEC, 1).maybe_crash(None)


class TestFailoverEdges:
    def test_zero_survivors_loses_all_with_full_specs(self):
        hosts = [Host(SPEC, i) for i in range(2)]
        vms = [vm("a"), vm("b", mem=4 * GIB)]
        placement = first_fit(vms, hosts)
        for h in hosts:
            h.fail()
        report = failover(placement)
        assert report.recovered == []
        assert sorted(report.lost_names) == ["a", "b"]
        # Full specs survive, so placement can be retried later.
        assert {v.name: v.memory_bytes for v in report.lost} == \
            {"a": 2 * GIB, "b": 4 * GIB}

    def test_vm_too_big_for_any_survivor_is_lost(self):
        hosts = [Host(SPEC, i) for i in range(3)]
        big = vm("big", mem=12 * GIB)
        placement = first_fit(
            [big, vm("filler0", mem=10 * GIB), vm("filler1", mem=10 * GIB)],
            hosts)
        hosts[0].fail()
        report = failover(placement)
        assert report.lost == [big]
        assert report.gave_up == []

    def test_move_order_is_deterministic(self):
        def run():
            hosts = [Host(SPEC, i) for i in range(4)]
            vms = [vm("n1", mem=1 * GIB), vm("n0", mem=1 * GIB),
                   vm("big", mem=8 * GIB), vm("mid", mem=4 * GIB)]
            placement = first_fit(vms, hosts)
            hosts[0].fail()
            return failover(placement)

        r1, r2 = run(), run()
        assert r1.moves == r2.moves
        # Largest-first drain; names break the 1 GiB tie.
        assert [m[0] for m in r1.moves] == ["big", "mid", "n0", "n1"]

    def test_failover_honors_constraints_with_relax(self):
        hosts = racked_hosts()
        cs = ConstraintSet(anti_affinity_groups={"svc": ["a", "b"]})
        placement = first_fit([vm("a"), vm("b")], hosts, constraints=cs)
        dead = placement.host_of("a")
        dead.fail()
        report = failover(placement, constraints=cs)
        assert report.recovered == ["a"]
        # "a" landed outside its peer's rack when possible.
        assert placement.domain_of("a") != placement.domain_of("b") or \
            report.relaxations.get("a") in RELAX_ORDER[1:]


class TestEvacuation:
    def test_evacuate_prices_moves(self):
        hosts = [Host(SPEC, i) for i in range(2)]
        placement = first_fit([vm("a", mem=4 * GIB)], hosts)
        hosts[0].fail()
        report = failover(placement, evacuate=EvacuationConfig())
        assert report.recovered == ["a"]
        assert report.evacuation_time_us > 0
        assert report.evacuation_downtime_us > 0
        assert report.evacuation_retries == 0

    def test_link_drops_retry_then_give_up(self):
        def run(drops):
            hosts = [Host(SPEC, i) for i in range(2)]
            placement = first_fit([vm("a", mem=4 * GIB)], hosts)
            hosts[0].fail()
            injector = FaultInjector(FaultPlan(seed=11, specs=[
                FaultSpec("migrate.link_drop", rate=1.0, count=drops),
            ]))
            cfg = EvacuationConfig(
                retry_policy=RetryPolicy(max_retries=2))
            return failover(placement, evacuate=cfg, injector=injector), \
                injector

        absorbed, _ = run(drops=2)
        assert absorbed.recovered == ["a"]
        assert absorbed.evacuation_retries == 2
        assert absorbed.evacuation_backoff_us > 0

        exhausted, inj = run(drops=3)
        assert exhausted.recovered == []
        assert exhausted.gave_up == ["a"]
        assert exhausted.lost_names == ["a"]
        _, replay_inj = run(drops=3)
        assert inj.trace_bytes() == replay_inj.trace_bytes()


class TestResilienceController:
    def test_quiescent_cluster_is_a_noop(self):
        hosts = racked_hosts()
        placement = first_fit([vm("a")], hosts)
        report = ResilienceController(placement).run()
        assert report.rounds == 0
        assert report.moves == []
        assert report.verified

    def test_cascade_mid_recovery_forces_replan(self):
        hosts = [Host(SPEC, i) for i in range(3)]
        placement = first_fit([vm("a")], hosts)
        hosts[0].fail()
        injector = FaultInjector(FaultPlan(seed=3, specs=[
            # Fires at the very first post-pricing poll: the chosen
            # (emptiest) target dies with the move in flight.
            FaultSpec("host.crash", rate=1.0, after=0, count=1),
        ]))
        controller = ResilienceController(placement, injector=injector)
        report = controller.run()
        assert report.initial_failures == ["host-0"]
        assert report.cascade_failures == ["host-1"]
        assert report.replans == 1
        assert report.recovered == ["a"]
        assert placement.host_of("a").name == "host-2"
        assert report.verified

    def test_cascade_strands_more_vms_next_round(self):
        hosts = [Host(SPEC, i) for i in range(4)]
        placement = first_fit(
            [vm("a"), vm("b", mem=4 * GIB), vm("c", mem=6 * GIB)], hosts)
        hosts[0].fail()  # strands a, b, c
        injector = FaultInjector(FaultPlan(seed=5, specs=[
            # The second poll kills a survivor that just took a VM;
            # the next detect round must drain it again.
            FaultSpec("host.crash", rate=1.0, after=3, count=1),
        ]))
        controller = ResilienceController(placement, injector=injector)
        report = controller.run()
        assert report.rounds >= 2
        assert len(report.cascade_failures) == 1
        assert report.verified
        alive = {h.name for h in hosts if h.alive}
        for name in ("a", "b", "c"):
            if name not in report.lost_names:
                assert placement.host_of(name).name in alive

    def test_controller_respects_constraints_and_reports_loss(self):
        hosts = racked_hosts()
        cs = ConstraintSet(anti_affinity_groups={"svc": ["a", "b"]},
                           reserve_failures=1)
        placement = first_fit([vm("a"), vm("b")], hosts, constraints=cs)
        placement.host_of("a").fail()
        report = ResilienceController(placement, constraints=cs).run()
        # Reservation is stripped on re-placement (liveness first);
        # spread is kept: "a" lands away from "b"'s rack.
        assert report.recovered == ["a"]
        assert placement.domain_of("a") != placement.domain_of("b")
        assert report.verified

    def test_controller_metrics_scope(self):
        from repro.obs.registry import MetricsRegistry
        registry = MetricsRegistry()
        hosts = [Host(SPEC, i) for i in range(2)]
        placement = first_fit([vm("a")], hosts)
        hosts[0].fail()
        controller = ResilienceController(
            placement, metrics=registry.scope("cluster.resilience"))
        controller.run()
        snap = registry.snapshot()["metrics"]
        assert snap["cluster.resilience.moves"]["value"] == 1
        assert snap["cluster.resilience.recovered"]["value"] == 1
