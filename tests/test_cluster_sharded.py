"""The sharded cluster simulation: determinism, parity, fault plans."""

import pickle
from dataclasses import replace

import pytest

from repro.bench.e8_scale import run_e8_scale
from repro.cluster import coordinator
from repro.cluster.balancer import plan_rebalance
from repro.cluster.coordinator import (
    ClusterSimConfig,
    _build_shards,
    run_cluster_shard_epoch,
    run_sharded_cluster,
)
from repro.cluster.host import Host, HostSpec, VMSpec
from repro.faults.injector import FaultInjector, FaultPlan, FaultSpec
from repro.obs.manifest import manifest_bytes
from repro.sim.shard import COORDINATOR, ShardMessage
from repro.util.errors import ConfigError
from repro.util.units import GIB
from tests.test_cluster import balanced

CFG = ClusterSimConfig(fleet_size=80, shards=4, epochs=4, seed=11,
                       crash_rate=0.02, arrivals_per_epoch=2)


def test_jobs_invariance_byte_identical():
    # ``jobs`` is accepted (the frozen benchmark passes it) and changes
    # no byte: the shards run inline whatever it says.
    r1 = run_sharded_cluster(CFG, jobs=1)
    r2 = run_sharded_cluster(CFG, jobs=4)
    assert manifest_bytes(r1.manifest) == manifest_bytes(r2.manifest)
    assert r1.sha256 == r2.sha256
    assert r1.stats == r2.stats


def test_single_shard_reproducible():
    cfg = ClusterSimConfig(fleet_size=60, shards=1, epochs=3, seed=5,
                           crash_rate=0.05)
    assert (manifest_bytes(run_sharded_cluster(cfg, jobs=1).manifest)
            == manifest_bytes(run_sharded_cluster(cfg, jobs=1).manifest))


def test_shard_count_is_part_of_identity():
    # Repartitioning forks different RNG streams; results legitimately
    # differ (exactly as a different seed would).
    two = ClusterSimConfig(fleet_size=80, shards=2, epochs=4, seed=11,
                           crash_rate=0.02, arrivals_per_epoch=2)
    assert run_sharded_cluster(CFG).sha256 != run_sharded_cluster(two).sha256


def test_merged_manifest_shape():
    report = run_sharded_cluster(CFG, jobs=1, experiment="E8s")
    manifest = report.manifest
    assert manifest["experiment"] == "E8s"
    assert manifest["extra"]["cluster_sharded"]["shards"] == 4
    # Per-shard namespaces survive the merge; shared faults counters sum.
    names = manifest["metrics"]
    assert any(n.startswith("cluster.shard.000.") for n in names)
    assert any(n.startswith("cluster.shard.003.") for n in names)
    assert "faults.injected.total" in names
    assert "cluster.coordinator.evac.requests" in names
    # Finalized: no raw histogram samples left.
    assert all("values" not in snap for snap in names.values())


def test_epoch_function_is_pure_under_pickling():
    # The inline path hands the worker function live state; the pooled
    # path hands it a pickled copy. Both must produce identical results
    # -- that equivalence is what jobs-invariance rests on.
    states = _build_shards(CFG)
    state = states[0]
    clone = pickle.loads(pickle.dumps(state))
    _, summaries_a, out_a = run_cluster_shard_epoch((state, 0, ()))
    _, summaries_b, out_b = run_cluster_shard_epoch((clone, 0, ()))
    assert summaries_a == summaries_b
    assert out_a == out_b


@pytest.mark.parametrize("crash_rate, moved", [
    (CFG.crash_rate, ("balancer.moves", "admission.accepted")),
    # CFG's seed crashes nobody in four epochs; this one evacuates 16 VMs.
    (0.05, ("balancer.moves", "admission.accepted", "evac.replaced")),
])
def test_books_balance_through_a_run(crash_rate, moved, monkeypatch):
    # Audit the shards' hosts after every epoch, and the coordinator's
    # working hosts where it reads them for the N+R check: after
    # evacuation re-placement, rebalancing and each tentative admission.
    epoch = coordinator.run_cluster_shard_epoch
    reserve = coordinator._reserve_satisfied
    audits = {"shard": 0, "barrier": 0}

    def audited_epoch(task):
        result = epoch(task)
        assert balanced(result[0].hosts)
        audits["shard"] += 1
        return result

    def audited_reserve(work):
        assert balanced(work)
        audits["barrier"] += 1
        return reserve(work)

    monkeypatch.setattr(coordinator, "run_cluster_shard_epoch", audited_epoch)
    monkeypatch.setattr(coordinator, "_reserve_satisfied", audited_reserve)
    cfg = replace(CFG, crash_rate=crash_rate)
    report = run_sharded_cluster(cfg, jobs=1)
    assert audits["shard"] == cfg.shards * cfg.epochs and audits["barrier"]
    metrics = report.manifest["metrics"]
    for name in moved:
        assert metrics[f"cluster.coordinator.{name}"]["value"] > 0


def test_books_survive_a_pickled_round_trip():
    state = _build_shards(CFG)[0]
    host = state.hosts[0]
    leaving = next(iter(host.vms.values()))
    # One VM leaves and another takes exactly the room it frees.
    inbox = (
        ShardMessage(time=0, src_shard=COORDINATOR, seq=1, kind="depart",
                     dst_shard=0, payload=(leaving.name, host.name)),
        ShardMessage(time=0, src_shard=COORDINATOR, seq=2, kind="arrive",
                     dst_shard=0, payload=(
                         VMSpec("late", memory_bytes=host.memory_free
                                + leaving.memory_bytes), host.name)),
    )
    clone = pickle.loads(pickle.dumps(state))
    assert balanced(clone.hosts)
    # The name index travelled in the same pickle graph as the list.
    assert all(clone.host_by_name[h.name] is h for h in clone.hosts)
    clone, _, _ = run_cluster_shard_epoch((clone, 0, inbox))
    arrived = clone.hosts[0]
    assert leaving.name not in arrived.vms and "late" in arrived.vms
    assert arrived.memory_free == 0 and balanced(clone.hosts)


#: EXPERIMENTS.md's E8s rows (seed 4099, 8 shards, 6 epochs).
E8S_SHAS = {200: "ac912e0f7ff7", 1000: "80f26952a123",
            4000: "5879623f063a", 10000: "f46e2f02ac80"}


def test_e8s_manifest_shas_are_pinned():
    reports = run_e8_scale().raw["reports"]
    assert {n: r.sha256[:12] for n, r in reports.items()} == E8S_SHAS


def test_per_shard_fault_plans_are_decoupled_and_reproducible():
    plan = FaultPlan(seed=42, specs=[FaultSpec("host.crash", rate=0.5)])
    shard0, shard1 = plan.for_shard(0), plan.for_shard(1)
    assert shard0.seed != shard1.seed != plan.seed
    assert shard0.specs == plan.specs
    # Same shard, same schedule -- byte for byte.
    a, b = FaultInjector(shard0), FaultInjector(plan.for_shard(0))
    for _ in range(64):
        a.fires("host.crash")
        b.fires("host.crash")
    assert a.trace_bytes() == b.trace_bytes()
    # Different shard, different schedule.
    c = FaultInjector(shard1)
    for _ in range(64):
        c.fires("host.crash")
    assert c.trace_bytes() != a.trace_bytes()
    with pytest.raises(ConfigError):
        plan.for_shard(-1)


def test_cross_shard_evacuation_delivers_vms():
    # With crashes on, some VM crosses a shard boundary via the
    # coordinator; the run still conserves VMs (resident + unplaced ==
    # initial + accepted arrivals).
    cfg = ClusterSimConfig(fleet_size=80, shards=4, epochs=6, seed=3,
                           crash_rate=0.05, arrivals_per_epoch=0)
    report = run_sharded_cluster(cfg, jobs=1)
    metrics = report.manifest["metrics"]
    assert metrics["cluster.coordinator.evac.requests"]["value"] > 0
    replaced = metrics["cluster.coordinator.evac.replaced"]["value"]
    assert replaced > 0
    accepted = metrics.get("cluster.coordinator.admission.accepted",
                           {"value": 0})["value"]
    assert (report.stats["vms_resident"] + report.stats["evac_unplaced"]
            == cfg.fleet_size + accepted)


def test_host_summary_round_trip():
    spec = HostSpec(cores=8, cpu_capacity=8.0, memory_bytes=16 * GIB)
    host = Host(spec, 3)
    host.place(VMSpec("b", cpu_demand=1.0, memory_bytes=2 * GIB))
    host.place(VMSpec("a", cpu_demand=2.0, memory_bytes=4 * GIB))
    summary = host.summary(shard=2)
    assert summary.shard == 2
    assert [vm.name for vm in summary.vms] == ["a", "b"]  # sorted
    assert summary.cpu_demand == host.cpu_demand
    assert summary.memory_free == host.memory_free
    assert summary.alive and 8 * GIB <= summary.memory_free
    assert not 16 * GIB <= summary.memory_free
    assert pickle.loads(pickle.dumps(summary)) == summary


def test_plan_rebalance_moves_load_off_hot_host():
    spec = HostSpec(cores=4, cpu_capacity=4.0, memory_bytes=32 * GIB)
    hot = Host(spec, 0)
    for i in range(4):
        hot.place(VMSpec(f"v{i}", cpu_demand=1.0, memory_bytes=1 * GIB))
    cold = Host(spec, 1)
    moves = plan_rebalance([hot.summary(0), cold.summary(1)])
    assert moves and moves[0].src == hot.name and moves[0].dst == cold.name
    assert moves[0].src_shard == 0 and moves[0].dst_shard == 1
    # Planned end state respects the high watermark on the source.
    moved = {m.vm.name for m in moves}
    remaining = sum(v.cpu_demand for v in hot.vms.values()
                    if v.name not in moved)
    assert remaining <= 0.85 * spec.cpu_capacity


def test_plan_rebalance_respects_memory_and_budget():
    spec = HostSpec(cores=4, cpu_capacity=4.0, memory_bytes=4 * GIB)
    hot = Host(spec, 0)
    hot.place(VMSpec("big", cpu_demand=4.0, memory_bytes=4 * GIB))
    full = Host(spec, 1)
    full.place(VMSpec("filler", cpu_demand=0.1, memory_bytes=3 * GIB))
    # No target has 4 GiB free: no moves.
    assert plan_rebalance([hot.summary(0), full.summary(0)]) == []


def test_config_validation():
    with pytest.raises(ConfigError):
        ClusterSimConfig(fleet_size=0).validate()
    with pytest.raises(ConfigError):
        ClusterSimConfig(shards=0).validate()
    with pytest.raises(ConfigError):
        run_sharded_cluster(ClusterSimConfig(fleet_size=10, epochs=1), jobs=0)
