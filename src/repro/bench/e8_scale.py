"""E8s: datacenter-scale consolidation on the sharded simulator.

Where E8 measures the consolidation knee on one host, E8s runs the
whole control loop -- demand wobble, host crashes, coordinator-driven
evacuation, DRS rebalancing, admission control -- over fleets up to
10k VMs by partitioning hosts across shards
(:mod:`repro.cluster.coordinator`). The table reports the end state
per fleet size; ``raw['reports']`` keeps the full
:class:`ClusterSimReport` per point, including the merged-manifest
sha256 EXPERIMENTS.md pins.
"""

from typing import Dict

from repro.bench.common import ExperimentResult
from repro.cluster.coordinator import ClusterSimConfig, run_sharded_cluster
from repro.util.table import Table

#: Seed for the scale sweep; independent of every other experiment's.
E8S_SEED = 4099


def _scale_config(fleet_size: int, shards: int, epochs: int) -> ClusterSimConfig:
    return ClusterSimConfig(
        fleet_size=fleet_size,
        shards=shards,
        epochs=epochs,
        seed=E8S_SEED,
        crash_rate=0.01,
        arrivals_per_epoch=4,
    )


def run_e8_scale(
    shards: int = 8,
    quick: bool = False,
) -> ExperimentResult:
    """Sweep fleet sizes through the sharded cluster simulation.

    ``shards`` is part of the experiment's identity (it partitions the
    RNG streams). ``quick`` shrinks the sweep for CI.
    """
    fleet_sizes = (200, 1000) if quick else (200, 1000, 4000, 10000)
    epochs = 4 if quick else 6

    table = Table(
        f"E8s: sharded cluster simulation (shards={shards}, "
        f"epochs={epochs}, seed={E8S_SEED}{', quick' if quick else ''})",
        ["VMs", "hosts", "alive", "resident", "messages", "faults",
         "balancer moves", "wall s", "manifest sha"],
    )
    raw: Dict[str, object] = {"reports": {}, "shards": shards}
    last_report = None
    for fleet_size in fleet_sizes:
        config = _scale_config(fleet_size, shards, epochs)
        report = run_sharded_cluster(config, experiment="E8s")
        raw["reports"][fleet_size] = report
        last_report = report
        metrics = report.manifest["metrics"]

        def metric(name: str) -> float:
            snap = metrics.get(name)
            return snap["value"] if snap else 0

        table.add_row(
            fleet_size,
            report.stats["hosts"],
            report.stats["hosts_alive"],
            report.stats["vms_resident"],
            report.stats["messages"],
            int(metric("faults.injected.total")),
            int(metric("cluster.coordinator.balancer.moves")),
            round(report.wall_s, 2),
            report.sha256[:12],
        )

    result = ExperimentResult(
        "E8s", table, raw=raw,
        # The largest point's merged manifest stands for the run.
        manifest_data=last_report.manifest if last_report else None,
    )
    return result
