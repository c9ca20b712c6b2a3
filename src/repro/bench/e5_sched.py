"""E5 (Figure 5): proportional-share vCPU scheduling.

Part A: three CPU-bound vCPUs with weights 1:2:4 on one core -- the
credit and stride schedulers deliver shares matching the weights, round
robin does not (the share-error column).

Part B: an interactive vCPU competing with CPU hogs -- the credit
scheduler's BOOST priority (with wake preemption) collapses wake-to-run
latency versus boost-off (Xen credit scheduler; Cherkasova et al.).
"""

from typing import Dict

from repro.sched import (
    CpuBoundWork,
    CreditScheduler,
    InteractiveWork,
    RoundRobinScheduler,
    StrideScheduler,
    VCpuTask,
    run_schedule,
)
from repro.bench.common import ExperimentResult, new_run_registry
from repro.sim.kernel import SEC
from repro.util.table import Table


def _hogs(weights):
    return [
        VCpuTask(f"vm{i}", weight=w, workload=CpuBoundWork())
        for i, w in enumerate(weights)
    ]


def run_e5(duration_us: int = 10 * SEC) -> ExperimentResult:
    weights = [1, 2, 4]
    registry = new_run_registry()
    sched_scope = registry.scope("sched")
    raw: Dict[str, object] = {}
    table = Table(
        "E5a: achieved CPU share vs weight (1:2:4, one core)",
        ["scheduler", "vm0", "vm1", "vm2", "share error", "fairness"],
    )
    for name, factory in (
        ("credit", CreditScheduler),
        ("stride", StrideScheduler),
        ("round-robin", RoundRobinScheduler),
    ):
        stats = run_schedule(factory(), _hogs(weights), duration_us,
                             metrics=sched_scope)
        raw[name] = stats
        table.add_row(
            name,
            stats.achieved_share["vm0"],
            stats.achieved_share["vm1"],
            stats.achieved_share["vm2"],
            stats.share_error,
            stats.fairness,
        )

    latency_table = Table(
        "E5b: interactive wake latency under 3 CPU hogs (credit)",
        ["boost", "p50 us", "p95 us", "mean us", "wakeups"],
    )
    for boost in (True, False):
        tasks = _hogs([256, 256, 256]) + [
            VCpuTask(
                "io",
                weight=256,
                workload=InteractiveWork(),
            )
        ]
        stats = run_schedule(
            CreditScheduler(boost=boost), tasks, duration_us // 2,
            metrics=sched_scope,
        )
        lat = stats.wake_latency["io"]
        raw[f"boost={boost}"] = lat
        latency_table.add_row(boost, lat.p50, lat.p95, lat.mean, lat.count)

    result = ExperimentResult("E5", table, raw=raw, metrics=registry)
    result.raw["latency_table"] = latency_table
    return result
