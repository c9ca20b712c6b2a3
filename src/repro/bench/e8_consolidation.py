"""E8 (Figure 8): consolidation density and the power/cost story.

Part A: CPU-bound VMs packed onto a 4-core host -- aggregate throughput
climbs linearly and flattens at the capacity knee while per-VM
throughput and interactive latency degrade past it.

Part B: a 50-VM fleet placed 1:1 on physical hosts versus consolidated
by first-fit decreasing -- hosts used, consolidation ratio, and annual
power+cooling cost saving.
"""

from typing import Dict, List

from repro.bench.common import ExperimentResult
from repro.cluster import (
    Host,
    HostSpec,
    Placement,
    PowerModel,
    VMSpec,
    consolidation_savings,
    host_performance,
    plan_consolidation,
)
from repro.util.chart import ascii_chart
from repro.util.table import Table
from repro.util.units import GIB


def run_e8(
    densities: List[int] = (1, 2, 3, 4, 5, 6, 8),
    fleet_size: int = 50,
) -> ExperimentResult:
    knee_spec = HostSpec(cores=4, cpu_capacity=4.0, memory_bytes=64 * GIB)
    raw: Dict[str, object] = {"knee": {}}
    table = Table(
        "E8a: VMs per 4-core host (1 core demand each)",
        ["VMs/host", "aggregate thpt", "per-VM thpt", "latency factor",
         "saturated"],
    )
    for n in densities:
        host = Host(knee_spec, 0)
        for i in range(n):
            host.place(VMSpec(f"v{i}", cpu_demand=1.0, memory_bytes=1 * GIB,
                              interactive=(i == 0)))
        perf = host_performance(host)
        raw["knee"][n] = perf
        table.add_row(
            n,
            perf.aggregate_throughput,
            perf.throughput["v1" if n > 1 else "v0"],
            perf.latency_factor["v0"],
            perf.saturated,
        )

    # Part B: fleet consolidation.
    fleet_spec = HostSpec(cores=8, cpu_capacity=8.0, memory_bytes=32 * GIB)
    vms = [
        VMSpec(f"vm{i}", cpu_demand=1.0 + (i % 3) * 0.5,
               memory_bytes=(2 + i % 4) * GIB)
        for i in range(fleet_size)
    ]
    before_hosts = []
    for i, vm in enumerate(vms):
        host = Host(fleet_spec, index=1000 + i)
        host.place(vm)
        before_hosts.append(host)
    before = Placement(hosts=before_hosts)
    after = plan_consolidation(vms, fleet_spec, cpu_overcommit=1.5)
    savings = consolidation_savings(before, after, PowerModel())
    raw["savings"] = savings

    fleet_table = Table(
        f"E8b: consolidating {fleet_size} VMs (first-fit decreasing)",
        ["hosts before", "hosts after", "ratio", "kW before", "kW after",
         "annual saving EUR", "per retired host EUR"],
    )
    fleet_table.add_row(
        savings.hosts_before,
        savings.hosts_after,
        savings.consolidation_ratio,
        savings.watts_before / 1000.0,
        savings.watts_after / 1000.0,
        savings.annual_saving,
        savings.saving_per_retired_host,
    )
    result = ExperimentResult("E8", table, raw=raw)
    result.raw["fleet_table"] = fleet_table
    result.raw["chart"] = ascii_chart(
        {
            "aggregate": [
                (n, raw["knee"][n].aggregate_throughput) for n in densities
            ],
            "per-VM": [
                (n, raw["knee"][n].throughput[f"v{min(n - 1, 1)}"])
                for n in densities
            ],
        },
        title="Figure 8: throughput vs VMs per 4-core host",
        x_label="VMs/host",
        y_label="core-units",
    )
    return result
