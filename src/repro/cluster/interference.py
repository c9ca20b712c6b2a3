"""Per-host performance under consolidation.

CPU model: the scheduler (see :mod:`repro.sched`) gives each vCPU a
proportional share, so when aggregate demand exceeds capacity every VM
runs at ``capacity / demand`` of its desired speed. Aggregate
throughput therefore rises linearly with VMs-per-host and flattens at
capacity -- the E8 knee.

Latency model for interactive VMs: M/M/1-style inflation
``R/R0 = 1 / (1 - rho)`` with utilization capped below 1, matching the
empirical blow-up of tail latency on saturated consolidated hosts.

A flat per-VM ``virt_overhead`` (the E1 tax for the chosen execution
mode) multiplies the usable capacity.
"""

from dataclasses import dataclass
from typing import Dict

from repro.cluster.host import Host

#: Utilization ceiling for the latency formula (avoids division by 0).
_RHO_CAP = 0.99


@dataclass(frozen=True)
class HostPerformance:
    """Performance of every VM on one host."""

    host_name: str
    cpu_demand: float
    cpu_capacity: float
    #: Per-VM delivered throughput in core-units.
    throughput: Dict[str, float]
    #: Per-VM latency inflation factor (1.0 = uncontended).
    latency_factor: Dict[str, float]

    @property
    def aggregate_throughput(self) -> float:
        return sum(self.throughput.values())

    @property
    def saturated(self) -> bool:
        return self.cpu_demand > self.cpu_capacity


#: The flat per-VM virtualization tax on a host's CPU capacity.
VIRT_OVERHEAD = 0.05


def host_performance(host: Host) -> HostPerformance:
    """Evaluate delivered throughput and latency factors on one host."""
    effective_capacity = host.spec.cpu_capacity / (1.0 + VIRT_OVERHEAD)
    demand = host.cpu_demand
    scale = 1.0 if demand <= effective_capacity else effective_capacity / demand
    rho = min(_RHO_CAP, demand / effective_capacity)
    throughput = {}
    latency = {}
    for name, vm in host.vms.items():
        throughput[name] = vm.cpu_demand * scale
        latency[name] = 1.0 / (1.0 - rho) if vm.interactive else max(1.0, 1.0 / scale)
    return HostPerformance(
        host_name=host.name,
        cpu_demand=demand,
        cpu_capacity=effective_capacity,
        throughput=throughput,
        latency_factor=latency,
    )
