#!/usr/bin/env python3
"""Plan a server-consolidation project and quantify the savings.

A fleet of 50 service VMs currently runs one-per-host. This example
packs them onto as few hosts as first-fit-decreasing allows (memory as
the hard constraint, 1.5x CPU overcommit), evaluates contention on the
densest host, rebalances with migration-costed moves, and reports the
annual power + cooling savings.

Run:  python examples/server_consolidation.py
"""

from repro.cluster import (
    Host,
    HostSpec,
    LoadBalancer,
    Placement,
    VMSpec,
    consolidation_savings,
    host_performance,
    plan_consolidation,
)
from repro.sim.kernel import Simulator
from repro.sim.link import NetworkLink
from repro.util.units import GIB, MIB


def build_fleet(n: int = 50):
    return [
        VMSpec(
            f"svc{i:02d}",
            cpu_demand=1.0 + (i % 3) * 0.5,
            memory_bytes=(2 + i % 4) * GIB,
            interactive=(i % 5 == 0),
        )
        for i in range(n)
    ]


def main() -> None:
    spec = HostSpec(name="r740", cores=8, cpu_capacity=8.0,
                    memory_bytes=32 * GIB, idle_watts=120, peak_watts=280)
    vms = build_fleet()

    # Status quo: one VM per host.
    before_hosts = []
    for i, vm in enumerate(vms):
        host = Host(spec, index=100 + i)
        host.place(vm)
        before_hosts.append(host)
    before = Placement(hosts=before_hosts)

    after = plan_consolidation(vms, spec)
    savings = consolidation_savings(before, after)

    print(f"hosts: {savings.hosts_before} -> {savings.hosts_after} "
          f"({savings.consolidation_ratio:.1f}:1 consolidation)")
    print(f"power: {savings.watts_before / 1000:.2f} kW -> "
          f"{savings.watts_after / 1000:.2f} kW")
    print(f"annual saving: {savings.annual_saving:,.0f} EUR "
          f"({savings.saving_per_retired_host:,.0f} EUR per retired host)")

    print("\nper-host load after consolidation:")
    for host in after.hosts:
        perf = host_performance(host)
        print(f"  {host.name}: {len(host.vms)} VMs, "
              f"cpu {host.cpu_demand:.1f}/{host.spec.cpu_capacity:.0f}, "
              f"aggregate thpt {perf.aggregate_throughput:.2f}, "
              f"saturated={perf.saturated}")

    # Consolidating to 1.5x CPU leaves hot spots; add two spare hosts
    # and let the balancer spread the saturated ones via live migration.
    spare_base = len(after.hosts)
    after.hosts.extend(Host(spec, index=spare_base + i) for i in range(2))
    sim = Simulator()
    link = NetworkLink(sim, bandwidth_bytes_per_sec=125 * MIB)
    balancer = LoadBalancer(link)
    report = balancer.rebalance(after)
    print(f"\nrebalancing: {report.migration_count} migrations, "
          f"imbalance {report.imbalance_before:.3f} -> "
          f"{report.imbalance_after:.3f}, total downtime "
          f"{report.total_downtime_us / 1000:.1f} ms")
    for vm_name, src, dst in report.migrations:
        print(f"  migrated {vm_name}: {src} -> {dst}")


if __name__ == "__main__":
    main()
