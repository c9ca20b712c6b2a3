"""Host power, energy, and money: the consolidation-savings report."""

from dataclasses import dataclass

from repro.cluster.host import Host, Placement
from repro.util.errors import ConfigError

HOURS_PER_YEAR = 24 * 365


@dataclass(frozen=True)
class PowerModel:
    """Linear power model + electricity price.

    ``cooling_overhead`` is the PUE-style multiplier for the cooling
    energy spent per IT watt (1.6 means 0.6 W of cooling per watt).
    """

    price_per_kwh: float = 0.18
    cooling_overhead: float = 1.6

    def host_watts(self, host: Host) -> float:
        if not host.vms:
            return 0.0  # powered off
        spec = host.spec
        return spec.idle_watts + (
            spec.peak_watts - spec.idle_watts
        ) * host.cpu_utilization

    def placement_watts(self, placement: Placement) -> float:
        return sum(self.host_watts(h) for h in placement.hosts)

    def annual_cost(self, watts: float) -> float:
        kwh = watts * self.cooling_overhead * HOURS_PER_YEAR / 1000.0
        return kwh * self.price_per_kwh


@dataclass(frozen=True)
class ConsolidationSavings:
    """Before/after comparison of two placements."""

    hosts_before: int
    hosts_after: int
    watts_before: float
    watts_after: float
    annual_cost_before: float
    annual_cost_after: float

    @property
    def consolidation_ratio(self) -> float:
        if self.hosts_after == 0:
            raise ConfigError("consolidated placement uses no hosts")
        return self.hosts_before / self.hosts_after

    @property
    def annual_saving(self) -> float:
        return self.annual_cost_before - self.annual_cost_after

    @property
    def saving_per_retired_host(self) -> float:
        retired = self.hosts_before - self.hosts_after
        if retired <= 0:
            return 0.0
        return self.annual_saving / retired


def consolidation_savings(
    before: Placement, after: Placement, model: PowerModel = None
) -> ConsolidationSavings:
    """Compare power/cost of two placements of the same VMs."""
    if before.total_vms != after.total_vms:
        raise ConfigError(
            f"placements hold different VM counts "
            f"({before.total_vms} vs {after.total_vms})"
        )
    model = model or PowerModel()
    wb = model.placement_watts(before)
    wa = model.placement_watts(after)
    return ConsolidationSavings(
        hosts_before=before.hosts_used,
        hosts_after=after.hosts_used,
        watts_before=wb,
        watts_after=wa,
        annual_cost_before=model.annual_cost(wb),
        annual_cost_after=model.annual_cost(wa),
    )
