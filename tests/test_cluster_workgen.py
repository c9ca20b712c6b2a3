"""Fleet generation."""

import pytest

from repro.cluster import (
    HostSpec,
    generate_fleet,
    plan_consolidation,
)
from repro.util.errors import ConfigError
from repro.util.units import GIB


def test_reproducible_from_seed():
    a = generate_fleet(40, seed=7)
    b = generate_fleet(40, seed=7)
    assert [(v.name, v.cpu_demand, v.memory_bytes) for v in a] == \
           [(v.name, v.cpu_demand, v.memory_bytes) for v in b]
    c = generate_fleet(40, seed=8)
    assert [v.cpu_demand for v in a] != [v.cpu_demand for v in c]


def test_zipf_skew_favors_small_classes():
    fleet = generate_fleet(300, seed=3)
    counts = {}
    for vm in fleet:
        klass = vm.name.rsplit("-", 1)[0]
        counts[klass] = counts.get(klass, 0) + 1
    assert counts.get("util", 0) > counts.get("db", 0)
    assert counts.get("util", 0) > counts.get("cache", 0)


def test_jitter_varies_demand_within_class():
    fleet = generate_fleet(200, seed=5)
    utils = [vm.cpu_demand for vm in fleet if vm.name.startswith("util-")]
    assert len(set(utils)) > 5
    base = 0.5
    assert all(base * 0.8 <= d <= base * 1.2 for d in utils)


def test_generated_fleet_is_placeable():
    fleet = generate_fleet(60, seed=11)
    spec = HostSpec(cores=16, cpu_capacity=16.0, memory_bytes=64 * GIB)
    placement = plan_consolidation(fleet, spec)
    assert placement.total_vms == 60
    assert placement.hosts_used < 60


def test_validation():
    with pytest.raises(ConfigError):
        generate_fleet(0)
