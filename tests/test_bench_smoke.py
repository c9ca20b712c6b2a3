"""Fast smoke runs of the experiment runners (tiny parameters).

The full-size runs with shape assertions live in benchmarks/; these
keep `pytest tests/` exercising the harness code end to end.
"""

from repro.bench import (
    run_e1,
    run_e2,
    run_e4,
    run_e5,
    run_e6,
    run_e7,
    run_e8,
    run_e8_scale,
    run_e9_bt,
)
from repro.sim.kernel import SEC


def test_e1_small():
    result = run_e1(syscalls=40)
    assert result.experiment == "E1"
    modes = result.raw["modes"]
    assert len(modes) == 7
    assert "hw+hmode" in modes
    assert not modes["trap-emulate"].correct
    assert modes["native"].exits == 0
    assert "trap-emulate" in result.render()


def test_e2_small():
    result = run_e2(pt_cycles=30, walk_pages=64, walk_accesses=1500)
    pt = result.raw["pt_stress"]
    assert pt["nested"].total_cycles < pt["shadow"].total_cycles


def test_e4_small():
    result = run_e4(requests=16)
    cases = result.raw["cases"]
    assert cases["blk-emulated"]["virt"].exits > cases["blk-virtio-b4"]["virt"].exits


def test_e5_small():
    result = run_e5(duration_us=1 * SEC)
    assert result.raw["credit"].share_error < 0.05
    assert "latency_table" in result.raw


def test_e6_small():
    result = run_e6(dirty_rates=[0, 8000], vm_pages=16384)
    assert result.raw[0]["pre"].converged
    assert result.raw[8000]["pre"].rounds > 1


def test_e7_small():
    result = run_e7(vm_counts=[2, 8])
    assert len(result.table.rows) == 2


def test_e8_small():
    result = run_e8(densities=[1, 4], fleet_size=12)
    assert result.raw["savings"].hosts_after < 12


def test_e8_scale_small():
    result = run_e8_scale(fleet_sizes=[60], shards=2, jobs=1, epochs=2)
    assert result.experiment == "E8s"
    report = result.raw["reports"][60]
    assert report.stats["vms_resident"] > 0
    manifest = result.manifest()
    assert manifest["experiment"] == "E8s"
    assert manifest["extra"]["cluster_sharded"]["shards"] == 2


def test_e9b_small():
    result = run_e9_bt(syscalls=60)
    assert result.raw["no cache"].total_cycles > result.raw["full BT"].total_cycles


def test_tables_render_without_error():
    result = run_e5(duration_us=SEC // 2)
    text = result.render()
    assert "scheduler" in text
