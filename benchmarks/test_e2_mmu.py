"""E2 (Table 2): shadow vs nested paging crossover."""

from repro.bench import run_e2


def test_e2_mmu_virtualization(benchmark, show):
    result = benchmark.pedantic(
        run_e2,
        kwargs={"pt_cycles": 250, "walk_accesses": 10000},
        iterations=1, rounds=1,
    )
    show(result)
    raw = result.raw

    # PT-update-heavy: shadow pays trapped PT writes, nested pays zero
    # MMU exits -- nested wins by a large factor.
    pt = raw["pt_stress"]
    assert pt["shadow"].total_cycles > 3 * pt["nested"].total_cycles
    assert pt["shadow"].shadow_pt_writes > 100
    assert pt["nested"].ept_violations == 0
    assert pt["nested"].shadow_pt_writes == 0

    # TLB-miss-heavy: nested 2-D walks lose to shadow's direct walks.
    walk = raw["random_walk"]
    assert walk["nested"].total_cycles > 1.2 * walk["shadow"].total_cycles

    # The crossover is the finding: each MMU wins one workload.
    assert (pt["nested"].total_cycles < pt["shadow"].total_cycles)
    assert (walk["shadow"].total_cycles < walk["nested"].total_cycles)
