"""E3 (Figure 3): nested walk amplification vs working-set size."""

from repro.bench import run_e3


def test_e3_tlb_curve(benchmark, show):
    result = benchmark.pedantic(
        run_e3,
        kwargs={"accesses": 9000, "baseline_accesses": 3000},
        iterations=1, rounds=1,
    )
    show(result)
    raw = result.raw

    # Under TLB coverage (64 entries) the modes are indistinguishable.
    for pages in (8, 32):
        assert raw[pages]["nested"] <= raw[pages]["native"] * 1.1
        assert raw[pages]["shadow"] <= raw[pages]["native"] * 1.1

    # Past coverage, nested paging's 2-D walk amplifies per-access cost;
    # the ratio grows with working set toward the walk-length ratio (4x).
    ratios = [raw[p]["nested"] / raw[p]["native"] for p in (128, 256, 512)]
    assert all(r > 2.0 for r in ratios)
    assert ratios == sorted(ratios)
    assert ratios[-1] < 4.5  # bounded by the walk amplification

    # Shadow paging's steady state tracks native (its whole point).
    for pages in (128, 256, 512):
        assert raw[pages]["shadow"] <= raw[pages]["native"] * 1.15

    # The curve itself rises past the TLB-coverage knee.
    assert raw[512]["native"] > 3 * raw[32]["native"]
