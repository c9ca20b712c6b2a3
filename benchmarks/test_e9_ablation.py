"""E9 (Table 9): world-switch cost sweep and BT structure ablation."""

from repro.bench import run_e9_bt, run_e9_exit_cost


def test_e9a_exit_cost_sweep(benchmark, show):
    result = benchmark.pedantic(run_e9_exit_cost, iterations=1, rounds=1)
    show(result)
    raw = result.raw
    costs = sorted(raw)

    # The E1 conclusions hold at every world-switch cost across 16x:
    for cost in costs:
        row = raw[cost]
        assert row["hw+nested"] < row["paravirt"] < row["trap-emulate"]

    # Binary translation takes no hardware world switches, so it is
    # invariant to the sweep -- and overtakes PV once exits get pricey.
    bt = [raw[c]["bin-transl"] for c in costs]
    assert len(set(bt)) == 1
    assert raw[costs[0]]["bin-transl"] < raw[costs[0]]["paravirt"]

    # Exit-bound modes scale with the cost; compute-bound overheads do not.
    assert raw[costs[-1]]["trap-emulate"] > 5 * raw[costs[0]]["trap-emulate"]
    assert raw[costs[-1]]["hw+nested"] < 3 * raw[costs[0]]["hw+nested"]


def test_e9b_bt_ablation(benchmark, show):
    result = benchmark.pedantic(run_e9_bt, iterations=1, rounds=1)
    show(result)
    raw = result.raw

    full = raw["full BT"]
    no_chain = raw["no chaining"]
    no_cache = raw["no cache"]

    # The cache is the big win: without it every block re-translates.
    assert no_cache.bt_translated_instructions > 10 * full.bt_translated_instructions
    assert no_cache.total_cycles > 2 * full.total_cycles

    # Chaining shaves dispatch cost without changing translation work.
    assert no_chain.bt_translated_instructions == full.bt_translated_instructions
    assert no_chain.total_cycles > full.total_cycles
    assert full.bt_chained > 0 and no_chain.bt_chained == 0
    # The translator is sliced in instructions, not in its own cycles:
    # dearer dispatches leave the same block sequence, so the same
    # (predecessor, successor) pairs chain.
    assert no_cache.bt_chained == full.bt_chained

    # All three configurations stay correct.
    for metrics in raw.values():
        assert metrics.correct
