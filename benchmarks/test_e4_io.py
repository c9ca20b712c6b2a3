"""E4 (Table 4): emulated vs virtio I/O."""

from repro.bench import run_e4


def test_e4_io_virtualization(benchmark, show):
    result = benchmark.pedantic(run_e4, iterations=1, rounds=1)
    show(result)
    cases = result.raw["cases"]
    requests = result.raw["requests"]

    def exits_per_req(name):
        metrics = cases[name]["virt"]
        io = sum(v for k, v in metrics.exit_breakdown.items()
                 if k.startswith("io_") or k.startswith("vmcall"))
        return io / requests

    # The emulated disk needs several register exits per request; virtio
    # with batching amortizes to about one exit per batch.
    assert exits_per_req("blk-emulated") > 4
    assert exits_per_req("blk-virtio-b1") < exits_per_req("blk-emulated")
    assert exits_per_req("blk-virtio-b4") < 2
    assert exits_per_req("blk-virtio-b4") < exits_per_req("blk-virtio-b1") / 2

    # Same structure for the NIC.
    assert exits_per_req("net-virtio-b8") < exits_per_req("net-emulated") / 3

    # Cycle overhead versus native follows the exit counts.
    def overhead(name):
        return (cases[name]["virt"].total_cycles
                / cases[name]["native"].total_cycles)

    assert overhead("blk-virtio-b4") < overhead("blk-emulated")
    assert overhead("net-virtio-b8") < overhead("net-emulated")

    # Data actually reached the devices in every configuration.
    for name, pair in cases.items():
        assert pair["virt"].diag.fault_cause == 0
