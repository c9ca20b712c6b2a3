"""Host throughput: closure-compiled blocks vs the reference interpreter.

Unlike E1-E10 this benchmark measures *host* wall-clock speed
(guest-MIPS), so absolute numbers depend on the machine; the shape
assertions stick to what is hardware-independent. Bit-identical
simulated state between the two engines is asserted inside the harness
itself (it raises on any cycles/instret divergence).
"""

import json

from repro.bench import run_host_throughput


def test_host_throughput_quick(benchmark, show):
    result = benchmark.pedantic(
        run_host_throughput, kwargs={"quick": True}, iterations=1, rounds=1
    )
    show(result)

    # Every native workload ran on both engines...
    layers = {(row.layer, row.workload, row.engine) for row in result.rows}
    for workload in ("cpu_bound", "memtouch", "syscall_storm"):
        assert ("native", workload, "interp") in layers
        assert ("native", workload, "compiled") in layers

    # ...and so did every VMM config, on the vCPU's jit_enabled switch
    # (nothing else: the translator has one executor).
    configs = ("trap-emulate", "bin-transl", "paravirt", "hw-shadow",
               "hw-nested", "hw-hmode")
    for config in configs:
        for workload in ("cpu_bound", "memtouch", "syscall_storm"):
            assert (f"vmm/{config}", workload, "interp") in layers
            assert (f"vmm/{config}", workload, "compiled") in layers
    assert {layer.split("/")[0] for layer, _w, _e in layers} == {"native", "vmm"}

    # The exit rows: a port-write loop and its exit-free twin under each
    # config. An exit is never free on the host...
    for config in configs + ("hw-nested/pumped",):
        assert (f"vmm/{config}", "port_storm", "compiled") in layers
        assert (f"vmm/{config}", "plain_loop", "compiled") in layers
        assert result.exit_costs[f"exit/{config}"] > 0.0
    # ...and in simulated cycles a translator callout is the cheaper way
    # to intercept a port write (bt_callout + emulate, 40 + 150, against
    # vmexit + emulate, 1200 + 150, plus the OUT's port charge): the
    # trade-off the paper's CPU-virtualization numbers are about.
    # Both rows make the same number of writes.
    sim = {(row.layer, row.workload): row.sim_cycles for row in result.rows}

    def cycles_of_the_writes(config):
        return sim[f"vmm/{config}", "port_storm"] - sim[f"vmm/{config}", "plain_loop"]

    assert cycles_of_the_writes("bin-transl") < cycles_of_the_writes("hw-nested")

    # Compute-bound code is where closure compilation pays off most;
    # this ratio is stable even at quick scale, under a VMM too.
    assert result.speedups["native/cpu_bound"] > 2.0
    assert result.speedups["vmm/hw-nested/cpu_bound"] > 2.0
    assert result.speedups["vmm/bin-transl/cpu_bound"] > 2.0

    # The compiler actually engaged and reported its counters: fetches
    # that missed the TLB went through the reference fallback step (a
    # system instruction does not: it ends a compiled block).
    assert result.jit_counters["blocks_compiled"] > 0
    assert result.jit_counters["fallback_steps"] > 0
    assert result.jit_counters["cold_steps"] > 0  # boot code ran once

    # The JSON payload is complete and serializable.
    payload = json.loads(json.dumps(result.to_json()))
    assert payload["schema"] == "pyvisor.bench.host/1"
    assert payload["speedups"]["native/cpu_bound"] > 2.0
    assert all(row["guest_mips"] > 0 for row in payload["rows"])
