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

    # The exit rows: the same port-write loop on the bare core and under
    # each config. An exit is never free, and a translator callout (no
    # world switch on the host either) is the cheapest of the six.
    assert ("native", "port_storm", "compiled") in layers
    for config in configs:
        assert (f"vmm/{config}", "port_storm", "compiled") in layers
        assert 0.0 < result.speedups[f"exit/{config}"] < 1.5
    assert result.speedups["exit/bin-transl"] > result.speedups["exit/hw-nested"]
    # The same guest with every exit sent back to the pump (the harness
    # raises if its simulated numbers differ from the resumed run's).
    assert ("vmm/hw-nested/pumped", "port_storm", "compiled") in layers
    assert 0.0 < result.speedups["exit/hw-nested/pumped"] < 1.5

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
