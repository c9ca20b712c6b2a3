"""Host-throughput benchmark: guest-MIPS, interpreter vs. compiled.

Unlike E1-E10, which measure *simulated* cycles (the paper's data), this
bench measures the **simulator itself**: how many guest instructions per
host wall-clock second each execution engine retires. Two comparisons:

* ``native`` rows -- bare-metal NanoOS runs with the closure compiler
  (:mod:`repro.cpu.jit`) off vs. on;
* ``vmm/<config>`` rows -- the same guests under the hypervisor (the
  six VMM rows of ``MODE_MATRIX``; under binary translation the
  user-mode half runs on the core), the vCPU's ``jit_enabled`` off
  vs. on;
* ``exit/<config>`` rows -- what a VM exit costs the host: the time the
  bare compiled core takes for ``port_storm`` (one port write in every
  three instructions, no NanoOS) over the time the same guest takes
  under the config, where every write is an exit (under binary
  translation, a callout). 1.0 would be a free exit. These guests
  resume in place after every exit (DESIGN.md "The exit path");
  ``exit/hw-nested/pumped`` is the same run with a watchdog that cannot
  trip, so every exit goes back to the pump -- what a guest with an
  armed timer pays on each exit.

Every interp/compiled pair is also a differential test: the simulated
cycles, instret, and workload result must be bit-identical between
engines, so the bench fails loudly if the fast path ever diverges from
the oracle. Results are emitted as ``BENCH_HOST.json`` (schema
``pyvisor.bench.host/1``) for the CI regression gate, which compares
*ratios* (hardware-independent; higher is better) against a committed
baseline.
"""

import gc
import json
import platform
import sys
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.common import (
    GUEST_MEMORY,
    HOST_MEMORY,
    MODE_MATRIX,
    new_run_registry,
)
from repro.core import GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.core.machine import MachineOutcome
from repro.cpu.assembler import Program
from repro.faults.watchdog import GuestProgressWatchdog
from repro.guest import KernelOptions, boot_native, boot_vm, build_kernel
from repro.guest import workloads
from repro.obs.manifest import build_manifest
from repro.obs.registry import MetricsRegistry
from repro.util.errors import GuestError
from repro.util.table import Table

BENCH_SCHEMA = "pyvisor.bench.host/1"

#: Default output file name for ``python -m repro perf``.
DEFAULT_OUTPUT = "BENCH_HOST.json"

#: Fraction of the baseline speedup a run may drop to before the gate
#: fails (the ">20% regression" contract).
REGRESSION_TOLERANCE = 0.8

#: (name, quick builder, full builder) -- native workload matrix.
_NATIVE_WORKLOADS: List[Tuple[str, Callable[[], Program], Callable[[], Program]]] = [
    (
        "cpu_bound",
        lambda: workloads.cpu_bound(8000),
        lambda: workloads.cpu_bound(120000),
    ),
    (
        # Full mode runs long enough (~700k instret) that one-time
        # block-compile and boot cost stop dominating the compiled run;
        # the memtouch floor is gated on full mode only for this reason.
        "memtouch",
        lambda: workloads.memtouch(48, 8),
        lambda: workloads.memtouch(192, 512),
    ),
    (
        "syscall_storm",
        lambda: workloads.syscall_storm(250),
        lambda: workloads.syscall_storm(2500),
    ),
]

#: Workloads also run under each VMM config below.
_VMM_WORKLOADS = ("cpu_bound", "memtouch", "syscall_storm")

#: (label, virt mode, mmu mode, pv kernel): the six VMM rows ('+' is not
#: used in row keys).
_VMM_CONFIGS = tuple(
    (label.replace("+", "-"), virt_mode, mmu_mode, pv)
    for label, virt_mode, mmu_mode, pv in MODE_MATRIX[1:]
)

#: Port writes of the ``exit/<config>`` guest, and how many times each
#: side runs it: the runs are short, the best one counts.
_PORT_STORM_WRITES_QUICK = 5_000
_PORT_STORM_WRITES_FULL = 30_000
_PORT_STORM_RUNS = 3

#: The config that also gets an ``exit/<config>/pumped`` row.
_PUMPED_CONFIG = "hw-nested"


@dataclass
class EngineRow:
    """One (workload, engine) measurement."""

    workload: str
    layer: str  # "native" | "vmm/<config>"
    engine: str  # "interp" | "compiled"
    wall_s: float
    instructions: int
    sim_cycles: int
    guest_mips: float

    def to_json(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "layer": self.layer,
            "engine": self.engine,
            "wall_s": round(self.wall_s, 6),
            "instructions": self.instructions,
            "sim_cycles": self.sim_cycles,
            "guest_mips": round(self.guest_mips, 4),
        }


@dataclass
class HostBenchResult:
    """All measurements plus the JSON payload and rendered tables."""

    quick: bool
    rows: List[EngineRow]
    #: "<layer>/<workload>" -> compiled/interp guest-MIPS;
    #: "exit/<config>[/pumped]" -> bare/VMM host time of port_storm.
    speedups: Dict[str, float]
    jit_counters: Dict[str, int]
    table: Table
    metrics: Optional[MetricsRegistry] = None
    raw: Dict[str, Any] = field(default_factory=dict)
    #: Top-N cProfile hotspots when the run was profiled (None = off).
    profile: Optional[List[Dict[str, Any]]] = None

    def render(self) -> str:
        return self.table.render()

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": BENCH_SCHEMA,
            "quick": self.quick,
            "host": {
                "python": sys.version.split()[0],
                "implementation": platform.python_implementation(),
                "machine": platform.machine(),
            },
            "rows": [row.to_json() for row in self.rows],
            "speedups": {k: round(v, 4) for k, v in self.speedups.items()},
            "jit": dict(self.jit_counters),
        }
        if self.profile is not None:
            payload["profile"] = self.profile
            if self.metrics is not None:
                payload["manifest"] = build_manifest(
                    self.metrics,
                    experiment="host-throughput",
                    extra={"profile": self.profile},
                )
        return payload

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")

    def check_baseline(self, baseline: Dict[str, Any]) -> List[str]:
        """Compare speedup ratios against a committed baseline.

        Returns a list of failure strings (empty = pass). Only ratios
        are compared -- absolute guest-MIPS depend on the host machine.
        Floors under ``speedups`` are always gated; floors under
        ``speedups_full`` only gate full (non-quick) runs, for ratios
        that quick runs cannot measure honestly (short quick runs are
        dominated by one-time block-compile cost).
        """
        failures = []
        gated = dict(baseline.get("speedups", {}))
        if not self.quick:
            gated.update(baseline.get("speedups_full", {}))
        for key, floor in sorted(gated.items()):
            got = self.speedups.get(key)
            if got is None:
                failures.append(f"{key}: missing from this run")
                continue
            if got < floor * REGRESSION_TOLERANCE:
                failures.append(
                    f"{key}: ratio {got:.2f}x is more than 20% below "
                    f"the baseline {floor:.2f}x"
                )
        return failures

    def baseline_table(self, baseline: Dict[str, Any]) -> str:
        """Render a floors-vs-measured diff table for every gated row
        (the CI failure artifact: shows *which* floor regressed and by
        how much, not just that one did)."""
        gated = dict(baseline.get("speedups", {}))
        if not self.quick:
            gated.update(baseline.get("speedups_full", {}))
        header = (f"{'workload':>24} | {'floor':>7} | {'min ok':>7} | "
                  f"{'measured':>8} | status")
        lines = [header, "-" * len(header)]
        for key, floor in sorted(gated.items()):
            got = self.speedups.get(key)
            min_ok = floor * REGRESSION_TOLERANCE
            if got is None:
                measured, status = "missing", "FAIL"
            else:
                measured = f"{got:.2f}x"
                status = "ok" if got >= min_ok else "FAIL"
            lines.append(f"{key:>24} | {floor:>6.2f}x | {min_ok:>6.2f}x | "
                         f"{measured:>8} | {status}")
        return "\n".join(lines)


def _settle() -> None:
    """Before a timed region: free what earlier rows left. Their
    hypervisors are cyclic garbage, and the young-generation collection
    that frees one takes 8-26 ms -- several times a quick compiled
    ``cpu_bound`` run -- in whichever later row the allocation count
    happens to trigger it (``benchmarks/perf/harness.py::run_op``
    collects before its timed region for the same reason)."""
    gc.collect()


def _row(layer: str, compiled: bool, wall: float, cpu, sim_cycles: int) -> EngineRow:
    return EngineRow(
        "",  # workload: filled in by pair()
        layer,
        engine="compiled" if compiled else "interp",
        wall_s=wall,
        instructions=cpu.instret,
        sim_cycles=sim_cycles,
        guest_mips=cpu.instret / wall / 1e6 if wall > 0 else 0.0,
    )


def _measure_native(
    kernel: Program, workload: Program, jit: bool
) -> Tuple[EngineRow, Machine]:
    machine = Machine(memory_bytes=GUEST_MEMORY, jit=jit)
    _settle()
    start = perf_counter()
    diag = boot_native(machine, kernel, workload, max_instructions=200_000_000)
    wall = perf_counter() - start
    if not diag.clean:
        raise GuestError(f"host bench native run unclean: {diag}")
    cpu = machine.cpu
    return _row("native", jit, wall, cpu, cpu.cycles), machine


def _measure_vm(
    kernel: Program,
    layer: str,
    virt_mode: VirtMode,
    mmu_mode: MMUVirtMode,
    workload: Program,
    compiled: bool,
) -> Tuple[EngineRow, Any]:
    """One guest under the hypervisor, the vCPU's block compiler on or
    off."""
    hv = Hypervisor(memory_bytes=HOST_MEMORY)
    vm = hv.create_vm(
        GuestConfig(
            name="hostbench",
            memory_bytes=GUEST_MEMORY,
            virt_mode=virt_mode,
            mmu_mode=mmu_mode,
        )
    )
    vm.vcpus[0].cpu.jit_enabled = compiled
    _settle()
    start = perf_counter()
    diag = boot_vm(hv, vm, kernel, workload, max_guest_instructions=200_000_000)
    wall = perf_counter() - start
    if not diag.clean:
        raise GuestError(f"host bench {layer} run unclean: {diag}")
    cpu = vm.vcpus[0].cpu
    return _row(layer, compiled, wall, cpu, cpu.cycles + vm.stats.vmm_cycles), vm


_WALL = attrgetter("wall_s")


def _run_port_storm(
    layer: str, config: Optional[Tuple[VirtMode, MMUVirtMode]], image: Program,
    writes: int, pumped: bool = False,
) -> EngineRow:
    """``port_storm`` once: on the bare compiled core (``config`` None)
    or under a VMM config; ``pumped`` passes ``Hypervisor.run`` a
    watchdog that cannot trip, which sends every exit back to the pump
    and changes no simulated number."""
    if config is None:
        machine = Machine(memory_bytes=GUEST_MEMORY, jit=True)
        machine.load_program(image)
        machine.cpu.reset(image.entry)
        _settle()
        start = perf_counter()
        off = machine.run(max_instructions=200_000_000) is MachineOutcome.SHUTDOWN
        wall = perf_counter() - start
        cpu, console = machine.cpu, machine.console
        sim_cycles = cpu.cycles
    else:
        hv = Hypervisor(memory_bytes=HOST_MEMORY)
        vm = hv.create_vm(GuestConfig(
            name="hostbench", memory_bytes=GUEST_MEMORY,
            virt_mode=config[0], mmu_mode=config[1]))
        hv.load_program(vm, image)
        hv.reset_vcpu(vm, image.entry)
        watchdog = (GuestProgressWatchdog(idle_pump_limit=1 << 60)
                    if pumped else None)
        _settle()
        start = perf_counter()
        off = hv.run(vm, max_guest_instructions=200_000_000,
                     watchdog=watchdog) is RunOutcome.SHUTDOWN
        wall = perf_counter() - start
        cpu, console = vm.vcpus[0].cpu, vm.devices["console"]
        sim_cycles = cpu.cycles + vm.stats.vmm_cycles
    if not off or console.chars_written != writes:
        raise GuestError(f"host bench {layer} port_storm run unclean")
    row = _row(layer, True, wall, cpu, sim_cycles)
    row.workload = "port_storm"
    return row


def _measure_exit_pair(
    layer: str, config: Tuple[VirtMode, MMUVirtMode], writes: int,
    pumped: bool = False,
) -> Tuple[EngineRow, EngineRow]:
    """(bare row, VMM row) for one ``exit/<config>`` ratio: the runs
    alternate, so both sides see the same stretch of host speed, and
    the best run of each side counts."""
    image = workloads.port_storm(writes)
    bare, under = [], []
    for _ in range(_PORT_STORM_RUNS):
        bare.append(_run_port_storm("native", None, image, writes))
        under.append(_run_port_storm(layer, config, image, writes, pumped))
    return min(bare, key=_WALL), min(under, key=_WALL)


def _assert_identical(name: str, first: EngineRow, second: EngineRow) -> None:
    """The differential bar: host speed is the only permitted delta
    between the two runs of a pair (interpreter and compiled; resumed
    in place and pumped)."""
    if (first.instructions, first.sim_cycles) != (
        second.instructions,
        second.sim_cycles,
    ):
        raise GuestError(
            f"{name}: the two runs diverged "
            f"(instret {first.instructions} vs {second.instructions}, "
            f"cycles {first.sim_cycles} vs {second.sim_cycles})"
        )


def _top_hotspots(profiler, top: int) -> List[Dict[str, Any]]:
    """Extract the top-``top`` functions by cumulative time."""
    import pstats

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    hotspots: List[Dict[str, Any]] = []
    for func in stats.fcn_list[:top]:
        _cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
        filename, lineno, name = func
        # Trim host-specific prefixes so manifests diff cleanly across
        # machines.
        short = filename
        if "/repro/" in short:
            short = "repro/" + short.rsplit("/repro/", 1)[1]
        hotspots.append(
            {
                "function": name,
                "file": short,
                "line": lineno,
                "ncalls": ncalls,
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            }
        )
    return hotspots


def run_host_throughput(
    quick: bool = False,
    registry: Optional[MetricsRegistry] = None,
    profile_top: int = 0,
) -> HostBenchResult:
    """Measure guest-MIPS for every engine pair; returns all rows.

    ``profile_top`` > 0 wraps the measurement loops in cProfile and
    attaches that many hotspots (by cumulative time) to the result and
    to the obs run manifest, so a gated regression ships with
    attribution. Profiling skews absolute wall times (both engines
    equally); profiled runs are for diagnosis, not for ratio floors.
    """
    registry = registry if registry is not None else new_run_registry()
    kernels = {
        pv: build_kernel(
            KernelOptions(pv=pv, memory_bytes=GUEST_MEMORY, timer_period=0))
        for pv in (False, True)
    }
    profiler = None
    if profile_top:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    rows: List[EngineRow] = []
    speedups: Dict[str, float] = {}
    jit_counters: Dict[str, int] = {
        "blocks_compiled": 0,
        "blocks_invalidated": 0,
        "fallback_steps": 0,
        "cold_steps": 0,
    }
    results: Dict[str, int] = {}
    builders = {
        name: quick_builder if quick else full_builder
        for name, quick_builder, full_builder in _NATIVE_WORKLOADS
    }

    def pair(layer: str, name: str, measure) -> Any:
        """``measure(workload, compiled)`` on both engines; returns what
        ran compiled."""
        interp_row, _ = measure(builders[name](), False)
        compiled_row, ran = measure(builders[name](), True)
        interp_row.workload = compiled_row.workload = name
        _assert_identical(f"{layer}/{name}", interp_row, compiled_row)
        rows.extend((interp_row, compiled_row))
        speedups[f"{layer}/{name}"] = (
            compiled_row.guest_mips / interp_row.guest_mips
            if interp_row.guest_mips
            else 0.0
        )
        return ran

    for name in builders:
        machine = pair("native", name, partial(_measure_native, kernels[False]))
        for key in jit_counters:
            jit_counters[key] += machine.cpu.jit_stats()[key]
        results[name] = machine.cpu.instret

    for label, virt_mode, mmu_mode, pv in _VMM_CONFIGS:
        layer = f"vmm/{label}"
        for name in _VMM_WORKLOADS:
            pair(
                layer, name,
                partial(_measure_vm, kernels[pv], layer, virt_mode, mmu_mode),
            )

    writes = _PORT_STORM_WRITES_QUICK if quick else _PORT_STORM_WRITES_FULL
    bare_rows = []

    def exit_pair(label: str, config, pumped: bool = False) -> EngineRow:
        key = label + "/pumped" if pumped else label
        bare_row, row = _measure_exit_pair(f"vmm/{key}", config, writes, pumped)
        bare_rows.append(bare_row)
        rows.append(row)
        speedups[f"exit/{key}"] = bare_row.wall_s / row.wall_s
        return row

    for label, virt_mode, mmu_mode, _pv in _VMM_CONFIGS:
        config = (virt_mode, mmu_mode)
        row = exit_pair(label, config)
        if label == _PUMPED_CONFIG:
            _assert_identical(
                f"exit/{label}/pumped", row, exit_pair(label, config, pumped=True))
    rows.append(min(bare_rows, key=_WALL))

    hotspots: Optional[List[Dict[str, Any]]] = None
    if profiler is not None:
        profiler.disable()
        hotspots = _top_hotspots(profiler, profile_top)

    scope = registry.scope("host.jit")
    for key, value in jit_counters.items():
        scope.counter(key).inc(value)

    table = Table(
        "Host throughput: guest-MIPS by execution engine",
        [
            "workload", "layer", "engine", "wall s",
            "instructions", "guest-MIPS", "ratio",
        ],
    )
    for row in rows:
        if row.workload == "port_storm":
            ratio = speedups.get("exit/" + row.layer.partition("/")[2])
        else:
            ratio = speedups[f"{row.layer}/{row.workload}"]
        table.add_row(
            row.workload,
            row.layer,
            row.engine,
            f"{row.wall_s:.3f}",
            row.instructions,
            f"{row.guest_mips:.3f}",
            f"{ratio:.2f}x" if ratio and row.engine == "compiled" else "",
        )
    return HostBenchResult(
        quick=quick,
        rows=rows,
        speedups=speedups,
        jit_counters=jit_counters,
        table=table,
        metrics=registry,
        raw={"results": results},
        profile=hotspots,
    )
