"""Shared experiment plumbing: run a workload in any execution mode."""

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core import (
    GuestConfig,
    Hypervisor,
    Machine,
    MMUVirtMode,
    VirtMode,
)
from repro.cpu.assembler import Program
from repro.guest import (
    DiagReport,
    KernelOptions,
    boot_native,
    boot_vm,
    build_kernel,
)
from repro.mem.costs import CostModel
from repro.obs.manifest import build_manifest, register_baseline
from repro.obs.registry import MetricsRegistry
from repro.util.errors import GuestError
from repro.util.table import Table
from repro.util.units import MIB

GUEST_MEMORY = 16 * MIB
HOST_MEMORY = 64 * MIB


def new_run_registry() -> MetricsRegistry:
    """A fresh per-run registry pre-seeded with the baseline counters.

    Every experiment that wants a metrics manifest creates one of these,
    threads it through its hypervisors/migrators/hosts, and stores it on
    its :class:`ExperimentResult` so the CLI can emit the manifest.
    """
    registry = MetricsRegistry()
    register_baseline(registry)
    return registry

#: (label, virt mode, mmu mode, pv kernel) -- the E1 mode matrix.
MODE_MATRIX = [
    ("native", None, None, False),
    ("trap-emulate", VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW, False),
    ("bin-transl", VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW, False),
    ("paravirt", VirtMode.PARAVIRT, MMUVirtMode.SHADOW, True),
    ("hw+shadow", VirtMode.HW_ASSIST, MMUVirtMode.SHADOW, False),
    ("hw+nested", VirtMode.HW_ASSIST, MMUVirtMode.NESTED, False),
    ("hw+hmode", VirtMode.HW_ASSIST, MMUVirtMode.HMODE, False),
]


@dataclass
class ModeMetrics:
    """Everything measured from one guest run."""

    label: str
    diag: DiagReport
    guest_cycles: int
    vmm_cycles: int
    total_cycles: int
    exits: int
    exit_breakdown: Dict[str, int]
    shadow_fills: int = 0
    shadow_pt_writes: int = 0
    ept_violations: int = 0
    hypercalls: int = 0
    bt_callouts: int = 0
    bt_translated_instructions: int = 0
    bt_block_hits: int = 0
    bt_block_misses: int = 0
    bt_chained: int = 0
    correct: bool = True


@dataclass
class ExperimentResult:
    """A rendered table plus its raw rows for shape assertions."""

    experiment: str
    table: Table
    raw: Dict[str, Any] = field(default_factory=dict)
    #: The run's shared registry, when the experiment threads one.
    metrics: Optional[MetricsRegistry] = None
    #: A pre-built manifest, for sharded experiments whose metrics live
    #: in per-shard registries and arrive already merged+finalized.
    manifest_data: Optional[Dict[str, Any]] = None

    def render(self) -> str:
        return self.table.render()

    def manifest(self, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The run's metrics as a JSON-ready manifest.

        Experiments that did not thread a registry still produce a
        valid (baseline-only) manifest, so ``--json`` works uniformly.
        Sharded experiments set :attr:`manifest_data` instead, and it
        is returned as-is -- its extras were fixed at merge time.
        """
        if self.manifest_data is not None:
            return self.manifest_data
        registry = self.metrics if self.metrics is not None else new_run_registry()
        return build_manifest(registry, experiment=self.experiment, extra=extra)


def run_guest_workload(
    label: str,
    workload: Program,
    virt_mode: Optional[VirtMode],
    mmu_mode: Optional[MMUVirtMode],
    pv: bool,
    costs: Optional[CostModel] = None,
    timer_period: int = 0,
    max_instructions: int = 30_000_000,
    bt_cache: bool = True,
    bt_chaining: bool = True,
    registry: Optional[MetricsRegistry] = None,
) -> ModeMetrics:
    """Boot NanoOS with ``workload`` in the given mode; return metrics."""
    kernel = build_kernel(
        KernelOptions(pv=pv, memory_bytes=GUEST_MEMORY, timer_period=timer_period)
    )
    if virt_mode is None:
        machine = Machine(memory_bytes=GUEST_MEMORY, costs=costs)
        diag = boot_native(machine, kernel, workload, max_instructions)
        if not diag.clean:
            raise GuestError(f"native run unclean: {diag}")
        return ModeMetrics(
            label=label,
            diag=diag,
            guest_cycles=machine.cpu.cycles,
            vmm_cycles=0,
            total_cycles=machine.cpu.cycles,
            exits=0,
            exit_breakdown={},
        )

    hv = Hypervisor(memory_bytes=HOST_MEMORY, costs=costs, registry=registry)
    vm = hv.create_vm(
        GuestConfig(
            name=label,
            memory_bytes=GUEST_MEMORY,
            virt_mode=virt_mode,
            mmu_mode=mmu_mode,
        )
    )
    if vm.bt is not None:
        vm.bt.cache_enabled = bt_cache
        vm.bt.chaining_enabled = bt_chaining
    diag = boot_vm(hv, vm, kernel, workload, max_instructions)
    if not diag.clean:
        raise GuestError(f"{label} run unclean: {diag}")
    cpu = vm.vcpus[0].cpu
    return ModeMetrics(
        label=label,
        diag=diag,
        guest_cycles=cpu.cycles,
        vmm_cycles=vm.stats.vmm_cycles,
        total_cycles=cpu.cycles + vm.stats.vmm_cycles,
        exits=vm.exit_stats.total_exits,
        exit_breakdown=dict(vm.exit_stats.counts),
        shadow_fills=vm.stats.shadow_fills,
        shadow_pt_writes=vm.stats.shadow_pt_writes,
        ept_violations=vm.stats.ept_violations,
        hypercalls=vm.stats.hypercalls,
        bt_callouts=vm.stats.bt_callouts,
        bt_translated_instructions=vm.stats.bt_translated_instructions,
        bt_block_hits=vm.stats.bt_block_hits,
        bt_block_misses=vm.stats.bt_block_misses,
        bt_chained=vm.stats.bt_chained,
        correct=diag.correct_virtualization,
    )
