"""Experiment runners: one module per reconstructed table/figure.

Each ``run_*`` function executes the experiment deterministically and
returns an :class:`ExperimentResult` holding the rendered table plus
raw rows, so the pytest-benchmark harness can both print the table and
assert the expected *shape* (who wins, where crossovers fall).
"""

from repro.bench.common import ExperimentResult, ModeMetrics, run_guest_workload
from repro.bench.e1_cpu_virt import run_e1, run_e1_workloads
from repro.bench.e2_mmu import run_e2
from repro.bench.e3_tlb import run_e3
from repro.bench.e4_io import run_e4
from repro.bench.e5_sched import run_e5
from repro.bench.e6_migration import run_e6, run_e6_faults, run_e6_functional
from repro.bench.e7_overcommit import (
    run_e7,
    run_e7_controller,
    run_e7_functional,
)
from repro.bench.e8_consolidation import run_e8
from repro.bench.e8_scale import run_e8_scale
from repro.bench.e9_ablation import run_e9_exit_cost, run_e9_bt
from repro.bench.e10_resilience import run_e10, run_e10_cascade
from repro.bench.e11_crossover import run_e11

__all__ = [
    "ExperimentResult",
    "ModeMetrics",
    "run_guest_workload",
    "run_e1",
    "run_e1_workloads",
    "run_e2",
    "run_e3",
    "run_e4",
    "run_e5",
    "run_e6",
    "run_e6_faults",
    "run_e6_functional",
    "run_e7",
    "run_e7_controller",
    "run_e7_functional",
    "run_e8",
    "run_e8_scale",
    "run_e9_exit_cost",
    "run_e9_bt",
    "run_e10",
    "run_e10_cascade",
    "run_e11",
]
