"""E9 (Table 9): ablations of the design parameters DESIGN.md calls out.

Part A: sweep the world-switch cost (``vmexit_cycles``) across an order
of magnitude and show the E1 *ordering* (PV < HW < T&E in total cycles
for a syscall workload; BT insensitive because it takes no hardware
world switches) is stable -- the conclusions do not hinge on the cost
constant.

Part B: binary-translation ablation -- translation-block caching and
block chaining each removed, measuring re-translation work and dispatch
cost (Adams & Agesen's translator structure).
"""

from typing import Dict

from repro.bench.common import ExperimentResult, run_guest_workload
from repro.core import MMUVirtMode, VirtMode
from repro.guest import workloads
from repro.mem.costs import CostModel
from repro.util.table import Table


def run_e9_exit_cost() -> ExperimentResult:
    """syscall_storm(150) under five world-switch costs."""
    raw: Dict[int, Dict[str, int]] = {}
    table = Table(
        "E9a: total cycles vs world-switch cost (syscall workload)",
        ["exit cyc", "trap-emulate", "paravirt", "hw+nested", "bin-transl",
         "t&e/pv"],
    )
    for cost in (300, 600, 1200, 2400, 4800):
        costs = CostModel().with_(
            vmexit_cycles=cost, hypercall_cycles=int(cost * 0.75)
        )
        row: Dict[str, int] = {}
        for label, vmode, mmode, pv in (
            ("trap-emulate", VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW, False),
            ("paravirt", VirtMode.PARAVIRT, MMUVirtMode.SHADOW, True),
            ("hw+nested", VirtMode.HW_ASSIST, MMUVirtMode.NESTED, False),
            ("bin-transl", VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW, False),
        ):
            m = run_guest_workload(
                f"e9-{label}-{cost}", workloads.syscall_storm(150),
                vmode, mmode, pv, costs=costs,
            )
            row[label] = m.total_cycles
        raw[cost] = row
        table.add_row(
            cost,
            row["trap-emulate"],
            row["paravirt"],
            row["hw+nested"],
            row["bin-transl"],
            row["trap-emulate"] / row["paravirt"],
        )
    return ExperimentResult("E9a", table, raw=raw)


def run_e9_bt() -> ExperimentResult:
    """syscall_storm(300) with the translation cache / chaining off."""
    raw = {}
    table = Table(
        "E9b: binary-translation ablation (syscall workload)",
        ["config", "total cyc", "translated instr", "block hits",
         "block misses", "chained dispatches"],
    )
    for label, cache, chain in (
        ("full BT", True, True),
        ("no chaining", True, False),
        ("no cache", False, True),
    ):
        m = run_guest_workload(
            f"e9b-{label}", workloads.syscall_storm(300),
            VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW, False,
            bt_cache=cache, bt_chaining=chain,
        )
        raw[label] = m
        table.add_row(
            label,
            m.total_cycles,
            m.bt_translated_instructions,
            m.bt_block_hits,
            m.bt_block_misses,
            m.bt_chained,
        )
    return ExperimentResult("E9b", table, raw=raw)
