"""E3 (Figure 3): nested-paging walk amplification versus working set.

Sweeps the ``random_walk`` working set across the TLB capacity (64
entries). Under the TLB-coverage point the MMU modes tie; past it,
every access misses and nested paging's 8-reference 2-D walk pulls away
from shadow/native's 2-reference walk -- the curve flattens to the
walk-cost ratio (Bhargava et al., ASPLOS'08).
"""

from typing import Dict

from repro.bench.common import ExperimentResult, run_guest_workload
from repro.core import MMUVirtMode, VirtMode
from repro.guest import workloads
from repro.util.chart import ascii_chart
from repro.util.table import Table


#: Working sets swept, in pages.
WORKING_SETS = (8, 32, 64, 128, 256, 512)


def run_e3(
    accesses: int = 10000,
    baseline_accesses: int = 2000,
) -> ExperimentResult:
    """Steady-state cycles/access by differencing two access counts.

    Boot, demand paging, and one-time shadow fills are identical in
    both runs and cancel, leaving the pure translation cost per access.
    """
    delta = accesses - baseline_accesses
    raw: Dict[int, Dict[str, float]] = {}
    table = Table(
        f"E3: steady-state cycles/access vs working set (64-entry TLB)",
        ["pages", "native", "shadow", "nested", "nested/native",
         "nested/shadow"],
    )
    for pages in WORKING_SETS:
        row: Dict[str, float] = {}
        for label, vmode, mmode in (
            ("native", None, None),
            ("shadow", VirtMode.HW_ASSIST, MMUVirtMode.SHADOW),
            ("nested", VirtMode.HW_ASSIST, MMUVirtMode.NESTED),
        ):
            big = run_guest_workload(
                f"e3-{label}-{pages}-big",
                workloads.random_walk(pages, accesses),
                vmode, mmode, False,
            )
            small = run_guest_workload(
                f"e3-{label}-{pages}-small",
                workloads.random_walk(pages, baseline_accesses),
                vmode, mmode, False,
            )
            row[label] = (big.total_cycles - small.total_cycles) / delta
        raw[pages] = row
        table.add_row(
            pages,
            row["native"],
            row["shadow"],
            row["nested"],
            row["nested"] / row["native"],
            row["nested"] / row["shadow"],
        )
    result = ExperimentResult("E3", table, raw=raw)
    result.raw["chart"] = ascii_chart(
        {
            mode: [(pages, raw[pages][mode]) for pages in WORKING_SETS]
            for mode in ("native", "shadow", "nested")
        },
        title="Figure 3: cycles/access vs working set (log x)",
        x_label="working-set pages",
        y_label="cycles/access",
        log_x=True,
    )
    return result
