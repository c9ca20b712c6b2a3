"""E2 (Table 2): shadow versus nested paging under hardware assistance.

Two workloads expose the trade-off (Adams & Agesen; Bhargava et al.):

* ``pt_stress`` -- maximal page-table update rate. Shadow paging traps
  every guest PT write (plus INVLPG exits); nested paging runs it with
  **zero** MMU exits.
* ``random_walk`` -- a TLB-thrashing working set with *no* PT updates.
  Shadow walks cost 2 memory references per miss; nested 2-D walks
  cost 8, so nested loses here.

The crossover between the two rows is the experiment's finding.
"""

from repro.bench.common import ExperimentResult, run_guest_workload
from repro.core import MMUVirtMode, VirtMode
from repro.guest import workloads
from repro.util.table import Table


def run_e2(pt_cycles: int = 300,
           walk_accesses: int = 12000) -> ExperimentResult:
    cases = {
        "pt_stress": lambda: workloads.pt_stress(pt_cycles),
        "random_walk": lambda: workloads.random_walk(256, walk_accesses),
    }
    raw = {}
    table = Table(
        "E2: MMU virtualization (hardware-assisted CPU)",
        [
            "workload", "mmu", "total cyc", "mmu exits", "pt-write exits",
            "fills/violations", "vs other",
        ],
    )
    for wname, builder in cases.items():
        metrics = {}
        for mmu_label, mmode in (("shadow", MMUVirtMode.SHADOW),
                                 ("nested", MMUVirtMode.NESTED)):
            metrics[mmu_label] = run_guest_workload(
                f"{wname}-{mmu_label}", builder(), VirtMode.HW_ASSIST, mmode, False
            )
        raw[wname] = metrics
        for mmu_label, m in metrics.items():
            other = metrics["nested" if mmu_label == "shadow" else "shadow"]
            mmu_exits = sum(
                v for k, v in m.exit_breakdown.items() if "page_fault" in k
                or "pt" in k or "invlpg" in k
            )
            table.add_row(
                wname,
                mmu_label,
                m.total_cycles,
                mmu_exits,
                m.shadow_pt_writes,
                m.shadow_fills + m.ept_violations,
                m.total_cycles / other.total_cycles,
            )
    return ExperimentResult("E2", table, raw=raw)
