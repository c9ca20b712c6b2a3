"""E11: the software-vs-hardware MMU crossover under H-mode.

Adams & Agesen's finding, reproduced on VISA: whether a software MMU
(shadow paging) or a hardware MMU (H-mode two-stage translation) wins
depends on the guest's page-table modification rate relative to its
raw memory intensity.

* Shadow paging pays per **PT modification** (every guest PTE store
  traps, every INVLPG exits) but its TLB fills are cheap one-stage
  walks of the shadow table.
* H-mode two-stage paging runs PT modifications **natively** (zero
  exits) but every combined-TLB miss pays the two-dimensional walk:
  each guest page-table reference is itself G-stage translated, so a
  miss costs ``guest_refs * mem_ref + gstage_refs * gstage_ref``
  instead of the shadow walker's two references.

The sweep holds memory intensity fixed (``accesses`` LCG-random reads
over a TLB-thrashing working set) and raises the map/unmap churn count,
moving the PT-modification rate from negligible to dominant. Shadow
must win the low-churn end, H-mode the high-churn end, and the raw
result records where the lines cross.
"""

from typing import Tuple

from repro.bench.common import (
    ExperimentResult,
    new_run_registry,
    run_guest_workload,
)
from repro.core import MMUVirtMode, VirtMode
from repro.guest import workloads
from repro.obs.manifest import build_manifest
from repro.util.errors import GuestError
from repro.util.table import Table

#: Map/unmap churn counts swept against the fixed access count. The
#: low end is memory-intensity-dominated (shadow territory), the high
#: end is churn-dominated (H-mode territory).
#: NanoOS's frame pool is a bump allocator (unmap does not recycle), so
#: the sweep's top end plus the working-set demand faults must stay
#: inside the pool; 448 churn cycles + 256 demand pages leaves margin.
SWEEP: Tuple[int, ...] = (8, 48, 192, 448)


def run_e11() -> ExperimentResult:
    """pt_mix over ``SWEEP`` at 12,000 accesses across 256 pages."""
    accesses, pages = 12000, 256
    registry = new_run_registry()
    table = Table(
        "E11: software vs hardware MMU crossover (hw-assist CPU)",
        [
            "pt mods", "pt-mod rate", "shadow cyc", "hmode cyc",
            "hmode/shadow", "shadow exits", "hmode exits", "winner",
        ],
    )
    points = []
    crossover_maps = None
    crossover_rate = None
    for maps in SWEEP:
        expected = workloads.expected_pt_mix(maps, accesses, pages)
        metrics = {}
        for mmu_label, mmode in (("shadow", MMUVirtMode.SHADOW),
                                 ("hmode", MMUVirtMode.HMODE)):
            m = run_guest_workload(
                f"mix{maps}-{mmu_label}",
                workloads.pt_mix(maps, accesses, pages),
                VirtMode.HW_ASSIST,
                mmode,
                False,
                registry=registry,
            )
            if m.diag.user_result != expected:
                raise GuestError(
                    f"pt_mix({maps}) under {mmu_label}: exit value "
                    f"{m.diag.user_result} != oracle {expected}"
                )
            metrics[mmu_label] = m
        rate = maps / (maps + accesses)
        shadow, hmode = metrics["shadow"], metrics["hmode"]
        winner = ("shadow" if shadow.total_cycles < hmode.total_cycles
                  else "hmode")
        if winner == "hmode" and crossover_maps is None:
            crossover_maps = maps
            crossover_rate = rate
        table.add_row(
            maps,
            rate,
            shadow.total_cycles,
            hmode.total_cycles,
            hmode.total_cycles / shadow.total_cycles,
            shadow.exits,
            hmode.exits,
            winner,
        )
        points.append({
            "maps": maps,
            "accesses": accesses,
            "pt_mod_rate": rate,
            "shadow_cycles": shadow.total_cycles,
            "hmode_cycles": hmode.total_cycles,
            "shadow_exits": shadow.exits,
            "hmode_exits": hmode.exits,
            "winner": winner,
        })
    raw = {
        "points": points,
        "crossover_maps": crossover_maps,
        "crossover_rate": crossover_rate,
    }
    # The crossover sweep itself rides in the manifest so the CI
    # artifact is self-describing and its byte-reproducibility check
    # covers the experiment's actual finding, not just the counters.
    manifest_data = build_manifest(registry, experiment="E11",
                                   extra={"e11": raw})
    return ExperimentResult("E11", table, raw=raw, metrics=registry,
                            manifest_data=manifest_data)
