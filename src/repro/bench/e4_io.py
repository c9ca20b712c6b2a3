"""E4 (Table 4): I/O virtualization -- emulated versus virtio.

Block writes and NIC sends through both device flavours, under
hardware-assisted execution. The emulated disk costs 5 port accesses
(= 5 exits) per request and the emulated NIC 3; virtio posts a batch
and kicks once, so exits-per-request falls as 1/batch (Barham '03,
Russell's virtio paper). Native rows show the same devices with zero
exits -- the overhead is pure virtualization.
"""

from typing import Dict

from repro.bench.common import ExperimentResult, ModeMetrics, run_guest_workload
from repro.core import MMUVirtMode, VirtMode
from repro.guest import workloads
from repro.util.table import Table


def run_e4() -> ExperimentResult:
    """64 requests / frames through each emulated and virtio device."""
    requests = 64
    cases = {
        "blk-emulated": (lambda: workloads.blk_write(requests), requests),
        "blk-virtio-b1": (lambda: workloads.vblk_write(requests, 1), requests),
        "blk-virtio-b4": (
            lambda: workloads.vblk_write(requests // 4, 4), requests),
        "net-emulated": (lambda: workloads.net_send(), requests),
        "net-virtio-b8": (
            lambda: workloads.vnet_send(requests // 8), requests),
    }
    raw: Dict[str, Dict[str, ModeMetrics]] = {}
    table = Table(
        f"E4: I/O virtualization, {requests} requests/frames",
        ["device", "io exits", "exits/req", "virt cyc/req", "native cyc/req",
         "overhead"],
    )
    for name, (builder, count) in cases.items():
        native = run_guest_workload(f"{name}-native", builder(), None, None, False)
        virt = run_guest_workload(
            f"{name}-hv", builder(), VirtMode.HW_ASSIST, MMUVirtMode.NESTED, False
        )
        raw[name] = {"native": native, "virt": virt}
        io_exits = sum(
            v for k, v in virt.exit_breakdown.items()
            if k.startswith("io_") or k.startswith("vmcall")
        )
        table.add_row(
            name,
            io_exits,
            io_exits / count,
            virt.total_cycles / count,
            native.total_cycles / count,
            virt.total_cycles / native.total_cycles,
        )
    return ExperimentResult("E4", table, raw={"cases": raw, "requests": requests})
