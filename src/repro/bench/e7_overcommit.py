"""E7 (Table 7): memory overcommit -- how far each stack stretches.

Model part: a 4 GiB host running 2..12 identical 1 GiB VMs (WSS 40 %,
50 % shareable content). Swap-only collapses as soon as configured
memory exceeds the host; ballooning holds full speed until working sets
no longer fit; balloon + sharing pushes the cliff further out
(Waldspurger OSDI'02).

Functional part: two real VMs, a scan pass, measured frames freed and
COW breaks with both guests still computing correct results.
"""

from typing import Dict, Optional

from repro.bench.common import ExperimentResult, GUEST_MEMORY, new_run_registry
from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.overcommit import (
    HostSwap,
    MemoryPressureController,
    PageSharer,
    PolicyKind,
    VMDemand,
    evaluate_policy,
)
from repro.util.errors import GuestError
from repro.util.table import Table
from repro.util.units import GIB, MIB


def run_e7() -> ExperimentResult:
    """The policy model: 2-12 VMs of 1 GiB (40 % WSS, 50 % shareable
    content) on a 4 GiB host."""
    host_pages, vm_pages = (4 * GIB) >> 12, (1 * GIB) >> 12
    raw: Dict[int, Dict[PolicyKind, object]] = {}
    table = Table(
        "E7: 1 GiB VMs on a 4 GiB host; min per-VM throughput by policy",
        ["VMs", "overcommit", "swap-only", "balloon", "balloon+share",
         "shared saved (MiB)"],
    )
    for n in (2, 4, 6, 8, 10, 12):
        vms = [
            VMDemand(
                name=f"vm{i}",
                configured_pages=vm_pages,
                wss_pages=int(vm_pages * 0.4),
                shareable_fraction=0.5,
            )
            for i in range(n)
        ]
        outcomes = {
            kind: evaluate_policy(host_pages, vms, kind)
            for kind in PolicyKind
        }
        raw[n] = outcomes
        table.add_row(
            n,
            outcomes[PolicyKind.BALLOON].overcommit_ratio,
            outcomes[PolicyKind.SWAP_ONLY].min_throughput,
            outcomes[PolicyKind.BALLOON].min_throughput,
            outcomes[PolicyKind.BALLOON_SHARE].min_throughput,
            (outcomes[PolicyKind.BALLOON_SHARE].shared_saved_pages * 4096)
            // MIB,
        )
    return ExperimentResult("E7", table, raw=raw)


def run_e7_functional() -> ExperimentResult:
    """A sharing scan over two hw-nested guests inside memtouch(16, 1500)."""
    pages, passes = 16, 1500
    hv = Hypervisor(memory_bytes=96 * MIB)
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEMORY))
    vms = []
    for i in range(2):
        vm = hv.create_vm(
            GuestConfig(name=f"share{i}", memory_bytes=GUEST_MEMORY,
                        virt_mode=VirtMode.HW_ASSIST,
                        mmu_mode=MMUVirtMode.NESTED)
        )
        hv.load_program(vm, kernel)
        hv.load_program(vm, workloads.memtouch(pages, passes))
        hv.reset_vcpu(vm, kernel.entry)
        hv.run(vm, max_guest_instructions=80_000)
        vms.append(vm)

    free_before = hv.allocator.free_frames
    sharer = PageSharer(hv)
    scan = sharer.scan()
    freed_frames = hv.allocator.free_frames - free_before

    expected = expected_memtouch(pages, passes)
    for vm in vms:
        outcome = hv.run(vm, max_guest_instructions=60_000_000)
        diag = read_diag(vm.guest_mem)
        if outcome is not RunOutcome.SHUTDOWN or diag.user_result != expected:
            raise GuestError(
                f"sharing corrupted {vm.name}: {outcome}, "
                f"result={diag.user_result} != {expected}"
            )

    table = Table(
        "E7-functional: KSM scan over two live 16 MiB VMs",
        ["frames scanned", "pages merged", "frames freed", "MiB saved",
         "COW breaks", "guests correct"],
    )
    table.add_row(
        scan.frames_scanned,
        scan.pages_merged,
        freed_frames,
        (freed_frames * 4096) // MIB,
        sharer.cow_breaks,
        True,
    )
    return ExperimentResult(
        "E7-functional", table,
        raw={"scan": scan, "cow_breaks": sharer.cow_breaks,
             "frames_freed": freed_frames},
    )


#: Seed for the E7 controller fault replay; independent of E6/E10.
E7C_FAULT_SEED = 2207

#: Host sized so three 16 MiB guests already overcommit configured
#: memory (48 MiB configured on 36 MiB physical = 1.33x).
_E7C_HOST = 36 * MIB
_E7C_VM_PAGES = GUEST_MEMORY >> 12
#: Frames one admission actually consumes (guest pages + EPT tables,
#: with slack); the reclaim target before each create.
_E7C_ADMIT_FRAMES = _E7C_VM_PAGES + 128


def _e7c_fault_plan() -> FaultPlan:
    """Pin one scan stall and one balloon refusal, deterministically."""
    return FaultPlan(seed=E7C_FAULT_SEED, specs=[
        FaultSpec("overcommit.scan_stall", rate=1.0, after=0, count=1),
        FaultSpec("overcommit.balloon_refuse", rate=1.0, after=0, count=1),
    ])


def _e7c_case(
    n_vms: int,
    passes: int,
    closed_loop: bool,
    registry=None,
    injector: Optional[FaultInjector] = None,
) -> Dict[str, object]:
    """Admit and run ``n_vms`` guests under one reclaim policy.

    ``closed_loop=False`` is the static baseline: host swap is the only
    reclaim mechanism, invoked directly when an admission needs frames.
    ``closed_loop=True`` runs the :class:`MemoryPressureController`
    (balloon + sharing first, swap as watermark last resort), ticked
    once per round-robin execution round.
    """
    hv = Hypervisor(memory_bytes=_E7C_HOST, registry=registry)
    hv.injector = injector
    controller = MemoryPressureController(hv) if closed_loop else None
    swap = controller.swap if closed_loop else HostSwap(hv)
    # counter_attr counters live in the (possibly shared) registry:
    # report this case's delta, not the run's cumulative total.
    swap_ins0, swap_outs0 = swap.swap_ins, swap.swap_outs
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEMORY))
    vms = []
    for i in range(n_vms):
        if closed_loop:
            controller.reclaim(_E7C_ADMIT_FRAMES)
        else:
            shortfall = _E7C_ADMIT_FRAMES - hv.allocator.free_frames
            if shortfall > 0:
                swap.evict_some(shortfall)
        vm = hv.create_vm(
            GuestConfig(name=f"oc{i}", memory_bytes=GUEST_MEMORY,
                        virt_mode=VirtMode.HW_ASSIST,
                        mmu_mode=MMUVirtMode.NESTED)
        )
        hv.load_program(vm, kernel)
        hv.load_program(vm, workloads.memtouch(64, passes))
        hv.reset_vcpu(vm, kernel.entry)
        if closed_loop:
            controller.manage(vm)
        else:
            swap.install(vm)
        vms.append(vm)

    outcomes: Dict[str, RunOutcome] = {}
    pending = list(vms)
    while pending:
        still = []
        for vm in pending:
            outcome = hv.run(vm, max_guest_instructions=100_000)
            if outcome is RunOutcome.INSTR_LIMIT:
                still.append(vm)
            else:
                outcomes[vm.name] = outcome
        if closed_loop:
            controller.tick()
        pending = still

    expected = expected_memtouch(64, passes)
    for vm in vms:
        diag = read_diag(vm.guest_mem)
        if outcomes[vm.name] is not RunOutcome.SHUTDOWN \
                or diag.user_result != expected:
            raise GuestError(
                f"overcommit corrupted {vm.name} "
                f"({'controller' if closed_loop else 'swap-only'}): "
                f"{outcomes[vm.name]}, result={diag.user_result} "
                f"!= {expected}"
            )

    per_vm = {vm.name: vm.vcpus[0].cpu.cycles + vm.stats.vmm_cycles
              for vm in vms}
    case = {
        "policy": "controller" if closed_loop else "swap-only",
        "max_cycles": max(per_vm.values()),
        "per_vm_cycles": per_vm,
        "swap_ins": swap.swap_ins - swap_ins0,
        "swap_outs": swap.swap_outs - swap_outs0,
        "correct": True,
    }
    if closed_loop:
        case["ticks"] = controller.ticks
        case["ballooned"] = sum(
            sum(r.inflated.values()) for r in controller.tick_log)
        case["pages_merged"] = sum(
            r.pages_merged for r in controller.tick_log)
        case["tick_log"] = controller.serialized_log()
    return case


def run_e7_controller(quick: bool = False) -> ExperimentResult:
    """E7-controller: closed-loop pressure control vs static swap-only.

    Sweeps N identical 16 MiB guests on a 36 MiB host. The swap-only
    arm reclaims admission frames by LRU eviction and pays the 200k-
    cycle swap-in on every refault; the controller arm balloons cold
    zero pages, deduplicates by scanning, and only swaps below the
    free-frame watermark, so its refaults take the cheap demand-zero
    path. The closed loop must strictly dominate on worst-case
    guest-visible cycles at every overcommit ratio.

    Determinism: the first controller case is run twice and must
    produce identical tick logs; a pinned fault plan (one scan stall,
    one balloon refusal) is also replayed to a byte-identical injection
    trace (``fault_replay_identical``).
    """
    vm_counts = (3, 4) if quick else (3, 4, 5, 6)
    passes = 40
    registry = new_run_registry()
    host_pages = _E7C_HOST >> 12
    raw: Dict[object, object] = {}
    table = Table(
        "E7-controller: 16 MiB guests on a 36 MiB host; worst-case "
        "guest-visible cycles by reclaim policy",
        ["VMs", "overcommit", "swap-only", "swap-ins", "controller",
         "ballooned", "merged", "ctl swap-ins", "dominates"],
    )
    dominates_all = True
    for n in vm_counts:
        static = _e7c_case(n, passes, closed_loop=False, registry=registry)
        closed = _e7c_case(n, passes, closed_loop=True, registry=registry)
        dominates = closed["max_cycles"] < static["max_cycles"]
        dominates_all &= dominates
        raw[n] = {"swap_only": static, "controller": closed,
                  "dominates": dominates}
        table.add_row(
            n,
            round(n * _E7C_VM_PAGES / host_pages, 2),
            static["max_cycles"],
            static["swap_ins"],
            closed["max_cycles"],
            closed["ballooned"],
            closed["pages_merged"],
            closed["swap_ins"],
            dominates,
        )

    first = vm_counts[0]
    replay = _e7c_case(first, passes, closed_loop=True)
    deterministic = (
        replay["tick_log"] == raw[first]["controller"]["tick_log"]
        and replay["max_cycles"] == raw[first]["controller"]["max_cycles"]
    )

    inj = FaultInjector(_e7c_fault_plan(),
                        metrics=registry.scope("faults"))
    faulted = _e7c_case(first, passes, closed_loop=True, injector=inj)
    replay_inj = FaultInjector(_e7c_fault_plan())
    faulted_replay = _e7c_case(first, passes, closed_loop=True,
                               injector=replay_inj)
    fault_replay_identical = (
        faulted["tick_log"] == faulted_replay["tick_log"]
        and inj.trace_bytes() == replay_inj.trace_bytes()
    )
    stalls = sum(r["scan_stalled"] for r in faulted["tick_log"])
    refusals = sum(r["balloon_refusals"] for r in faulted["tick_log"])

    raw["dominates_all"] = dominates_all
    raw["deterministic"] = deterministic
    raw["fault_replay_identical"] = fault_replay_identical
    raw["faulted"] = {"case": faulted, "scan_stalls": stalls,
                      "balloon_refusals": refusals,
                      "trace_bytes": inj.trace_bytes()}
    table.add_row("—", "faulted", f"stalls={stalls}",
                  f"refusals={refusals}", faulted["max_cycles"],
                  faulted["ballooned"], faulted["pages_merged"],
                  f"det={deterministic}",
                  f"replay={fault_replay_identical}")
    return ExperimentResult("E7-controller", table, raw=raw,
                            metrics=registry)
