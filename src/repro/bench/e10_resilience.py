"""E10: fault injection, detection, and recovery.

Three scenarios, each driven by a seeded, deterministic
:class:`~repro.faults.injector.FaultPlan`:

A. **Migration under link faults.** A real pre-copy migration takes an
   injected stream drop plus two in-flight page corruptions. The
   migrator backs off and resumes from the pending suffix + dirty
   bitmap, so the pages re-sent (corrupt resends only) stay far below
   what a from-scratch restart would re-send; the migrated guest still
   computes the correct result. The same seeded plan replayed twice
   yields a byte-identical injection trace.
B. **Hung-VM detection and micro-reboot.** A ``vcpu.stall`` fault wedges
   the guest (cycles burn, nothing retires); the progress watchdog
   flags the flat-lined instruction counter and the VM is ReHype-style
   micro-rebooted -- hypervisor-private state rebuilt, guest memory and
   registers preserved -- after which the workload runs to the correct
   completion.
C. **Host crash and failover.** One host of a packed fleet dies; every
   stranded VM is re-placed onto the survivors.
"""

from typing import Dict

from repro.bench.common import (
    ExperimentResult,
    GUEST_MEMORY,
    HOST_MEMORY,
    new_run_registry,
)
from repro.cluster import (
    AdmissionError,
    ConstraintSet,
    Host,
    HostSpec,
    Placement,
    ResilienceController,
    VMSpec,
    failover,
    first_fit,
)
from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import BEAT_CYCLES, RunOutcome
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    GuestProgressWatchdog,
    MicroRebooter,
    RetryPolicy,
)
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.migration import LiveMigrator
from repro.obs.registry import MetricsRegistry
from repro.util.errors import GuestError
from repro.util.table import Table
from repro.util.units import GIB

#: One seed drives every scenario; change it and every schedule moves
#: together, reproducibly.
E10_SEED = 1109


def _boot_memtouch(hv: Hypervisor, name: str, pages: int, passes: int):
    vm = hv.create_vm(
        GuestConfig(name=name, memory_bytes=GUEST_MEMORY,
                    virt_mode=VirtMode.HW_ASSIST, mmu_mode=MMUVirtMode.NESTED)
    )
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEMORY))
    hv.load_program(vm, kernel)
    hv.load_program(vm, workloads.memtouch(pages, passes))
    hv.reset_vcpu(vm, kernel.entry)
    return vm


def _migration_plan() -> FaultPlan:
    return FaultPlan(seed=E10_SEED, specs=[
        # Pin one stream drop at the 257th page send and two wire
        # corruptions early in round 0: rate=1.0 with after/count makes
        # the schedule exact, not probabilistic.
        FaultSpec("migration.xfer_drop", rate=1.0, after=256, count=1),
        FaultSpec("migration.page_corrupt", rate=1.0, after=64, count=2),
    ])


def _migrate_once(pages: int, passes: int, injector, registry):
    src = Hypervisor(memory_bytes=HOST_MEMORY, registry=registry)
    dst = Hypervisor(memory_bytes=HOST_MEMORY, registry=registry)
    vm = _boot_memtouch(src, "e10-mig", pages, passes)
    src.run(vm, max_guest_instructions=100_000)  # get mid-workload
    migrator = LiveMigrator(src, dst, bytes_per_cycle=4.0, injector=injector,
                            retry_policy=RetryPolicy(max_retries=6))
    result = migrator.migrate(vm, quantum_instructions=40_000, max_rounds=6,
                              threshold_pages=4)
    outcome = dst.run(result.dest_vm, max_guest_instructions=80_000_000)
    diag = read_diag(result.dest_vm.guest_mem)
    return result, outcome, diag


def _migration_scenario(pages: int, passes: int,
                        registry) -> Dict[str, object]:
    expected = expected_memtouch(pages, passes)
    faults_scope = registry.scope("faults")
    baseline, b_out, b_diag = _migrate_once(pages, passes, None, registry)

    inj = FaultInjector(_migration_plan(), metrics=faults_scope)
    faulted, f_out, f_diag = _migrate_once(pages, passes, inj, registry)
    replay = FaultInjector(_migration_plan(), metrics=faults_scope)
    _migrate_once(pages, passes, replay, registry)

    correct = (
        b_out is RunOutcome.SHUTDOWN and b_diag.user_result == expected
        and f_out is RunOutcome.SHUTDOWN and f_diag.user_result == expected
    )
    if not correct:
        raise GuestError(
            f"E10 migration corrupted the guest: baseline=({b_out}, "
            f"{b_diag.user_result}), faulted=({f_out}, "
            f"{f_diag.user_result}), expected={expected}"
        )
    # A from-scratch restart after the drop would re-send everything
    # already delivered (the 256 pages before the drop) on top of a
    # full second migration.
    restart_pages = 256 + baseline.pages_copied
    return {
        "baseline": baseline,
        "faulted": faulted,
        "correct": correct,
        "resent_pages": faulted.pages_copied - baseline.pages_copied,
        "restart_pages_hypothetical": restart_pages,
        "resume_beats_restart": faulted.pages_copied < restart_pages,
        "deterministic": inj.trace_bytes() == replay.trace_bytes(),
        "trace_bytes": inj.trace_bytes(),
    }


def _watchdog_scenario(pages: int, passes: int,
                       registry) -> Dict[str, object]:
    hv = Hypervisor(memory_bytes=HOST_MEMORY, registry=registry)
    vm = _boot_memtouch(hv, "e10-hang", pages, passes)
    hv.injector = FaultInjector(FaultPlan(seed=E10_SEED, specs=[
        # The first run beats twice (a beat every BEAT_CYCLES of VM
        # time); the stall lands on the watched run's first beat.
        FaultSpec("vcpu.stall", rate=1.0, after=2, count=1),
    ]), metrics=hv.registry.scope("faults"))
    rebooter = MicroRebooter(hv)

    hv.run(vm, max_cycles=3 * BEAT_CYCLES)  # healthy progress first
    instret_before_hang = vm.vcpus[0].cpu.instret

    watchdog = GuestProgressWatchdog(hv.registry.scope("faults.watchdog"))
    outcome = hv.run(vm, max_guest_instructions=80_000_000, watchdog=watchdog)
    hung_detected = outcome is RunOutcome.HUNG

    recovered = rebooter.reboot(vm)
    preserved = recovered.vcpus[0].cpu.instret >= instret_before_hang
    final = hv.run(recovered, max_guest_instructions=80_000_000,
                   watchdog=watchdog)
    diag = read_diag(recovered.guest_mem)
    expected = expected_memtouch(pages, passes)
    correct = final is RunOutcome.SHUTDOWN and diag.user_result == expected
    if not (hung_detected and correct):
        raise GuestError(
            f"E10 watchdog scenario failed: hang outcome={outcome}, "
            f"final={final}, result={diag.user_result}, expected={expected}"
        )
    return {
        "hung_detected": hung_detected,
        "hangs": watchdog.hangs_detected,
        "reboots": rebooter.reboots,
        "progress_preserved": preserved,
        "correct": correct,
    }


def _failover_scenario(registry) -> Dict[str, object]:
    """Six 8-core hosts, twelve 2 GiB VMs first-fit, the fullest dies."""
    spec = HostSpec(name="host", cores=8, cpu_capacity=8.0,
                    memory_bytes=16 * GIB)
    cluster = registry.scope("cluster")
    hosts = [Host(spec, i, metrics=cluster.scope(f"host.{spec.name}-{i}"))
             for i in range(6)]
    vms = [VMSpec(name=f"vm{i:02d}", cpu_demand=1.0, memory_bytes=2 * GIB)
           for i in range(12)]
    placement = first_fit(vms, hosts)

    injector = FaultInjector(FaultPlan(seed=E10_SEED, specs=[
        # after=0, count=1: the first host polled dies -- the one
        # first-fit packed fullest.
        FaultSpec("host.crash", rate=1.0, after=0, count=1),
    ]), metrics=registry.scope("faults"))
    crashed = [h.name for h in hosts if h.maybe_crash(injector)]
    stranded = sum(len(h.vms) for h in hosts if not h.alive)
    report = failover(placement)
    lost_names = set(report.lost_names)
    all_on_survivors = all(
        placement.host_of(vm.name) is not None
        and placement.host_of(vm.name).alive
        for vm in vms if vm.name not in lost_names
    )
    return {
        "crashed": crashed,
        "stranded": stranded,
        "report": report,
        "all_on_survivors": all_on_survivors,
    }


def run_e10(quick: bool = False) -> ExperimentResult:
    pages, passes = (12, 400) if quick else (40, 2000)
    registry = new_run_registry()
    migration = _migration_scenario(pages, passes, registry)
    watchdog = _watchdog_scenario(pages, passes, registry)
    fail = _failover_scenario(registry)

    table = Table(
        "E10: fault injection / detection / recovery "
        f"(seed={E10_SEED}{', quick' if quick else ''})",
        ["scenario", "fault", "detected", "recovered", "detail"],
    )
    faulted = migration["faulted"]
    table.add_row(
        "migration", "link drop + 2 corrupt pages",
        f"{faulted.retries} retries, {faulted.corrupt_pages_detected} crc",
        "resume from dirty bitmap",
        f"resent {migration['resent_pages']} vs "
        f"{migration['restart_pages_hypothetical']} restart; "
        f"deterministic={migration['deterministic']}",
    )
    table.add_row(
        "hung vm", "vcpu.stall", f"watchdog ({watchdog['hangs']} hang)",
        f"micro-reboot x{watchdog['reboots']}",
        f"progress preserved={watchdog['progress_preserved']}, "
        f"result correct={watchdog['correct']}",
    )
    report = fail["report"]
    table.add_row(
        "host crash", f"{', '.join(fail['crashed'])} down",
        f"{fail['stranded']} VMs stranded",
        f"{len(report.recovered)} re-placed, {len(report.lost)} lost",
        f"all on survivors={fail['all_on_survivors']}",
    )
    return ExperimentResult(
        "E10",
        table,
        raw={"migration": migration, "watchdog": watchdog, "failover": fail},
        metrics=registry,
    )


#: Seed for the cascade sweep; independent of E10_SEED so scenario A-C
#: schedules stay untouched when the sweep evolves.
E10_CASCADE_SEED = 1733

#: The cascade fleet: 6 x 16 GiB hosts in 3 racks, 11 two-replica
#: services of 4 GiB VMs (88 GiB of demand on 96 GiB of metal).
_CASCADE_SERVICES = 11
_CASCADE_REPLICAS = ("a", "b")


def _cascade_fleet():
    spec = HostSpec(name="host", cores=8, cpu_capacity=8.0,
                    memory_bytes=16 * GIB)
    hosts = [Host(spec, i, domain=f"rack{i // 2}") for i in range(6)]
    groups = {
        f"svc{s:02d}": tuple(f"svc{s:02d}-{r}" for r in _CASCADE_REPLICAS)
        for s in range(_CASCADE_SERVICES)
    }
    # Replica-major deploy order (every primary before any secondary),
    # so when N+1 admission control refuses the tail, the refusals hit
    # secondaries of services that already run -- not whole services.
    vms = [VMSpec(name=f"svc{s:02d}-{r}", cpu_demand=1.0,
                  memory_bytes=4 * GIB)
           for r in _CASCADE_REPLICAS for s in range(_CASCADE_SERVICES)]
    return hosts, vms, groups


def _cascade_case(k: int, protected: bool,
                  registry=None) -> Dict[str, object]:
    """One sweep point: ``k`` simultaneous crashes + one mid-recovery
    cascade, recovered by a :class:`ResilienceController`."""
    hosts, vms, groups = _cascade_fleet()
    constraints = (
        ConstraintSet(anti_affinity_groups=groups,
                      reserve_failures=1)
        if protected else None
    )
    placement = Placement(hosts=hosts)
    rejected = []
    if protected:
        for vm in vms:
            try:
                placement = first_fit([vm], hosts, constraints=constraints)
            except AdmissionError:
                rejected.append(vm.name)
    else:
        placement = first_fit(vms, hosts)

    # The k fullest hosts die at once (worst case, deterministic ties).
    for host in sorted(hosts, key=lambda h: (-h.memory_used, h.index))[:k]:
        host.fail()

    injector = FaultInjector(FaultPlan(seed=E10_CASCADE_SEED, specs=[
        # One extra host dies while the controller is mid-evacuation:
        # the cascade both configs are (or are not) provisioned for.
        FaultSpec("host.crash", rate=1.0, after=2, count=1),
    ]), metrics=registry.scope("faults") if registry is not None else None)
    controller = ResilienceController(
        placement,
        injector,
        constraints=constraints,
        metrics=(registry.scope("cluster.resilience")
                 if registry is not None else None),
    )
    report = controller.run()

    alive_vms = {name for h in hosts if h.alive for name in h.vms}
    services_up = sum(
        1 for members in groups.values()
        if any(m in alive_vms for m in members)
    )
    return {
        "admitted": len(vms) - len(rejected),
        "rejected": rejected,
        "report": report,
        "lost": len(report.lost),
        "services_up": services_up,
        "availability": services_up / len(groups),
        "recovery_s": report.evacuation_time_us / 1e6,
    }


def run_e10_cascade(quick: bool = False) -> ExperimentResult:
    """E10-cascade: availability vs simultaneous-failure count.

    For each ``k``, the unconstrained baseline is recovered next to a
    *protected* config (rack anti-affinity + N+1 admission control)
    under an identical cascade plan. Admission control trades ~2 VMs of
    utilization up front for headroom, so the protected fleet must lose
    strictly fewer admitted VMs than the baseline at every ``k >= 2``
    (asserted by the benchmark suite as ``raw['dominates']``).

    Cases are pure in ``(k, protected)``: each runs against a private
    registry, merged into the run's in sweep order (counters add, gauges
    take the later value, histograms extend).
    """
    ks = (1, 2) if quick else (1, 2, 3)
    registry = new_run_registry()
    table = Table(
        "E10-cascade: k simultaneous host failures + 1 mid-recovery "
        f"cascade (6 hosts / 3 racks, seed={E10_CASCADE_SEED}"
        f"{', quick' if quick else ''})",
        ["fail k", "config", "admitted", "cascades", "recovered", "lost",
         "svc up", "availability", "recovery s", "verified"],
    )
    raw: Dict[str, object] = {"baseline": {}, "protected": {}}
    for k in ks:
        for label, protected in (("baseline", False), ("protected", True)):
            case_registry = MetricsRegistry()
            case = _cascade_case(k, protected, case_registry)
            registry.merge(case_registry)
            raw[label][k] = case
            report = case["report"]
            table.add_row(
                k, label, case["admitted"], len(report.cascade_failures),
                len(report.recovered), case["lost"], case["services_up"],
                f"{case['availability']:.0%}", case["recovery_s"],
                report.verified,
            )
    raw["dominates"] = all(
        raw["protected"][k]["lost"] < raw["baseline"][k]["lost"]
        for k in ks if k >= 2
    )
    # Replay one point from the same seed: the schedule must be
    # byte-stable for the sweep to be a measurement, not a dice roll.
    again = _cascade_case(2, True)
    first = raw["protected"][2]["report"]
    raw["deterministic"] = (
        again["report"].moves == first.moves
        and again["report"].lost_names == first.lost_names
        and again["report"].cascade_failures == first.cascade_failures
        and again["report"].evacuation_time_us == first.evacuation_time_us
    )
    return ExperimentResult("E10-cascade", table, raw=raw, metrics=registry)
