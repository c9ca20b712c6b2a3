"""E6 (Figure 6): live migration downtime/total time versus dirty rate.

A 512 MiB VM over a 1 Gbps link (~32k pages/s). Pre-copy downtime stays
in single-digit milliseconds while the dirty rate is below the link's
page rate, then explodes as iterations stop converging; post-copy
downtime is constant (CPU state only) but trades it for a degradation
window; stop-and-copy pays the whole image as downtime (Clark NSDI'05;
Hines VEE'09).

``run_e6_functional`` additionally migrates a *real* instruction-engine
VM mid-workload and reports round sizes and correctness.
"""

from typing import Dict

from repro.bench.common import (
    ExperimentResult,
    GUEST_MEMORY,
    HOST_MEMORY,
    new_run_registry,
)
from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.faults import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.migration import (
    LiveMigrator,
    MigrationConfig,
    simulate_postcopy,
    simulate_precopy,
    simulate_stop_and_copy,
)
from repro.sim.kernel import Simulator
from repro.sim.link import NetworkLink
from repro.util.chart import ascii_chart
from repro.util.errors import GuestError
from repro.util.table import Table
from repro.util.units import MIB


#: The sweep: dirty rates (pages/s) of a 512 MiB guest.
DIRTY_RATES = (0, 2000, 8000, 16000, 24000, 32000, 40000)
VM_PAGES = 131072


def _fresh_link():
    sim = Simulator()
    return NetworkLink(sim, bandwidth_bytes_per_sec=125 * MIB)


def _e6_point(rate):
    """One sweep point: each model gets a fresh simulator and link."""
    cfg = MigrationConfig(vm_pages=VM_PAGES, dirty_rate_pps=float(rate))
    return {
        "pre": simulate_precopy(cfg, _fresh_link()),
        "post": simulate_postcopy(cfg, _fresh_link()),
        "stop_copy": simulate_stop_and_copy(cfg, _fresh_link()),
    }


def run_e6() -> ExperimentResult:
    """The dirty-rate sweep."""
    by_rate = {rate: _e6_point(rate) for rate in DIRTY_RATES}

    raw: Dict[int, Dict[str, object]] = {}
    table = Table(
        "E6: 512 MiB VM over 1 Gbps; downtime (ms) and total time (s) vs dirty rate",
        ["dirty pages/s", "pre down", "pre total", "pre rounds", "converged",
         "post down", "post degraded", "s&c down"],
    )
    for rate in DIRTY_RATES:
        pre = by_rate[rate]["pre"]
        post = by_rate[rate]["post"]
        sc = by_rate[rate]["stop_copy"]
        raw[rate] = by_rate[rate]
        table.add_row(
            rate,
            pre.downtime_us / 1000.0,
            pre.total_time_us / 1e6,
            pre.rounds,
            pre.converged,
            post.downtime_us / 1000.0,
            post.degraded_time_us / 1e6,
            sc.downtime_us / 1e6,
        )
    result = ExperimentResult("E6", table, raw=raw)
    positive_rates = [r for r in DIRTY_RATES if r > 0]
    result.raw["chart"] = ascii_chart(
        {
            "pre-copy": [
                (r, raw[r]["pre"].downtime_us / 1000.0)
                for r in positive_rates
            ],
            "post-copy": [
                (r, raw[r]["post"].downtime_us / 1000.0)
                for r in positive_rates
            ],
        },
        title="Figure 6: downtime (ms, log y) vs dirty rate",
        x_label="dirty pages/s",
        y_label="downtime ms",
        log_y=True,
    )
    return result


def run_e6_functional() -> ExperimentResult:
    """Pre-copy of a hw-nested guest halfway through memtouch(40, 3000)."""
    pages, passes = 40, 3000
    src = Hypervisor(memory_bytes=HOST_MEMORY)
    dst = Hypervisor(memory_bytes=HOST_MEMORY)
    vm = src.create_vm(
        GuestConfig(name="mig-src", memory_bytes=GUEST_MEMORY,
                    virt_mode=VirtMode.HW_ASSIST, mmu_mode=MMUVirtMode.NESTED)
    )
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEMORY))
    src.load_program(vm, kernel)
    src.load_program(vm, workloads.memtouch(pages, passes))
    src.reset_vcpu(vm, kernel.entry)
    src.run(vm, max_guest_instructions=100_000)  # get mid-workload

    migrator = LiveMigrator(src, dst, bytes_per_cycle=4.0)
    result = migrator.migrate(vm, quantum_instructions=40_000, max_rounds=6,
                              threshold_pages=4)
    outcome = dst.run(result.dest_vm, max_guest_instructions=80_000_000)
    diag = read_diag(result.dest_vm.guest_mem)
    expected = expected_memtouch(pages, passes)
    if outcome is not RunOutcome.SHUTDOWN or diag.user_result != expected:
        raise GuestError(
            f"functional migration corrupted the guest: outcome={outcome}, "
            f"result={diag.user_result}, expected={expected}"
        )
    table = Table(
        "E6-functional: real pre-copy of a running guest "
        f"({VirtMode.HW_ASSIST.value}/{MMUVirtMode.NESTED.value})",
        ["rounds", "round sizes", "downtime cyc", "pages copied",
         "guest instr during", "result correct"],
    )
    table.add_row(
        result.rounds,
        " ".join(str(s) for s in result.round_sizes),
        result.downtime_cycles,
        result.pages_copied,
        result.guest_instructions_during,
        True,
    )
    return ExperimentResult("E6-functional", table, raw={"result": result})


#: Seed for the E6 fault-curve sweep; independent of E10's so the two
#: experiments' injection schedules never couple.
E6_FAULT_SEED = 2203


def _drop_plan(drops: int) -> FaultPlan:
    """Pin exactly ``drops`` stream drops (plus one round stall)."""
    specs = [FaultSpec("migrate.link_drop", rate=1.0, after=0, count=drops)]
    if drops:
        # One source-side hiccup early on, so the stall path is
        # exercised alongside the drop/retry path.
        specs.append(FaultSpec("migrate.round_stall", rate=1.0, after=0,
                               count=1))
    return FaultPlan(seed=E6_FAULT_SEED, specs=specs)


#: Pinned consecutive stream drops per E6-faults point.
DROP_COUNTS = (0, 1, 2, 4, 6, 8)


def run_e6_faults() -> ExperimentResult:
    """E6-faults: the pre-copy retry/giveup curve under injected drops.

    Sweeps a pinned number of consecutive ``migrate.link_drop`` firings
    against a fixed :class:`RetryPolicy` budget. Below the budget the
    migrator backs off and resumes (total time grows by the burned
    serialization time plus backoff); past it the migration is
    abandoned with the guest still on the source (``gave up``). Every
    faulted point is run twice from the same seed and must replay to a
    byte-identical injection trace and an identical result
    (``deterministic``); the zero-drop point must be bit-identical to
    the fault-free model (``fault-free identical`` in ``raw``).
    """
    policy = RetryPolicy(max_retries=6)
    registry = new_run_registry()
    mig_scope = registry.scope("migration")
    faults_scope = registry.scope("faults")
    dirty_rate = 8000.0
    cfg = MigrationConfig(vm_pages=VM_PAGES, dirty_rate_pps=dirty_rate)

    baseline = simulate_precopy(cfg, _fresh_link())
    plain = simulate_precopy(cfg, _fresh_link(), metrics=mig_scope,
                             retry_policy=policy)
    fault_free_identical = plain == baseline

    raw: Dict[int, Dict[str, object]] = {}
    table = Table(
        "E6-faults: pre-copy vs pinned stream drops "
        f"(512 MiB, {dirty_rate:.0f} dirty pages/s, retry budget "
        f"{policy.max_retries}, seed={E6_FAULT_SEED})",
        ["drops", "retries", "backoff ms", "stalls", "total s",
         "downtime ms", "rounds", "gave up", "deterministic"],
    )
    for drops in DROP_COUNTS:
        if drops == 0:
            raw[0] = {
                "result": plain,
                "deterministic": fault_free_identical,
                "trace_bytes": b"",
            }
            table.add_row(0, 0, 0.0, 0, plain.total_time_us / 1e6,
                          plain.downtime_us / 1000.0, plain.rounds,
                          False, fault_free_identical)
            continue
        inj = FaultInjector(_drop_plan(drops), metrics=faults_scope)
        res = simulate_precopy(cfg, _fresh_link(), metrics=mig_scope,
                               injector=inj, retry_policy=policy)
        replay_inj = FaultInjector(_drop_plan(drops))
        replay = simulate_precopy(cfg, _fresh_link(), injector=replay_inj,
                                  retry_policy=policy)
        deterministic = (res == replay
                         and inj.trace_bytes() == replay_inj.trace_bytes())
        raw[drops] = {
            "result": res,
            "deterministic": deterministic,
            "trace_bytes": inj.trace_bytes(),
        }
        table.add_row(drops, res.retries, res.backoff_us / 1000.0,
                      res.stalls, res.total_time_us / 1e6,
                      res.downtime_us / 1000.0, res.rounds, res.gave_up,
                      deterministic)
    result = ExperimentResult("E6-faults", table, raw=raw, metrics=registry)
    result.raw["fault_free_identical"] = fault_free_identical
    result.raw["retry_policy"] = policy
    return result
