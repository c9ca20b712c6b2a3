"""The repro.obs observability substrate."""

import pytest

from repro.core import (
    GuestConfig,
    Hypervisor,
    MMUVirtMode,
    VirtMode,
)
from repro.core.hypervisor import RunOutcome
from repro.core.stats import ExitStats, VMStats
from repro.cpu.exits import ExitReason
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    GuestProgressWatchdog,
)
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_cpu_bound
from repro.obs import (
    ManualClock,
    MetricsRegistry,
    SimClock,
    build_manifest,
    register_baseline,
    subsystem_of,
)
from repro.sim.kernel import Simulator, Timeout
from repro.util.errors import ConfigError
from repro.util.units import MIB
from tests.conftest import round_robin

GUEST_MEM = 16 * MIB


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("vm.web.exits.vmcall")
        a.inc(3)
        assert reg.counter("vm.web.exits.vmcall") is a
        assert reg.values()["vm.web.exits.vmcall"] == 3

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("sched.dispatches")
        with pytest.raises(ConfigError):
            reg.gauge("sched.dispatches")
        with pytest.raises(ConfigError):
            reg.histogram("sched.dispatches")

    def test_name_structure_enforced(self):
        reg = MetricsRegistry()
        for bad in ("", ".lead", "trail.", "a..b"):
            with pytest.raises(ConfigError):
                reg.counter(bad)
        # Segments carry user labels: spaces are legal inside one.
        reg.counter("vm.e9b-full BT.exits.vmcall")

    def test_values_prefix_and_strip(self):
        reg = MetricsRegistry()
        reg.counter("vm.a.exits.vmcall").inc(2)
        reg.counter("vm.a.exits.io_out").inc(1)
        reg.counter("vm.b.exits.vmcall").inc(9)
        assert reg.values("vm.a.exits.") == {
            "vmcall": 2, "io_out": 1,
        }

    def test_scope_nesting_qualifies_names(self):
        reg = MetricsRegistry()
        dev = reg.scope("vm").scope("web").scope("dev")
        dev.counter("block.reads").inc()
        assert reg.values()["vm.web.dev.block.reads"] == 1
        assert reg.scope("vm").scope("web").values("dev") == {
            "block.reads": 1}

    def test_reset_drops_only_the_prefix(self):
        reg = MetricsRegistry()
        reg.counter("vm.a.exits.vmcall").inc()
        reg.counter("vm.ab.exits.vmcall").inc()
        assert reg.reset("vm.a.") == 1
        assert "vm.a.exits.vmcall" not in reg
        assert reg.values()["vm.ab.exits.vmcall"] == 1

    def test_merge_adds_counters_and_extends_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("migration.rounds").inc(2)
        b.counter("migration.rounds").inc(3)
        b.gauge("overcommit.balloon.pages").set(7)
        b.histogram("span.round").observe(1.0)
        a.merge(b)
        assert a.values()["migration.rounds"] == 5
        assert a.values()["overcommit.balloon.pages"] == 7
        assert a.histogram("span.round").count == 1


class TestClocks:
    def test_manual_clock_rejects_regression(self):
        clk = ManualClock()
        clk.set(5)
        assert clk.now() == 5
        with pytest.raises(ValueError):
            clk.set(4)

    def test_sim_clock_tracks_simulator(self):
        sim = Simulator()
        clk = SimClock(sim)
        assert clk.timebase == "us"

        def proc():
            yield Timeout(25)

        sim.spawn(proc())
        sim.run()
        assert clk.now() == sim.now == 25

    def test_histogram_stamped_with_registry_clock(self):
        clk = ManualClock()
        reg = MetricsRegistry(clock=clk)
        clk.set(42)
        reg.observe("sched.wake_latency_us", 3.0)
        assert reg.histogram("sched.wake_latency_us").last_time == 42
        snap = reg.snapshot()
        assert snap["timebase"] == "ticks"
        assert snap["time"] == 42


class TestStatsViews:
    def test_exit_stats_is_a_registry_view(self):
        reg = MetricsRegistry()
        stats = ExitStats(reg.scope("vm.web"))
        stats.record(ExitReason.VMCALL, 100)
        stats.record(ExitReason.VMCALL, 50)
        stats.record(ExitReason.IO_OUT, 30, detail="console")
        assert stats.counts["vmcall"] == 2
        assert reg.values("vm.web.exit_cycles.")["vmcall"] == 150
        assert stats.total_exits == 3
        # The view and the registry agree on storage.
        assert reg.values()["vm.web.exits.vmcall"] == 2
        assert reg.values()["vm.web.exit_cycles.io_out:console"] == 30

    def test_vm_stats_attrs_are_registry_counters(self):
        reg = MetricsRegistry()
        stats = VMStats(reg.scope("vm.web"))
        stats.world_switches += 2
        stats.vmm_cycles += 500
        stats.guest_cycles = 1000  # assignment (snapshot restore path)
        assert stats.world_switches == 2
        assert reg.values()["vm.web.world_switches"] == 2
        assert reg.values()["vm.web.vmm_cycles"] == 500
        assert reg.values()["vm.web.guest_cycles"] == 1000
        assert stats.guest_cycles + stats.vmm_cycles == 1500


class TestManifest:
    def test_subsystem_mapping(self):
        assert subsystem_of("vm.web.exits.vmcall") == "core"
        assert subsystem_of("vm.web.dev.block.reads") == "devices"
        assert subsystem_of("sched.credit.preemptions") == "sched"
        assert subsystem_of("surprise.counter") == "other"

    def test_baseline_covers_six_subsystems(self):
        reg = register_baseline(MetricsRegistry())
        manifest = build_manifest(reg, experiment="T0")
        assert manifest["schema"].startswith("pyvisor.metrics.manifest/")
        for subsystem in ("core", "devices", "sched", "migration",
                          "overcommit", "faults"):
            assert subsystem in manifest["subsystems"]
        assert manifest["experiment"] == "T0"
        assert (manifest["metrics"]["faults.injected.total"]["value"] == 0)


def _make_guest(hv, name, workload):
    vm = hv.create_vm(GuestConfig(name=name, memory_bytes=GUEST_MEM,
                                  virt_mode=VirtMode.HW_ASSIST,
                                  mmu_mode=MMUVirtMode.NESTED))
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM))
    hv.load_program(vm, kernel)
    hv.load_program(vm, workload)
    hv.reset_vcpu(vm, kernel.entry)
    return vm


class TestHypervisorIntegration:
    def test_vm_metrics_live_in_shared_registry(self):
        reg = MetricsRegistry()
        hv = Hypervisor(memory_bytes=96 * MIB, registry=reg)
        vm = _make_guest(hv, "obs", workloads.cpu_bound(5_000))
        outcome = hv.run(vm, max_guest_instructions=80_000_000)
        assert outcome is RunOutcome.SHUTDOWN
        # Views and registry agree.
        assert reg.values()["vm.obs.vmm_cycles"] == vm.stats.vmm_cycles
        assert reg.values()["core.vms_created"] == 1
        assert reg.values()["devices.attached"] == len(vm.devices)
        total_exits = sum(
            reg.values("vm.obs.exits.").values()
        )
        assert total_exits == vm.exit_stats.total_exits

    def test_recreated_vm_restarts_counters(self):
        reg = MetricsRegistry()
        hv = Hypervisor(memory_bytes=96 * MIB, registry=reg)
        vm = _make_guest(hv, "cycle", workloads.cpu_bound(2_000))
        hv.run(vm, max_guest_instructions=80_000_000)
        assert reg.values()["vm.cycle.world_switches"] > 0
        hv.destroy_vm(vm)
        vm2 = _make_guest(hv, "cycle", workloads.cpu_bound(2_000))
        # Same name, fresh telemetry: exactly the pre-registry behaviour.
        assert vm2.stats.world_switches == 0

    def test_vmscheduler_flags_hung_vm_per_entry(self):
        reg = MetricsRegistry()
        hv = Hypervisor(memory_bytes=96 * MIB, registry=reg)
        iterations = 30_000
        stalls = _make_guest(hv, "stalls", workloads.cpu_bound(iterations))
        healthy = _make_guest(hv, "healthy", workloads.cpu_bound(iterations))
        hv.injector = FaultInjector(
            FaultPlan(seed=7, specs=[
                # First pump opportunity belongs to the first dispatched
                # VM: rate=1.0, count=1 wedges exactly that one.
                FaultSpec("vcpu.stall", rate=1.0, after=0, count=1),
            ]),
            metrics=reg.scope("faults"),
        )
        # One watchdog per VM: the hung guest cannot confuse hang
        # detection for its neighbour, which runs on to the end.
        watchdogs = {vm.name: GuestProgressWatchdog(
            reg.scope(f"faults.watchdog.{vm.name}"))
            for vm in (stalls, healthy)}
        for watchdog in watchdogs.values():
            watchdog.idle_beat_limit = 4
        outcomes, _dispatches, _finished = round_robin(
            hv, [stalls, healthy], 20_000, watchdogs)
        assert outcomes["stalls"] is RunOutcome.HUNG
        assert outcomes["healthy"] is RunOutcome.SHUTDOWN
        assert read_diag(healthy.guest_mem).user_result == (
            expected_cpu_bound(iterations)
        )
        assert reg.values()["faults.watchdog.stalls.hangs_detected"] == 1
        assert reg.values().get("faults.watchdog.healthy.hangs_detected", 0) == 0
        assert reg.values()["faults.injected.vcpu.stall"] == 1
