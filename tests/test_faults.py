"""Fault injection, detection, and recovery (the E10 subsystem)."""

import pytest

from repro.cluster import Host, HostSpec, VMSpec, failover, first_fit
from repro.core.hypervisor import RunOutcome
from repro.devices.block import (
    BLK_CMD,
    BLK_COUNT,
    BLK_DMA,
    BLK_SECTOR,
    BLK_STATUS,
    CMD_READ,
    CMD_WRITE,
    STATUS_ERROR,
    STATUS_READY,
)
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
from repro.sim.kernel import Simulator, Timeout
from repro.sim.link import NetworkLink
from repro.util.errors import (
    ConfigError,
    DeviceError,
    LinkError,
    MemoryError_,
    MigrationError,
)
from repro.util.units import GIB, MIB

from tests.conftest import GUEST_MEM, make_vm


def _injector(*specs, seed=7):
    return FaultInjector(FaultPlan(seed=seed, specs=list(specs)))


# -- injector ----------------------------------------------------------------


def test_fixed_seed_schedule_is_byte_for_byte_reproducible():
    def run(seed):
        inj = _injector(
            FaultSpec("link.drop", rate=0.3),
            FaultSpec("block.io_error", rate=0.1, after=5),
            seed=seed,
        )
        for i in range(200):
            inj.fires("link.drop")
            if i % 3 == 0:
                inj.fires("block.io_error")
            inj.fires("never.planned")
        return inj.trace_bytes()

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_spec_pins_exact_opportunity():
    inj = _injector(FaultSpec("link.drop", rate=1.0, after=3, count=2))
    fired_at = [i for i in range(10) if inj.fires("link.drop")]
    assert fired_at == [3, 4]  # exactly the (after+1)-th and next, no more
    assert inj.metrics.values("injected")["link.drop"] == 2
    assert [site for site, _i, _f in inj.trace] == ["link.drop"] * 10


def test_unplanned_site_never_fires_and_never_perturbs_others():
    """Per-site forked RNG streams: drawing at one site must not shift
    another site's schedule."""
    a = _injector(FaultSpec("link.drop", rate=0.5))
    b = _injector(FaultSpec("link.drop", rate=0.5))
    seq_a = [a.fires("link.drop") for _ in range(100)]
    seq_b = []
    for _ in range(100):
        b.fires("other.site")  # unplanned: no RNG draw
        seq_b.append(b.fires("link.drop"))
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)


def test_plan_validation():
    with pytest.raises(ConfigError):
        FaultPlan(seed=1, specs=[FaultSpec("link.drop", rate=1.5)]).validate()
    with pytest.raises(ConfigError):
        FaultPlan(
            seed=1,
            specs=[FaultSpec("link.drop", rate=0.1),
                   FaultSpec("link.drop", rate=0.2)],
        ).validate()


def test_unknown_site_rejected_at_plan_build():
    # The typo'd site must fail loudly at validate() time, not silently
    # never fire at run time.
    with pytest.raises(ConfigError, match="unknown fault site"):
        FaultPlan(
            seed=1, specs=[FaultSpec("migrate.link_drp", rate=1.0)]
        ).validate()
    with pytest.raises(ConfigError, match="unknown fault site"):
        FaultInjector(FaultPlan.from_rates(seed=1, rates={"nope.site": 0.5}))


def test_docstring_site_table_matches_catalog():
    # Every ``subsystem.point`` token in the module docstring must be a
    # registered site and vice versa, so the docs can't drift from the
    # registry again (a typo'd table entry once shipped unnoticed).
    import re

    from repro.faults import injector as inj_mod
    from repro.faults.injector import site_catalog

    documented = set(re.findall(r"``([a-z_]+\.[a-z_]+)``", inj_mod.__doc__))
    catalog = {name for name, _desc in site_catalog()}
    assert documented == catalog


def test_catalog_names_and_subsystem_tags_are_consistent():
    # site_catalog() is the single source for ``repro faults --list``;
    # every entry must be sorted, described, and carry a well-formed
    # ``subsystem.point`` name (the CLI derives its [subsystem] tag by
    # splitting on the first dot).
    import re

    from repro.faults.injector import site_catalog

    sites = site_catalog()
    names = [name for name, _d in sites]
    assert names == sorted(names)
    for name, description in sites:
        assert re.fullmatch(r"[a-z_]+\.[a-z_]+", name), name
        assert description, f"{name} has no description"
    assert "hmode.gstage_stall" in names


def test_cli_faults_list_shows_hmode_sites(capsys):
    import argparse

    from repro.cli import _cmd_faults

    assert _cmd_faults(argparse.Namespace(list=True)) == 0
    out = capsys.readouterr().out
    assert "hmode.gstage_stall" in out
    assert "[hmode]" in out


def test_hmode_sites_have_forked_streams_like_irq():
    # Planning the hmode site must not shift any other site's
    # schedule: per-site streams are forked, so the irq.lost sequence
    # is identical with and without the hmode spec in the plan.
    without = _injector(FaultSpec("irq.lost", rate=0.5))
    with_hmode = _injector(
        FaultSpec("irq.lost", rate=0.5),
        FaultSpec("hmode.gstage_stall", rate=0.5),
    )
    seq_a = [without.fires("irq.lost") for _ in range(100)]
    seq_b = []
    for _ in range(100):
        with_hmode.fires("hmode.gstage_stall")
        seq_b.append(with_hmode.fires("irq.lost"))
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)


def test_hmode_sites_pin_like_any_other():
    inj = _injector(
        FaultSpec("hmode.gstage_stall", rate=1.0, after=3, count=1))
    fired_at = [i for i in range(8) if inj.fires("hmode.gstage_stall")]
    assert fired_at == [3]
    assert inj.metrics.values("injected")["hmode.gstage_stall"] == 1


# -- watchdog, wedged devices ------------------------------------------------


def test_watchdog_fires_only_on_flatlined_progress():
    wd = GuestProgressWatchdog(MetricsRegistry().scope("faults.watchdog"))
    wd.idle_beat_limit = 3
    assert not any(wd.beat(instret) for instret in (100, 200, 300))
    assert not wd.beat(300)
    assert not wd.beat(300)
    assert wd.beat(300)  # third consecutive idle pump
    assert wd.hangs_detected == 1
    assert not wd.beat(400)  # re-armed, progress again


def test_block_stuck_fault_wedges_the_device(hypervisor):
    inj = _injector(FaultSpec("block.stuck", rate=1.0, after=1, count=1))
    vm = make_vm(hypervisor, with_emulated_io=True)
    dev = vm.devices["block"]
    dev.injector = inj

    dev.port_write(BLK_SECTOR, 0)
    dev.port_write(BLK_COUNT, 1)
    dev.port_write(BLK_DMA, 0x2000)
    dev.port_write(BLK_CMD, CMD_READ)  # completes fine
    assert (dev.commands, dev.completions) == (1, 1)
    assert dev.status == STATUS_READY

    for _ in range(2):  # wedged: accepted, never completed
        dev.port_write(BLK_CMD, CMD_READ)
    assert dev.stuck
    assert (dev.commands, dev.completions) == (3, 1)
    assert dev.stalled_commands == 2


def test_block_io_error_fault_completes_with_error_status(hypervisor):
    inj = _injector(FaultSpec("block.io_error", rate=1.0, count=1))
    vm = make_vm(hypervisor, name="ioerr", with_emulated_io=True)
    dev = vm.devices["block"]
    dev.injector = inj
    dev.port_write(BLK_SECTOR, 0)
    dev.port_write(BLK_COUNT, 1)
    dev.port_write(BLK_DMA, 0x2000)
    dev.port_write(BLK_CMD, CMD_WRITE)
    assert dev.port_read(BLK_STATUS) == STATUS_ERROR
    assert dev.io_errors == 1
    dev.port_write(BLK_CMD, CMD_WRITE)  # transient: retry succeeds
    assert dev.port_read(BLK_STATUS) == STATUS_READY


def test_virtio_stuck_fault_wedges_the_ring(hypervisor):
    inj = _injector(FaultSpec("virtio.ring_stuck", rate=1.0, count=1))
    vm = make_vm(hypervisor, name="vring", with_virtio=True)
    dev = vm.devices["virtio_blk"]
    dev.injector = inj
    # Configure a minimal one-descriptor ring by hand.
    dev.queue.desc_gpa, dev.queue.avail_gpa, dev.queue.used_gpa = (
        0x1000, 0x2000, 0x3000,
    )
    dev.queue.size = 8
    for _ in range(2):  # kick path: the injected fault wedges the ring
        dev._drain()
    assert dev.stuck and dev.stalled_kicks == 2
    assert dev.completions == 0


# -- error-cause chaining at subsystem boundaries ----------------------------


def test_device_error_chains_memory_fault(hypervisor):
    vm = make_vm(hypervisor, name="dma", with_emulated_io=True)
    dev = vm.devices["block"]
    dev.port_write(BLK_SECTOR, 0)
    dev.port_write(BLK_COUNT, 1)
    dev.port_write(BLK_DMA, GUEST_MEM + 0x1000)  # beyond guest RAM
    with pytest.raises(DeviceError) as excinfo:
        dev.port_write(BLK_CMD, CMD_READ)
    assert isinstance(excinfo.value.__cause__, MemoryError_)


def test_link_rejects_bad_config_with_config_error():
    with pytest.raises(ConfigError):
        NetworkLink(Simulator(), bandwidth_bytes_per_sec=0)


def test_link_drop_raises_link_error_and_burns_time():
    sim = Simulator()
    inj = _injector(FaultSpec("link.drop", rate=1.0, count=1))
    link = NetworkLink(sim, bandwidth_bytes_per_sec=1 * MIB, injector=inj)
    caught = []

    def proc():
        try:
            yield from link.transfer(1 * MIB)
        except LinkError as err:
            caught.append(err)
        result = yield from link.transfer(1 * MIB)  # retry succeeds
        return result

    p = sim.spawn(proc())
    result = sim.run_until_process(p)
    assert len(caught) == 1 and link.drops == 1
    assert result.nbytes == 1 * MIB
    # The failed attempt burned a deterministic fraction of the wire
    # time before dying, so completion lands later than a clean send.
    assert result.finished_at > link.transmission_time(1 * MIB)


def test_link_partition_blocks_until_heal():
    sim = Simulator()
    inj = _injector(FaultSpec("link.partition", rate=1.0, count=1))
    link = NetworkLink(sim, bandwidth_bytes_per_sec=1 * MIB, injector=inj)
    outcomes = []

    def proc():
        for _ in range(2):
            try:
                yield from link.transfer(1024)
                outcomes.append("ok")
            except LinkError:
                outcomes.append("dropped")
                yield Timeout(link.partition_ticks)  # the partition heals
        return None

    p = sim.spawn(proc())
    sim.run_until_process(p)
    assert outcomes == ["dropped", "ok"]
    assert link.partitions == 1


# -- retry policy ------------------------------------------------------------


def test_retry_policy_backoff_is_capped_exponential():
    policy = RetryPolicy(max_retries=5)
    assert [policy.backoff_cycles(a) for a in (1, 2, 5, 6)] == [
        10_000, 20_000, 160_000, 160_000,
    ]
    with pytest.raises(ConfigError):
        policy.backoff_cycles(0)


# -- migration under faults --------------------------------------------------


def _boot_mig_vm(hv, pages=12, passes=400, name="fault-mig"):
    vm = make_vm(hv, name=name)
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM))
    hv.load_program(vm, kernel)
    hv.load_program(vm, workloads.memtouch(pages, passes))
    hv.reset_vcpu(vm, kernel.entry)
    hv.run(vm, max_guest_instructions=50_000)
    return vm, expected_memtouch(pages, passes)


def test_migration_survives_link_drop_resuming_from_dirty_bitmap():
    from repro.core import Hypervisor

    src = Hypervisor(memory_bytes=64 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    vm, expected = _boot_mig_vm(src)
    inj = _injector(FaultSpec("migration.xfer_drop", rate=1.0, after=100,
                              count=1))
    migrator = LiveMigrator(src, dst, injector=inj,
                            retry_policy=RetryPolicy(max_retries=3))
    baseline_pages = len(vm.guest_mem.map)  # round 0 alone sends these
    result = migrator.migrate(vm)
    assert result.retries == 1
    assert result.backoff_cycles > 0
    # Resume, not restart: nothing was re-sent after the drop, so the
    # total stays strictly below "100 delivered + a fresh full copy".
    assert result.pages_copied < 100 + baseline_pages + 64
    outcome = dst.run(result.dest_vm, max_guest_instructions=80_000_000)
    diag = read_diag(result.dest_vm.guest_mem)
    assert outcome is RunOutcome.SHUTDOWN and diag.user_result == expected


def test_migration_error_after_budget_chains_link_error():
    from repro.core import Hypervisor

    src = Hypervisor(memory_bytes=64 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    vm, _ = _boot_mig_vm(src, name="doomed")
    inj = _injector(FaultSpec("migration.xfer_drop", rate=1.0))  # every try
    migrator = LiveMigrator(src, dst, injector=inj,
                            retry_policy=RetryPolicy(max_retries=2))
    with pytest.raises(MigrationError) as excinfo:
        migrator.migrate(vm)
    assert isinstance(excinfo.value.__cause__, LinkError)
    # The abandoned migration must not leak dirty logging onto the
    # still-running source.
    assert vm.dirty_log is None


def test_migration_detects_and_resends_corrupt_pages():
    from repro.core import Hypervisor

    src = Hypervisor(memory_bytes=64 * MIB)
    dst = Hypervisor(memory_bytes=64 * MIB)
    vm, expected = _boot_mig_vm(src, name="crcmig")
    inj = _injector(FaultSpec("migration.page_corrupt", rate=1.0, after=10,
                              count=3))
    migrator = LiveMigrator(src, dst, injector=inj)
    result = migrator.migrate(vm)
    assert result.corrupt_pages_detected == 3
    # Destination memory is bit-identical to the source despite the
    # injected wire corruption.
    for gfn in vm.guest_mem.map:
        assert result.dest_vm.guest_mem.read_gfn(gfn) == (
            vm.guest_mem.read_gfn(gfn)
        )
    outcome = dst.run(result.dest_vm, max_guest_instructions=80_000_000)
    diag = read_diag(result.dest_vm.guest_mem)
    assert outcome is RunOutcome.SHUTDOWN and diag.user_result == expected


# -- hung-VM detection + micro-reboot ----------------------------------------


def test_watchdog_detects_stalled_vcpu_and_microreboot_recovers(hypervisor):
    # passes=4000 keeps the guest live past the 50k-instruction boot run,
    # so the stall hits a VM with work outstanding.
    vm, expected = _boot_mig_vm(hypervisor, passes=4000, name="hangvm")
    hypervisor.injector = _injector(
        FaultSpec("vcpu.stall", rate=1.0, after=2, count=1)
    )
    rebooter = MicroRebooter(hypervisor)
    instret_before = vm.vcpus[0].cpu.instret

    wd = GuestProgressWatchdog(MetricsRegistry().scope("faults.watchdog"))
    wd.idle_beat_limit = 4
    outcome = hypervisor.run(vm, max_guest_instructions=80_000_000,
                             watchdog=wd)
    assert outcome is RunOutcome.HUNG
    assert wd.hangs_detected == 1
    assert vm.vcpus[0].stalled

    recovered = rebooter.reboot(vm)
    assert rebooter.reboots == 1
    assert not recovered.vcpus[0].stalled  # hypervisor state rebuilt
    assert recovered.vcpus[0].cpu.instret >= instret_before  # guest survived

    final = hypervisor.run(recovered, max_guest_instructions=80_000_000)
    diag = read_diag(recovered.guest_mem)
    assert final is RunOutcome.SHUTDOWN and diag.user_result == expected


def test_stalled_vcpu_terminates_even_without_watchdog(hypervisor):
    vm, _ = _boot_mig_vm(hypervisor, passes=4000, name="nowd")
    hypervisor.injector = _injector(
        FaultSpec("vcpu.stall", rate=1.0, count=1)
    )
    outcome = hypervisor.run(vm, max_guest_instructions=80_000_000)
    assert outcome is RunOutcome.HUNG  # safety-net stall limit


# -- host failover -----------------------------------------------------------


def test_host_crash_failover_replaces_vms_on_survivors():
    spec = HostSpec(name="h", cores=4, cpu_capacity=4.0, memory_bytes=8 * GIB)
    hosts = [Host(spec, i) for i in range(4)]
    vms = [VMSpec(name=f"vm{i}", memory_bytes=1 * GIB) for i in range(8)]
    placement = first_fit(vms, hosts)
    inj = _injector(FaultSpec("host.crash", rate=1.0, after=0, count=1))
    crashed = [h for h in hosts if h.maybe_crash(inj)]
    assert [h.name for h in crashed] == ["h-0"]
    stranded = len(crashed[0].vms)
    assert stranded == 8  # first-fit packed everything onto h-0

    report = failover(placement)
    assert report.failed_hosts == ["h-0"]
    assert len(report.recovered) == stranded and not report.lost
    assert not crashed[0].vms  # drained
    for vm in vms:
        host = placement.host_of(vm.name)
        assert host is not None and host.alive


def test_failover_reports_lost_vms_when_survivors_are_full():
    spec = HostSpec(name="h", cores=4, cpu_capacity=4.0, memory_bytes=4 * GIB)
    hosts = [Host(spec, i) for i in range(2)]
    vms = [VMSpec(name=f"vm{i}", memory_bytes=2 * GIB) for i in range(4)]
    placement = first_fit(vms, hosts)  # both hosts full
    hosts[0].fail()
    report = failover(placement)
    assert len(report.lost) == 2 and not report.recovered
    # lost keeps the full spec (not just the name) so a controller can
    # retry placement once capacity returns.
    assert all(isinstance(vm, VMSpec) for vm in report.lost)
    assert placement.host_of(report.lost[0].name) is None
