"""Closed-loop pressure controller + EPT dispatch-chain composition."""

import pytest

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.migration import PostCopyMigrator
from repro.overcommit import HostSwap, MemoryPressureController, PageSharer
from repro.util.errors import ConfigError
from repro.util.units import MIB, PAGE_SIZE

GUEST_MEM = 16 * MIB
ADMIT_FRAMES = (GUEST_MEM >> 12) + 128


def boot(hv, name, pages=64, passes=2, warmup=0,
         mmu_mode=MMUVirtMode.NESTED):
    vm = hv.create_vm(GuestConfig(name=name, memory_bytes=GUEST_MEM,
                                  virt_mode=VirtMode.HW_ASSIST,
                                  mmu_mode=mmu_mode))
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM))
    hv.load_program(vm, kernel)
    hv.load_program(vm, workloads.memtouch(pages, passes))
    hv.reset_vcpu(vm, kernel.entry)
    if warmup:
        hv.run(vm, max_guest_instructions=warmup)
    return vm


def run_all(hv, vms, controller=None, quantum=100_000):
    """Round-robin every VM to completion, ticking between rounds."""
    outcomes = {}
    pending = list(vms)
    while pending:
        still = []
        for vm in pending:
            out = hv.run(vm, max_guest_instructions=quantum)
            if out is RunOutcome.INSTR_LIMIT:
                still.append(vm)
            else:
                outcomes[vm.name] = out
        if controller is not None:
            controller.tick()
        pending = still
    return outcomes


def assert_correct(vms, pages=64, passes=2):
    expected = expected_memtouch(pages, passes)
    for vm in vms:
        diag = read_diag(vm.guest_mem)
        assert diag.user_result == expected, vm.name


class TestDispatchChainComposition:
    def test_concurrent_owners_route_every_fault_correctly(self):
        """HostSwap + PageSharer + an incoming post-copy migration on
        one destination hypervisor: every EPT fault must reach its
        owner. Pre-chain, whichever owner installed ``ept_fault_hook``
        last stole the others' faults -- a timeshared local guest's
        swapped pages came back as fresh zero frames (silent
        corruption) while a migration was in flight."""
        dst = Hypervisor(memory_bytes=96 * MIB)
        swap = HostSwap(dst)
        sharer = PageSharer(dst)
        local = boot(dst, "local", pages=28, passes=2500, warmup=100_000)
        swap.install(local)
        # Push the local guest's early pages (kernel + touched data)
        # out to the host store, then dedupe what stayed resident.
        assert swap.evict_some(800) == 800
        sharer.scan([local])

        src = Hypervisor(memory_bytes=64 * MIB)
        vm = boot(src, "mig", pages=28, passes=2500, warmup=100_000)
        migrator = PostCopyMigrator(src, dst, bytes_per_cycle=4.0)

        # Timeshare the destination: between migration quanta the local
        # guest runs too, faulting on its swapped pages mid-migration.
        real_run = dst.run
        local_outcome = [RunOutcome.INSTR_LIMIT]

        def timesharing_run(vm_, **kwargs):
            outcome = real_run(vm_, **kwargs)
            if vm_ is not local and local_outcome[0] is RunOutcome.INSTR_LIMIT:
                local_outcome[0] = real_run(local,
                                            max_guest_instructions=20_000)
            return outcome

        dst.run = timesharing_run
        result = migrator.migrate_and_run(vm)
        dst.run = real_run

        while local_outcome[0] is RunOutcome.INSTR_LIMIT:
            local_outcome[0] = real_run(local, max_guest_instructions=200_000)

        assert result.outcome is RunOutcome.SHUTDOWN
        assert local_outcome[0] is RunOutcome.SHUTDOWN
        assert_correct([result.dest_vm, local], pages=28, passes=2500)

        # Both owners actually claimed faults off the shared chain.
        claims = {
            name: dst.registry.counter(f"core.ept_dispatch.{name}").value
            for name in ("swap_in", "postcopy_fetch")
        }
        assert claims["swap_in"] > 0, claims
        assert claims["postcopy_fetch"] > 0, claims
        # And nothing of the migrant leaked into the chain afterwards.
        assert "postcopy_fetch" not in [n for n, _ in dst._ept_fault_handlers]

    def test_handler_installs_then_restores(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = hv.create_vm(GuestConfig(name="single", memory_bytes=GUEST_MEM,
                                      virt_mode=VirtMode.HW_ASSIST,
                                      mmu_mode=MMUVirtMode.NESTED,
                                      prealloc=False))
        seen = []

        def handler(fault_vm, gfn, access):
            seen.append(gfn)
            fault_vm.guest_mem.map_page(gfn, hv.allocator.alloc())
            return True

        def claims(name):
            return hv.registry.counter(f"core.ept_dispatch.{name}").value

        hv.register_ept_fault_handler(handler, name="single_owner")
        vm.guest_mem.write_u32(7 * PAGE_SIZE, 1)
        assert seen == [7] and claims("single_owner") == 1
        assert hv.unregister_ept_fault_handler(handler)
        vm.guest_mem.write_u32(8 * PAGE_SIZE, 1)
        assert seen == [7] and claims("demand_zero") == 1
        assert vm.guest_mem.is_mapped(8)


class TestMemoryPressureController:
    def _admit(self, hv, controller, n, mmu_mode=MMUVirtMode.NESTED):
        vms = []
        for i in range(n):
            controller.reclaim(ADMIT_FRAMES)
            vm = boot(hv, f"oc{i}", mmu_mode=mmu_mode)
            controller.manage(vm)
            vms.append(vm)
        return vms

    def test_overcommitted_admission_without_swap(
            self, mmu_mode=MMUVirtMode.NESTED):
        """Three 16 MiB guests on a 36 MiB host: balloon + sharing must
        make room with zero last-resort swap-ins, and every guest stays
        bit-correct."""
        hv = Hypervisor(memory_bytes=36 * MIB)
        controller = MemoryPressureController(hv)
        vms = self._admit(hv, controller, 3, mmu_mode)
        outcomes = run_all(hv, vms, controller)
        assert all(o is RunOutcome.SHUTDOWN for o in outcomes.values())
        assert_correct(vms)
        assert controller.swap.swap_ins == 0
        merged = sum(r.pages_merged for r in controller.tick_log)
        ballooned = sum(sum(r.inflated.values())
                        for r in controller.tick_log)
        assert merged > 0
        assert ballooned > 0

    def test_shadow_paged_guests_are_ballooned_too(self):
        # A ballooned page refaults through the EPT-fault chain under
        # shadow paging as well: the demand-zero tail rebuilds it.
        self.test_overcommitted_admission_without_swap(MMUVirtMode.SHADOW)

    def test_targets_converge_under_static_wss(self):
        hv = Hypervisor(memory_bytes=36 * MIB)
        controller = MemoryPressureController(hv)
        vms = self._admit(hv, controller, 3)
        run_all(hv, vms, controller)
        # Guests are done: WSS is static, so targets must stabilize
        # and the hysteresis band must stop all balloon traffic.
        for _ in range(4):
            controller.tick()
        last, prev = controller.tick_log[-1], controller.tick_log[-2]
        assert last.targets == prev.targets
        assert last.inflated == {}
        assert last.swap_evictions == 0

    def test_fault_sites_fire_and_replay_deterministically(self):
        def plan():
            return FaultPlan(seed=77, specs=[
                FaultSpec("overcommit.scan_stall", rate=1.0, after=0,
                          count=1),
                FaultSpec("overcommit.balloon_refuse", rate=1.0, after=0,
                          count=1),
            ])

        def one_run(injector):
            hv = Hypervisor(memory_bytes=36 * MIB)
            hv.injector = injector
            controller = MemoryPressureController(hv)
            vms = self._admit(hv, controller, 3)
            run_all(hv, vms, controller)
            assert_correct(vms)
            return controller.serialized_log()

        inj = FaultInjector(plan())
        log = one_run(inj)
        assert sum(r["scan_stalled"] for r in log) == 1
        assert sum(r["balloon_refusals"] for r in log) == 1

        replay_inj = FaultInjector(plan())
        assert one_run(replay_inj) == log
        assert inj.trace_bytes() == replay_inj.trace_bytes()

    def test_manage_rejects_duplicates(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        controller = MemoryPressureController(hv)
        vm = boot(hv, "dup")
        controller.manage(vm)
        with pytest.raises(ConfigError):
            controller.manage(vm)
