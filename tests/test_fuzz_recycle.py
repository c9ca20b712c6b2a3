"""A recycled machine is indistinguishable from a fresh one.

``fuzz.diff.run_vmm`` runs every case of a config on one long-lived
host, recycling its VM between cases (``Hypervisor.recycle_vm``: the
guest's frames and G-stage stay, everything above them is rebuilt).
These tests hold the pooled machine to a host and VM built for the
occasion -- same guest-visible result, same simulated counts -- and
hold ``recycle_vm`` to its refusals.
"""

import pytest

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.core.snapshot import VMSnapshot, capture_state, restore_vm, snapshot_vm
from repro.cpu.assembler import Assembler
from repro.devices.block import SECTOR_SIZE
from repro.devices.bus import capture_fields
from repro.fuzz import diff, gen
from repro.fuzz.bugs import apply_bug
from repro.guest import workloads
from repro.guest.layout import GuestLayout
from repro.overcommit import PageSharer
from repro.util.errors import ConfigError
from repro.util.units import MIB, PAGE_SIZE

CONFIGS = [name for name, _v, _m in diff.VMM_CONFIGS]


def _case(seed, index, fault_rate):
    """Image and run keywords of one generated case, seeds derived as
    ``run_case_spec`` derives them."""
    segments = gen.build_image(gen.generate_case(seed, index))
    fault_seed = seed ^ (index * 2654435761)
    return segments, dict(
        max_instructions=diff.DEFAULT_MAX_INSTRUCTIONS,
        fault_rate=fault_rate, fault_seed=fault_seed,
        event_seed=fault_seed ^ 0x9E3779B9,
    )


def _run(machine, segments, common):
    """Run a case on ``machine``; everything simulated it left behind."""
    hv, vm = machine
    power_on = capture_state(vm)
    result = diff.run_on(hv, vm, segments, **common)
    cpu = vm.vcpus[0].cpu
    return {
        "power_on": power_on,
        "result": result,  # the full memory image included
        "cycles": cpu.cycles,
        "tlb": dict(vars(cpu.mmu.tlb.stats)),
        "exits": dict(vm.exit_stats.counts),
        "registry": hv.registry.values("vm.fuzz."),
        "frames": hv.allocator.free_frames,
    }


def _assert_pooled_equals_fresh(config, segments, common, what):
    pooled = _run(diff.pooled_machine(config), segments, common)
    fresh = _run(diff.build_machine(config), segments, common)
    for key in fresh:
        assert pooled[key] == fresh[key], f"{what}: {key}"


# -- pooled vs fresh --------------------------------------------------------


@pytest.mark.parametrize("fault_rate", [0.0, 0.05])
@pytest.mark.parametrize("config", CONFIGS)
def test_recycled_equals_fresh(config, fault_rate):
    for seed in (1, 17, 23):
        for index in range(40):
            segments, common = _case(seed, index, fault_rate)
            _assert_pooled_equals_fresh(
                config, segments, common,
                f"{config} seed {seed} case {index} rate {fault_rate}")


@pytest.mark.parametrize("config", CONFIGS)
def test_a_hang_does_not_poison_the_next_case(config):
    segments, common = _case(1, 15, 0.0)
    with apply_bug("pr5-vector-loop"):
        hung = diff.run_vmm(segments, config, **common)
    assert hung["outcome"] == "hang"
    for index in (16, 17):
        segments, common = _case(1, index, 0.05)
        _assert_pooled_equals_fresh(config, segments, common,
                                    f"{config} after a hang, case {index}")


@pytest.mark.parametrize("config", CONFIGS)
def test_an_abort_does_not_poison_the_next_case(config):
    segments, common = _case(1, 10, 0.05)
    assert diff.run_vmm(segments, config, **common)["outcome"] == "abort"
    for index in (11, 12):
        segments, common = _case(1, index, 0.05)
        _assert_pooled_equals_fresh(config, segments, common,
                                    f"{config} after an abort, case {index}")


@pytest.mark.parametrize("config", CONFIGS)
def test_a_fault_plan_does_not_outlive_its_case(config):
    # hv.injector is the host's, not the VM's: recycling cannot reset
    # it, run_on assigns it on every case. A leaked plan would keep
    # firing hmode.gstage_stall (cycles) at rate 0.
    segments, common = _case(17, 3, 0.05)
    diff.run_vmm(segments, config, **common)
    segments, common = _case(17, 4, 0.0)
    _assert_pooled_equals_fresh(config, segments, common,
                                f"{config} rate 0 after rate 0.05")
    assert diff._HOSTS[config].injector is None


@pytest.mark.parametrize("config", CONFIGS)
def test_same_case_twice_on_the_pool(config):
    # What the benchmark's traced run checks per op.
    segments, common = _case(23, 5, 0.05)
    first = _run(diff.pooled_machine(config), segments, common)
    again = _run(diff.pooled_machine(config), segments, common)
    assert first == again


@pytest.mark.parametrize("config", CONFIGS)
def test_recycling_leaks_no_write_watcher(config):
    # A watcher left behind is walked by every later store: a slow leak
    # no simulated number shows. The core's (its translated blocks'
    # too, under bt-shadow) and the guest memory's write log.
    segments, common = _case(1, 0, 0.0)
    counts = []
    for runs in (1, 50):
        for _ in range(runs):
            hv, vm = diff.pooled_machine(config)
            diff.run_on(hv, vm, segments, **common)
        counts.append(len(hv.physmem._watchers))
    assert counts[0] == counts[1] == 2


@pytest.mark.parametrize("jit", [False, True])
def test_the_bare_pool_leaks_no_write_watcher(jit):
    # A dead core's watcher comes off at the recycle; the log stays.
    segments, common = _case(1, 0, 0.0)
    counts = []
    for runs in (1, 50):
        for _ in range(runs):
            diff.run_bare(segments, jit=jit, **common)
        counts.append(len(diff._NATIVE.physmem._watchers))
    assert counts[0] == counts[1] == 2


def test_unknown_config_is_a_value_error():
    with pytest.raises(ValueError) as err:
        diff.run_vmm({}, "hw-shdow")
    assert str(err.value) == (
        "unknown VMM config 'hw-shdow'; known: "
        "['hw-shadow', 'hw-nested', 'hw-hmode', 'bt-shadow']"
    )


# -- recycle_vm itself ------------------------------------------------------

_HALT_WITH_7 = Assembler().assemble(".org 0x1000\n    li a0, 7\n    hlt\n")


def _make(hv, name="vm", mmu_mode=MMUVirtMode.NESTED, **kw):
    return hv.create_vm(GuestConfig(
        name=name, memory_bytes=1 * MIB, virt_mode=VirtMode.HW_ASSIST,
        mmu_mode=mmu_mode, **kw))


def _assert_refused_and_runnable(hv, vm, match):
    with pytest.raises(ConfigError, match=match):
        hv.recycle_vm(vm)
    assert hv.vms[vm.name] is vm
    hv.load_program(vm, _HALT_WITH_7)
    hv.reset_vcpu(vm, 0x1000)
    hv.run(vm, max_guest_instructions=100)
    assert vm.vcpus[0].cpu.regs[1] == 7


class TestRecycleVM:
    @pytest.mark.parametrize("mmu_mode", list(MMUVirtMode))
    def test_recycled_vm_is_at_power_on(self, mmu_mode):
        hv = Hypervisor(memory_bytes=8 * MIB)
        vm = _make(hv, mmu_mode=mmu_mode)
        power_on, frames = capture_state(vm), hv.allocator.free_frames
        hv.load_program(vm, _HALT_WITH_7)
        hv.reset_vcpu(vm, 0x1000)
        hv.run(vm, max_guest_instructions=100)
        new = hv.recycle_vm(vm)
        assert new is not vm and hv.vms["vm"] is new
        assert new.guest_mem is vm.guest_mem
        assert new.guest_mem.read_bytes(0, 1 * MIB) == bytes(1 * MIB)
        assert capture_state(new) == power_on
        assert hv.allocator.free_frames == frames
        assert hv.registry.values().get("vm.vm.instructions", 0) == 0

    def test_refuses_a_stale_handle(self):
        # recycle_vm returns the VM's successor; the old handle names
        # frames that are now someone else's.
        hv = Hypervisor(memory_bytes=8 * MIB)
        old = _make(hv)
        new = hv.recycle_vm(old)
        hv.load_program(new, _HALT_WITH_7)
        with pytest.raises(ConfigError, match="no longer"):
            hv.recycle_vm(old)
        assert hv.vms["vm"] is new
        assert new.guest_mem.read_bytes(0x1000, 8) == _HALT_WITH_7.data[:8]

    def test_refuses_when_sharing_is_installed(self):
        hv = Hypervisor(memory_bytes=8 * MIB)
        a, b = _make(hv, "a"), _make(hv, "b")
        for vm in (a, b):
            vm.guest_mem.write_bytes(5 * PAGE_SIZE, b"same" * 1024)
        b.guest_mem.write_bytes(9 * PAGE_SIZE, b"only b")
        assert PageSharer(hv).scan().pages_merged > 0
        before = b.guest_mem.read_bytes(0, 1 * MIB)
        # Loads a program into a merged page of a, then runs it.
        _assert_refused_and_runnable(hv, a, "page sharing")
        # Neither the load nor zeroing a's frames reached the VM that
        # shares them.
        assert b.guest_mem.read_bytes(0, 1 * MIB) == before

    def test_refuses_a_vm_being_dirty_logged(self):
        # As LiveMigrator.migrate installs one for the rounds it runs.
        hv = Hypervisor(memory_bytes=8 * MIB)
        vm = _make(hv)
        vm.dirty_log = set()
        _assert_refused_and_runnable(hv, vm, "dirty pages are being logged")

    def test_refuses_a_demand_paged_vm(self):
        hv = Hypervisor(memory_bytes=8 * MIB)
        vm = _make(hv, prealloc=False)
        hfn = hv.allocator.alloc()  # the page the test program loads into
        vm.guest_mem.map_page(1, hfn)
        vm.vcpus[0].cpu.mmu.map_gfns({1: hfn})
        _assert_refused_and_runnable(hv, vm, "demand-paged")

    @pytest.mark.parametrize("mmu_mode", list(MMUVirtMode))
    def test_refuses_a_ballooned_vm(self, mmu_mode):
        hv = Hypervisor(memory_bytes=8 * MIB)
        vm = _make(hv, mmu_mode=mmu_mode)
        assert hv.balloon_give(vm, 40)
        _assert_refused_and_runnable(hv, vm, "only 255 of its 256 pages")

    def test_refuses_a_partly_unmapped_vm(self):
        hv = Hypervisor(memory_bytes=8 * MIB)
        vm = _make(hv, mmu_mode=MMUVirtMode.SHADOW)
        hv.allocator.free(vm.guest_mem.unmap_page(200))
        _assert_refused_and_runnable(hv, vm, "only 255 of its 256 pages")

    def test_refuses_a_g_stage_the_host_has_edited(self):
        # Give and take back: every page is backed again, but gfn 40
        # may sit in another frame than the as-built G-stage says.
        hv = Hypervisor(memory_bytes=8 * MIB)
        vm = _make(hv)
        assert hv.balloon_give(vm, 40) and hv.balloon_take(vm, 40)
        _assert_refused_and_runnable(hv, vm, "edited its G-stage")

    def test_g_stage_comes_back_as_built(self):
        # hw-hmode's walker sets accessed / dirty bits in the G-stage.
        hv = Hypervisor(memory_bytes=8 * MIB)
        vm = _make(hv, mmu_mode=MMUVirtMode.HMODE)
        ept = vm.vcpus[0].cpu.mmu.ept
        as_built = [hv.physmem.read_frame(pfn) for pfn in ept._table_frames]
        hv.load_program(vm, _HALT_WITH_7)
        hv.reset_vcpu(vm, 0x1000)
        hv.run(vm, max_guest_instructions=100)
        assert [hv.physmem.read_frame(p) for p in ept._table_frames] != as_built
        new = hv.recycle_vm(vm)
        assert new.vcpus[0].cpu.mmu.ept is ept
        assert [hv.physmem.read_frame(p) for p in ept._table_frames] == as_built


# -- a recycled disk ---------------------------------------------------------
#
# Differential fuzzing cannot see a disk image leaking from one case into
# the next: every VMM row would leak the same bytes. Each way of writing
# a disk is held to a fresh VM here instead.

_DISKS = {"virtio_blk": lambda: workloads.vblk_write(2, 4),
          "block": lambda: workloads.blk_write(8)}


def _by_dma(hv, vm, device, kernel):
    hv.load_program(vm, kernel)
    hv.load_program(vm, _DISKS[device]())
    # What the guest kernel's disk requests write out (guest RAM).
    buffers = GuestLayout.DMA_END - GuestLayout.DMA_BUF
    vm.guest_mem.write_bytes(GuestLayout.DMA_BUF, b"\x5a" * buffers)
    hv.reset_vcpu(vm, kernel.entry)
    assert hv.run(vm, max_guest_instructions=500_000) is RunOutcome.SHUTDOWN
    return vm


def _by_load_image(hv, vm, device, _kernel):
    start = 7 * SECTOR_SIZE  # the host loads an image: a slice write
    vm.devices[device].data[start:start + 3000] = b"\xa5" * 3000
    return vm


def _by_restore(hv, vm, device, kernel):
    written = _by_load_image(hv, vm, device, kernel)
    blob = snapshot_vm(written).to_bytes()
    hv.destroy_vm(written)
    return restore_vm(hv, VMSnapshot.from_bytes(blob))


@pytest.mark.parametrize("device", list(_DISKS))
@pytest.mark.parametrize("write", [_by_dma, _by_load_image, _by_restore],
                         ids=["dma", "load_image", "restore"])
def test_a_recycled_disk_reads_zeros(write, device, hvm_kernel):
    """Written by a guest's DMA request, by the host loading an image or by
    restoring a snapshot that carries it, a disk is zero once its VM is
    recycled: ``capture_fields`` elides it, and the VM's snapshot blob
    is a fresh VM's. The recycled device keeps the image it had."""
    config = GuestConfig(name="vm", memory_bytes=16 * MIB,
                         virt_mode=VirtMode.HW_ASSIST, mmu_mode=MMUVirtMode.NESTED)
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = write(hv, hv.create_vm(config), device, hvm_kernel)
    image = vm.devices[device].data
    assert bytes(image) != bytes(len(image))
    new = hv.recycle_vm(vm)
    assert new.devices[device].data is image
    assert bytes(image) == bytes(len(image))
    assert capture_fields(new.devices[device])["data"] == b""
    fresh = Hypervisor(memory_bytes=64 * MIB).create_vm(config)
    assert snapshot_vm(new).to_bytes() == snapshot_vm(fresh).to_bytes()
