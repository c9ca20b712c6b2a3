"""VM snapshot/restore and the binary codec."""

import copy
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    GuestConfig,
    Hypervisor,
    MMUVirtMode,
    VirtMode,
    VMSnapshot,
    restore_vm,
    snapshot_vm,
)
from repro.core.hypervisor import HypercallNumbers, RunOutcome
from repro.core.snapshot import apply_state, capture_state
from repro.devices.block import BLK_CMD, SECTOR_SIZE
from repro.devices.bus import PortDevice
from repro.devices.console import CONS_STATUS, CONS_TX
from repro.devices.net import NET_RX_ADDR, NET_RX_CMD, NET_TX_CMD
from repro.devices.timer import MODE_PERIODIC, TIMER_CTRL
from repro.devices.virtio import OFF_KICK, VIRTIO_BLK_BASE, VIRTIO_NET_BASE
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.util.errors import ConfigError, DeviceError
from repro.util.units import MIB
from tests.conftest import inject_rx

GUEST_MEM = 16 * MIB


def running_vm(hv, name="snap", virt_mode=VirtMode.HW_ASSIST,
               mmu_mode=MMUVirtMode.NESTED, pages=20, passes=1500,
               warmup=120_000):
    vm = hv.create_vm(GuestConfig(name=name, memory_bytes=GUEST_MEM,
                                  virt_mode=virt_mode, mmu_mode=mmu_mode))
    kernel = build_kernel(KernelOptions(
        pv=virt_mode is VirtMode.PARAVIRT, memory_bytes=GUEST_MEM))
    hv.load_program(vm, kernel)
    hv.load_program(vm, workloads.memtouch(pages, passes))
    hv.reset_vcpu(vm, kernel.entry)
    hv.run(vm, max_guest_instructions=warmup)
    return vm


class TestRoundtrip:
    def test_codec_roundtrip_is_identity(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = running_vm(hv)
        snap = snapshot_vm(vm)
        decoded = VMSnapshot.from_bytes(snap.to_bytes())
        cpu, timer = decoded.state["cpu"], decoded.state["devices"]["timer"]
        assert cpu["pc"] == vm.vcpus[0].cpu.pc
        assert cpu["regs"] == vm.vcpus[0].cpu.regs
        assert cpu["csr"] == vm.vcpus[0].cpu.csr
        assert decoded.state["vcpu"]["vcsr"] == vm.vcpus[0].vcsr
        assert decoded.pages == snap.pages
        assert decoded.mapped_gfns == snap.mapped_gfns
        assert (decoded.state["devices"]["console"]["text"]
                == vm.devices["console"].text)
        assert timer == snap.state["devices"]["timer"]
        assert timer["period"] == vm.devices["timer"].period
        assert decoded.config.virt_mode == snap.config.virt_mode
        assert decoded == snap
        # re-encoding is stable
        assert decoded.to_bytes() == snap.to_bytes()

    def test_zero_pages_elided(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = running_vm(hv)
        snap = snapshot_vm(vm)
        assert len(snap.pages) < 200  # of 4096 mapped
        assert len(snap.mapped_gfns) == vm.num_pages

    def test_blob_is_compact(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = running_vm(hv)
        blob = snapshot_vm(vm).to_bytes()
        assert len(blob) < 1 * MIB  # vs 16 MiB of guest RAM + 2 MiB disks


class TestRestore:
    @pytest.mark.parametrize("vmode,mmode", [
        (VirtMode.HW_ASSIST, MMUVirtMode.NESTED),
        (VirtMode.HW_ASSIST, MMUVirtMode.SHADOW),
        (VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW),
    ])
    def test_restored_vm_finishes_correctly(self, vmode, mmode):
        hv = Hypervisor(memory_bytes=96 * MIB)
        vm = running_vm(hv, virt_mode=vmode, mmu_mode=mmode)
        snap = snapshot_vm(vm)
        clone = restore_vm(hv, snap, name="clone")
        outcome = hv.run(clone, max_guest_instructions=60_000_000)
        diag = read_diag(clone.guest_mem)
        assert outcome is RunOutcome.SHUTDOWN
        assert diag.user_result == expected_memtouch(20, 1500)

    def test_clone_and_original_diverge_independently(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        vm = running_vm(hv)
        snap = snapshot_vm(vm)
        clone = restore_vm(hv, snap, name="clone")
        clone.guest_mem.write_u32(0x9000 + 64, 0xDEAD)  # scribble on clone
        assert vm.guest_mem.read_u32(0x9000 + 64) != 0xDEAD

    def test_restore_on_different_hypervisor(self):
        hv1 = Hypervisor(memory_bytes=64 * MIB)
        hv2 = Hypervisor(memory_bytes=64 * MIB)
        vm = running_vm(hv1)
        clone = restore_vm(hv2, snapshot_vm(vm))
        outcome = hv2.run(clone, max_guest_instructions=60_000_000)
        assert outcome is RunOutcome.SHUTDOWN

    def test_console_history_preserved(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        vm = running_vm(hv)
        clone = restore_vm(hv, snapshot_vm(vm), name="c2")
        assert clone.devices["console"].text == vm.devices["console"].text

    def test_ballooned_pages_stay_unmapped(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        vm = hv.create_vm(GuestConfig(name="b", memory_bytes=GUEST_MEM,
                                      virt_mode=VirtMode.HW_ASSIST,
                                      mmu_mode=MMUVirtMode.NESTED))
        from repro.cpu.assembler import Assembler
        prog = Assembler().assemble(f"""
.org 0x1000
    li a0, 3000
    vmcall {int(HypercallNumbers.BALLOON_GIVE)}
    hlt
""")
        hv.load_program(vm, prog)
        hv.reset_vcpu(vm, 0x1000)
        hv.run(vm, max_guest_instructions=100)
        snap = snapshot_vm(vm)
        clone = restore_vm(hv, snap, name="bc")
        assert not clone.guest_mem.is_mapped(3000)
        assert 3000 in clone.ballooned_gfns


class TestDroppedState:
    """State the v1 snapshot lost on the way through restore_vm."""

    def test_pending_console_input_survives(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        vm = running_vm(hv)
        vm.devices["console"].push_input(0x41)
        blob = snapshot_vm(vm).to_bytes()
        console = restore_vm(hv, VMSnapshot.from_bytes(blob),
                             name="c").devices["console"]
        assert console.port_read(CONS_STATUS) & 2
        assert console.port_read(CONS_TX) == 0x41
        assert console.chars_written == vm.devices["console"].chars_written

    def test_pause_right_after_the_timer_is_armed(self):
        # The guest's OUT to TIMER_CTRL arms the deadline at once: the
        # core's cycles at the OUT + the period.
        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = hv.create_vm(GuestConfig(name="t", memory_bytes=GUEST_MEM))
        kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEM,
                                            timer_period=5000))
        hv.load_program(vm, kernel)
        hv.load_program(vm, workloads.hello())
        hv.reset_vcpu(vm, kernel.entry)
        cpu = vm.vcpus[0].cpu
        for _ in range(20_000):
            if vm.devices["timer"].deadline is not None:
                break
            hv.run(vm, max_guest_instructions=1)
        assert vm.devices["timer"].deadline == cpu.cycles + 5000
        snap = snapshot_vm(vm)
        decoded = VMSnapshot.from_bytes(snap.to_bytes())
        assert decoded == snap
        hv2 = Hypervisor(memory_bytes=64 * MIB)
        clone = restore_vm(hv2, decoded)
        assert clone.devices["timer"].deadline == cpu.cycles + 5000
        finished = []
        for host, guest in ((hv, vm), (hv2, clone)):
            outcome = host.run(guest, max_guest_instructions=1_000_000)
            finished.append((outcome, read_diag(guest.guest_mem).user_result,
                             guest.devices["console"].text,
                             guest.vcpus[0].cpu.instret))
        assert finished[0][0] is RunOutcome.SHUTDOWN
        assert finished[1] == finished[0]


#: writing these acts instead of storing; everything else is a register
COMMAND_PORTS = {BLK_CMD, NET_TX_CMD, NET_RX_CMD, VIRTIO_BLK_BASE + OFF_KICK,
                 VIRTIO_NET_BASE + OFF_KICK, VIRTIO_NET_BASE + 8 + OFF_KICK}


def claimed_ports(vm):
    for port in range(0x100):
        device = vm.port_bus.ports.get(port)
        if device is not None:
            yield port, device


def programmed_vm(hv):
    """A VM whose every device register holds a value of its own."""
    vm = hv.create_vm(GuestConfig(name="programmed", memory_bytes=GUEST_MEM))
    for port, device in claimed_ports(vm):
        if port in COMMAND_PORTS:
            continue
        try:
            device.port_write(
                port, MODE_PERIODIC if port == TIMER_CTRL else 0x101 + port)
        except DeviceError:
            pass  # a read-only port
    # What no register write reaches: input on the console and the NIC
    # (one unit received, one still queued), expirations, disk
    # contents, and a failed block command's status. (How far a virtio
    # ring has been read shows only by running a guest against it:
    # tests/test_lifecycle_transparency.py.)
    vm.devices["console"].push_input(0x40)
    vm.devices["console"].push_input(0x41)
    assert vm.devices["console"].port_read(CONS_TX) == 0x40
    inject_rx(vm.devices["net"], b"first frame")
    inject_rx(vm.devices["net"], b"second")
    vm.devices["net"].port_write(NET_RX_CMD, 1)
    vm.devices["timer"].tick(vm.devices["timer"].deadline
                             + 2 * vm.devices["timer"].period)
    for name, sector, image in (("block", 3, b"emulated disk"),
                                ("virtio_blk", 5, b"virtio disk")):
        start = sector * SECTOR_SIZE
        vm.devices[name].data[start:start + len(image)] = image
    vm.devices["block"].port_write(BLK_CMD, 99)
    return vm


def visible(vm):
    """Every readable port, plus what only the host side can see."""
    seen = {}
    for port, device in claimed_ports(vm):
        try:
            seen[port] = device.port_read(port)
        except DeviceError:
            pass  # a write-only port
    console = vm.devices["console"]
    seen["console"] = (console.text, console.chars_written,
                       console.chars_received)
    seen["power.code"] = vm.devices["power"].code
    seen["disks"] = (vm.devices["block"].data[:8 * SECTOR_SIZE],
                     vm.devices["virtio_blk"].data[:8 * SECTOR_SIZE])
    return seen


class TestMachineState:
    """The drift guard: what a device holds for the guest is what
    ``capture_state`` carries, for every device a VM can have."""

    def test_every_port_reads_the_same_after_apply(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        vm = programmed_vm(hv)
        fresh = hv.create_vm(GuestConfig(name="fresh", memory_bytes=GUEST_MEM))
        before = visible(fresh)
        tree = capture_state(vm)
        assert set(tree["devices"]) == set(vm.devices) == {
            "console", "timer", "power", "block", "net", "virtio_blk",
            "virtio_net"}
        apply_state(fresh, copy.deepcopy(tree))
        assert capture_state(fresh) == tree
        seen = visible(vm)
        assert visible(fresh) == seen
        # the values really are non-default: a register that did not
        # travel would show here
        changed = {port for port in seen if seen[port] != before[port]}
        assert len(changed) >= 30
        # ... and both keep behaving the same: the timer's mode and
        # deadline and the NIC's receive address show only in what
        # the devices do next.
        rx_addr = 0x101 + NET_RX_ADDR
        for guest in (vm, fresh):
            guest.devices["timer"].tick(1000 + 5 * guest.devices["timer"].period)
            guest.devices["net"].port_write(NET_RX_CMD, 1)
            assert guest.guest_mem.read_bytes(rx_addr, 6) == b"second"
        assert visible(fresh) == visible(vm)

    def test_captured_tree_does_not_alias_the_machine(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        vm = programmed_vm(hv)
        tree = capture_state(vm)
        reference = copy.deepcopy(tree)
        vm.pic.port_write(0x20, 0xFFFF)
        vm.vcpus[0].cpu.regs[3] = 77
        vm.devices["console"].push_input(0x42)
        inject_rx(vm.devices["net"], b"later")
        assert tree == reference

    def test_device_without_a_declaration_is_refused(self):
        class Mute(PortDevice):
            pass

        hv = Hypervisor(memory_bytes=64 * MIB)
        vm = hv.create_vm(GuestConfig(name="m", memory_bytes=GUEST_MEM))
        vm.devices["mute"] = Mute()
        with pytest.raises(DeviceError, match="Mute"):
            capture_state(vm)

    def test_tree_must_fit_the_machine(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        vm = hv.create_vm(GuestConfig(name="a", memory_bytes=GUEST_MEM))
        tree = capture_state(vm)
        bare = hv.create_vm(GuestConfig(name="b", memory_bytes=GUEST_MEM,
                                        with_virtio=False))
        with pytest.raises(ConfigError, match="virtio_blk"):
            apply_state(bare, tree)  # names devices the VM lacks
        with pytest.raises(ConfigError, match="virtio_blk"):
            apply_state(vm, capture_state(bare))  # omits devices it has
        del tree["devices"]["timer"]["mode"]
        with pytest.raises(ConfigError, match="TimerDevice"):
            apply_state(vm, tree)

    def test_failed_restore_leaves_no_vm_behind(self):
        hv = Hypervisor(memory_bytes=96 * MIB)
        snap = snapshot_vm(running_vm(hv))
        snap.state["devices"]["tty"] = snap.state["devices"].pop("console")
        decoded = VMSnapshot.from_bytes(snap.to_bytes())
        free = hv.allocator.free_frames
        with pytest.raises(ConfigError, match="tty"):
            restore_vm(hv, decoded, name="renamed")
        assert "renamed" not in hv.vms
        assert hv.allocator.free_frames == free


plain_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(1 << 200), 1 << 200)
    | st.text(max_size=12) | st.binary(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=24,
)


@pytest.fixture(scope="module")
def small_blob():
    """A real blob small enough to cut at every byte: a fresh 64 KiB
    guest with one word of memory set."""
    hv = Hypervisor(memory_bytes=8 * MIB)
    vm = hv.create_vm(GuestConfig(name="small", memory_bytes=64 * 1024))
    vm.guest_mem.write_u32(0x5000, 0xF00D)
    vm.devices["console"].port_write(CONS_TX, ord("x"))
    return snapshot_vm(vm).to_bytes()


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(tree=plain_values)
    def test_plain_value_trees_roundtrip(self, tree):
        snap = VMSnapshot(config=GuestConfig(name="t"), state=tree)
        decoded = VMSnapshot.from_bytes(snap.to_bytes())
        assert decoded == snap
        assert decoded.to_bytes() == snap.to_bytes()

    @pytest.mark.parametrize("value", [(1, 2), {1, 2}, 1.5, {3: "x"},
                                       bytearray(b"x")])
    def test_non_plain_values_are_refused(self, value):
        snap = VMSnapshot(config=GuestConfig(name="t"), state={"v": value})
        with pytest.raises(ConfigError, match="plain"):
            snap.to_bytes()

    def test_every_cut_and_any_extra_byte_fail_loudly(self, small_blob):
        assert VMSnapshot.from_bytes(small_blob).pages.keys() == {5}
        for cut in range(len(small_blob)):
            with pytest.raises(ConfigError):
                VMSnapshot.from_bytes(small_blob[:cut])
        with pytest.raises(ConfigError, match="trailing"):
            VMSnapshot.from_bytes(small_blob + b"\x00")

    def test_v1_blob_is_unsupported(self, small_blob):
        v1 = small_blob[:4] + struct.pack("<I", 1) + small_blob[8:]
        with pytest.raises(ConfigError, match="unsupported snapshot version 1"):
            VMSnapshot.from_bytes(v1)

    def test_unknown_tag(self, small_blob):
        assert small_blob[8:9] == b"D"  # the configuration's dict tag
        for at in (8, small_blob.index(b"D", 9)):
            damaged = bytearray(small_blob)
            damaged[at] = ord("?")
            with pytest.raises(ConfigError, match="unknown tag"):
                VMSnapshot.from_bytes(bytes(damaged))

    def test_damaged_configuration(self, small_blob):
        damaged = small_blob.replace(b"hw_assist", b"hw_assisT")
        assert damaged != small_blob
        with pytest.raises(ConfigError, match="configuration"):
            VMSnapshot.from_bytes(damaged)
        damaged = small_blob.replace(b"small", b"sm\xff\xfel")
        with pytest.raises(ConfigError, match="malformed string"):
            VMSnapshot.from_bytes(damaged)

    def test_no_general_purpose_deserializer_in_the_blob_path(self):
        import repro.core.snapshot as module
        import repro.devices.bus as bus

        for mod in (module, bus):
            with open(mod.__file__) as handle:
                source = handle.read()
            for banned in ("pickle", "marshal", "eval(", "json"):
                assert banned not in source


class TestCodecErrors:
    def test_bad_magic(self):
        with pytest.raises(ConfigError, match="magic"):
            VMSnapshot.from_bytes(b"XXXX" + b"\x00" * 64)

    def test_truncated(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        blob = snapshot_vm(running_vm(hv)).to_bytes()
        with pytest.raises(ConfigError, match="truncated"):
            VMSnapshot.from_bytes(blob[: len(blob) // 2])

    def test_trailing_garbage(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        blob = snapshot_vm(running_vm(hv)).to_bytes()
        with pytest.raises(ConfigError, match="trailing"):
            VMSnapshot.from_bytes(blob + b"junk")

    def test_bad_version(self):
        hv = Hypervisor(memory_bytes=64 * MIB)
        blob = bytearray(snapshot_vm(running_vm(hv)).to_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(ConfigError, match="version"):
            VMSnapshot.from_bytes(bytes(blob))
