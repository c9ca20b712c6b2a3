"""Management operations are transparent to the guest.

A guest paused at an arbitrary retire edge and moved -- through a
snapshot blob onto a second hypervisor, by pre-copy, by post-copy --
must reach what the uninterrupted run reaches: outcome, checksum,
console text, disk contents, frames on the wire and retired
instructions. Cycles are deliberately not compared: translation state
does not travel (``VCPU.rebuild_translation``), so a resumed guest pays
cold TLB / G-stage refills the uninterrupted one did not.
"""

import functools

import pytest

from repro.bench.common import MODE_MATRIX
from repro.core import (
    GuestConfig,
    Hypervisor,
    VMSnapshot,
    restore_vm,
    snapshot_vm,
)
from repro.core.hypervisor import RunOutcome
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.migration import LiveMigrator, PostCopyMigrator
from repro.util.units import MIB

GUEST_MEM = 16 * MIB  # the least NanoOS boots in
HOST_MEM = 20 * MIB  # one such guest and its tables
BUDGET = 1_000_000

#: name -> (program, checksum, instret of the uninterrupted hw-nested run);
#: between them they use every virtio ring, both emulated devices'
#: registers, the console and the syscall path.
PROGRAMS = {
    "vblk_write": (lambda: workloads.vblk_write(8), 0x20, 6345),
    "blk_write": (lambda: workloads.blk_write(8), 0x8, 4793),
    "vnet_send": (workloads.vnet_send, 0x80, 8232),
    "net_send": (workloads.net_send, 0x40, 8440),
    "hello": (workloads.hello, 0x2A, 3981),
    "syscall_storm": (lambda: workloads.syscall_storm(200), 0xC8, 13832),
}
ROWS = {label: (vmode, mmode, pv)
        for label, vmode, mmode, pv in MODE_MATRIX if vmode is not None}
HW_NESTED = "hw+nested"
CUTS = {"1/4": 1, "1/2": 2, "3/4": 3}

#: (program, engine row, cut, path). Every program at every cut through
#: a blob and through pre-copy on hw-nested; through a blob at one cut
#: on the other five rows; post-copy for the two programs that do no
#: device DMA -- a device model reads guest memory through
#: GuestMemory.gpa_to_hpa, which raises for a page that has not arrived
#: yet instead of fetching it (ROADMAP, "Known and open").
CASES = [(program, HW_NESTED, cut, path)
         for program in PROGRAMS for cut in CUTS
         for path in ("blob", "precopy")]
CASES += [(program, row, "1/2", "blob")
          for program in PROGRAMS for row in ROWS if row != HW_NESTED]
CASES += [(program, HW_NESTED, cut, "postcopy")
          for program in ("hello", "syscall_storm") for cut in CUTS]


@functools.lru_cache(maxsize=None)
def kernel(pv):
    return build_kernel(KernelOptions(pv=pv, memory_bytes=GUEST_MEM))


def boot(program, row):
    vmode, mmode, pv = ROWS[row]
    hv = Hypervisor(memory_bytes=HOST_MEM)
    vm = hv.create_vm(GuestConfig(name="guest", memory_bytes=GUEST_MEM,
                                  virt_mode=vmode, mmu_mode=mmode))
    hv.load_program(vm, kernel(pv))
    hv.load_program(vm, PROGRAMS[program][0]())
    hv.reset_vcpu(vm, kernel(pv).entry)
    return hv, vm


def run_to(hv, vm, program, cut):
    """Pause at a fraction of the program's (hw-nested) length."""
    at = PROGRAMS[program][2] * CUTS[cut] // 4
    assert hv.run(vm, max_guest_instructions=(
        at - vm.vcpus[0].cpu.instret)) is RunOutcome.INSTR_LIMIT


def wire(vm):
    return (list(vm.devices["net"].sent), list(vm.devices["virtio_net"].sent))


def observed(vm, outcome, sent_before=([], [])):
    """What the guest and the outside world can see of a finished run."""
    net, vnet = wire(vm)
    return {
        "outcome": outcome,
        "result": read_diag(vm.guest_mem).user_result,
        "console": vm.devices["console"].text,
        "disk": vm.devices["block"].read_sectors(0, 64),
        "vdisk": vm.devices["virtio_blk"].read_sectors(0, 64),
        "frames": (sent_before[0] + net, sent_before[1] + vnet),
        "instret": vm.vcpus[0].cpu.instret,
    }


@functools.lru_cache(maxsize=None)
def uninterrupted(program, row):
    """The reference run, and a blob of it at each cut the table uses.

    Reading a paused VM does not disturb it (the pinned checksums and
    instret below would show), so one boot serves as the reference and
    as the source of every blob case of its row.
    """
    hv, vm = boot(program, row)
    blobs = {}
    for cut in (CUTS if row == HW_NESTED else ("1/2",)):
        run_to(hv, vm, program, cut)
        blobs[cut] = (snapshot_vm(vm).to_bytes(), wire(vm))
    return observed(vm, hv.run(vm, max_guest_instructions=BUDGET)), blobs


def test_uninterrupted_runs_are_the_pinned_ones():
    for program, (_build, checksum, instret) in PROGRAMS.items():
        seen, _blobs = uninterrupted(program, HW_NESTED)
        assert seen["outcome"] is RunOutcome.SHUTDOWN
        assert (program, seen["result"], seen["instret"]) == (
            program, checksum, instret)


@pytest.mark.parametrize("program,row,cut,path", CASES)
def test_moved_guest_finishes_like_the_uninterrupted_one(program, row, cut,
                                                         path):
    expected, blobs = uninterrupted(program, row)
    dst = Hypervisor(memory_bytes=HOST_MEM)
    if path == "blob":
        blob, sent = blobs[cut]
        moved = restore_vm(dst, VMSnapshot.from_bytes(blob))
        outcome = dst.run(moved, max_guest_instructions=BUDGET)
    else:
        src, vm = boot(program, row)
        run_to(src, vm, program, cut)
        if path == "precopy":
            # Two short quanta on the source between rounds, so device
            # DMA is dirty-logged too; the guest is far from done.
            result = LiveMigrator(src, dst).migrate(
                vm, quantum_instructions=40, max_rounds=3, threshold_pages=0)
            assert result.source_outcome is RunOutcome.INSTR_LIMIT
            assert result.guest_instructions_during == 80
            outcome = dst.run(result.dest_vm, max_guest_instructions=BUDGET)
        else:
            result = PostCopyMigrator(src, dst).migrate_and_run(
                vm, max_guest_instructions=BUDGET)
            outcome = result.outcome
        moved, sent = result.dest_vm, wire(vm)
    assert observed(moved, outcome, sent) == expected
