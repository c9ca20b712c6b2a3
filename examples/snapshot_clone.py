#!/usr/bin/env python3
"""Snapshot a running VM, serialize it, and clone it twice.

Pauses a guest mid-computation, captures a snapshot, round-trips it
through the binary codec, and restores it twice: once on the original
host and once on a second hypervisor. All three instances -- original
and both clones -- finish independently with the same correct result.

A snapshot carries the configuration, the machine-state tree
(``repro.core.snapshot.capture_state``: vCPU registers and CSRs,
pending interrupts, the PIC, and whatever each attached device
declares as its state -- console text and unread input, timer, disk
images and request registers, NIC registers and queued frames, virtio
ring addresses and positions) and the non-zero guest pages; zero pages
and untouched disks are elided.

Run:  python examples/snapshot_clone.py
"""

from repro.core import (
    GuestConfig,
    Hypervisor,
    MMUVirtMode,
    VirtMode,
    VMSnapshot,
    restore_vm,
    snapshot_vm,
)
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.util.units import MIB

PAGES, PASSES = 24, 2500


def main() -> None:
    host_a = Hypervisor(memory_bytes=96 * MIB)
    host_b = Hypervisor(memory_bytes=64 * MIB)

    vm = host_a.create_vm(
        GuestConfig(name="original", memory_bytes=16 * MIB,
                    virt_mode=VirtMode.HW_ASSIST,
                    mmu_mode=MMUVirtMode.NESTED)
    )
    kernel = build_kernel(KernelOptions(memory_bytes=16 * MIB))
    host_a.load_program(vm, kernel)
    host_a.load_program(vm, workloads.memtouch(PAGES, PASSES))
    host_a.reset_vcpu(vm, kernel.entry)
    host_a.run(vm, max_guest_instructions=150_000)
    print(f"paused 'original' mid-run at pc={vm.vcpus[0].cpu.pc:#x}")

    snap = snapshot_vm(vm)
    blob = snap.to_bytes()
    print(f"snapshot: {len(blob):,} bytes "
          f"({len(snap.pages)} non-zero pages of {len(snap.mapped_gfns)})")

    decoded = VMSnapshot.from_bytes(blob)
    clone_local = restore_vm(host_a, decoded, name="clone-local")
    clone_remote = restore_vm(host_b, decoded, name="clone-remote")

    expected = expected_memtouch(PAGES, PASSES)
    for host, instance in ((host_a, vm), (host_a, clone_local),
                           (host_b, clone_remote)):
        outcome = host.run(instance, max_guest_instructions=80_000_000)
        diag = read_diag(instance.guest_mem)
        print(f"{instance.name:12s}: outcome={outcome.value} "
              f"result={diag.user_result} "
              f"correct={diag.user_result == expected}")


if __name__ == "__main__":
    main()
