#!/usr/bin/env python3
"""Run more guest memory than the host has, without breaking guests.

Boots two identical VMs mid-workload, then demonstrates the overcommit
toolbox on live state:

1. a KSM-style scan merges byte-identical frames across the VMs
   (copy-on-write protected);
2. host swap evicts cold frames and transparently pages them back on
   the guests' next touch;
3. working-set estimation by access-bit sampling over the guests' own
   page tables;
4. both guests still finish with bit-correct results.

Run:  python examples/memory_overcommit.py
"""

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.guest.workloads import expected_memtouch
from repro.overcommit import HostSwap, PageSharer, estimate_wss
from repro.util.units import MIB

PAGES, PASSES = 24, 4000


def main() -> None:
    hv = Hypervisor(memory_bytes=96 * MIB)
    kernel = build_kernel(KernelOptions(memory_bytes=16 * MIB))
    vms = []
    for i in range(2):
        vm = hv.create_vm(
            GuestConfig(name=f"guest{i}", memory_bytes=16 * MIB,
                        virt_mode=VirtMode.HW_ASSIST,
                        mmu_mode=MMUVirtMode.NESTED)
        )
        hv.load_program(vm, kernel)
        hv.load_program(vm, workloads.memtouch(PAGES, PASSES))
        hv.reset_vcpu(vm, kernel.entry)
        hv.run(vm, max_guest_instructions=120_000)
        vms.append(vm)
    print(f"two 16 MiB guests running; host free frames: "
          f"{hv.allocator.free_frames:,}")

    print("\n-- working-set estimation (access-bit sampling) --")
    samples = estimate_wss(hv, vms[0], sample_instructions=20_000, samples=3)
    print(f"  {vms[0].name}: pages touched per interval: {samples}")

    print("\n-- content-based page sharing --")
    sharer = PageSharer(hv)
    scan = sharer.scan()
    print(f"  scanned {scan.frames_scanned:,} frames, merged "
          f"{scan.pages_merged:,}, freed {scan.bytes_saved // MIB} MiB")
    print(f"  host free frames now: {hv.allocator.free_frames:,}")

    print("\n-- host swap --")
    swap = HostSwap(hv)
    for vm in vms:
        swap.install(vm)
    evicted = swap.evict_some(300)
    print(f"  evicted {evicted} frames to host swap")

    print("\n-- guests keep running correctly --")
    expected = expected_memtouch(PAGES, PASSES)
    for vm in vms:
        outcome = hv.run(vm, max_guest_instructions=80_000_000)
        diag = read_diag(vm.guest_mem)
        print(f"  {vm.name}: outcome={outcome.value} "
              f"result={diag.user_result} correct={diag.user_result == expected}")
    print(f"  COW breaks: {sharer.cow_breaks}, swap-ins: {swap.swap_ins}")


if __name__ == "__main__":
    main()
