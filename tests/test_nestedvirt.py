"""Hypervisor-under-hypervisor: inner software VMMs in an H-mode guest.

The differential contract: an L2 guest managed by an inner hypervisor
whose "physical" memory is an H-mode L1 guest's RAM must be
indistinguishable -- on every piece of guest-visible state -- from the
same L2 configuration run on a plain host hypervisor. H-mode hosting
changes *where* the inner VMM's bytes live, never what its software
shadow/nested paths compute.
"""

import pytest

from repro.core import (
    GuestConfig,
    Hypervisor,
    MMUVirtMode,
    VirtMode,
    build_nested_host,
    create_l2_vm,
    guest_ram_window,
)
from repro.guest import KernelOptions, boot_vm, build_kernel, workloads
from repro.util.errors import ConfigError, MemoryError_
from repro.util.units import MIB, PAGE_SHIFT

L2_MEMORY = 16 * MIB
MAX_INSTRUCTIONS = 30_000_000

INNER_PATHS = [
    ("hw-shadow", VirtMode.HW_ASSIST, MMUVirtMode.SHADOW),
    ("hw-nested", VirtMode.HW_ASSIST, MMUVirtMode.NESTED),
]


def _boot_l2(hv, vm, workload):
    kernel = build_kernel(KernelOptions(pv=False, memory_bytes=L2_MEMORY))
    return boot_vm(hv, vm, kernel, workload, MAX_INSTRUCTIONS)


def _guest_visible(vm, diag):
    """Everything an L2 guest could observe about its own execution."""
    cpu = vm.vcpus[0].cpu
    return {
        "regs": list(cpu.regs),
        "pc": cpu.pc,
        "csr": list(cpu.csr),
        "instret": cpu.instret,
        "cycles": cpu.cycles,
        "halted": vm.vcpus[0].halted,
        "console": vm.device("console").text,
        "diag": diag,
        "memory": vm.guest_mem.read_bytes(0, vm.guest_mem.size),
    }


def test_l1_ram_window_is_contiguous():
    host = build_nested_host()
    base, size = host.window
    assert base % (1 << PAGE_SHIFT) == 0
    assert size == host.l1_vm.guest_mem.num_pages << PAGE_SHIFT
    assert host.inner.physmem.size == size
    # The window really is the L1 guest's backing, frame by frame.
    for gfn in (0, 1, host.l1_vm.guest_mem.num_pages - 1):
        hfn = host.l1_vm.guest_mem.map[gfn]
        assert hfn == (base >> PAGE_SHIFT) + gfn


def test_inner_memory_is_the_l1_guests_bytes_both_ways():
    """Every accessor of the inner view -- scalar, bulk, fingerprint --
    reads what was written through the backing after the view was
    built, and the backing reads what was written through the view."""
    host = build_nested_host()
    outer, inner = host.outer.physmem, host.inner.physmem
    base, _size = host.window
    page = bytes(range(256)) * 16
    outer.write_bytes(base + 0x3000, page)
    outer.write_u32(base + 0x5008, 0xDEADBEEF)
    assert inner.read_bytes(0x3000, len(page)) == page
    assert inner.read_frame(3) == page
    assert inner.read_u32(0x5008) == 0xDEADBEEF
    assert inner.frame_fingerprint(3) == outer.frame_fingerprint(
        (base >> PAGE_SHIFT) + 3)
    inner.write_bytes(0x7000, page[::-1])
    inner.zero_frame(3)
    assert outer.read_bytes(base + 0x7000, len(page)) == page[::-1]
    assert outer.read_frame((base >> PAGE_SHIFT) + 3) == bytes(len(page))


def test_guest_ram_window_rejects_holes_and_scatter():
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = hv.create_vm(GuestConfig(name="g", memory_bytes=4 * MIB,
                                  virt_mode=VirtMode.HW_ASSIST,
                                  mmu_mode=MMUVirtMode.HMODE))
    # Scatter: swap two frames.
    vm.guest_mem.map[0], vm.guest_mem.map[1] = (
        vm.guest_mem.map[1], vm.guest_mem.map[0])
    with pytest.raises(MemoryError_):
        guest_ram_window(vm)
    vm.guest_mem.map[0], vm.guest_mem.map[1] = (
        vm.guest_mem.map[1], vm.guest_mem.map[0])
    # Hole: unmap a gfn (a ballooned guest has no flat window).
    vm.guest_mem.unmap_page(1)
    with pytest.raises(MemoryError_):
        guest_ram_window(vm)


def test_l2_hmode_rejected():
    host = build_nested_host()
    with pytest.raises(ConfigError):
        create_l2_vm(host, VirtMode.HW_ASSIST, MMUVirtMode.HMODE)


@pytest.mark.parametrize("label,vmode,mmode", INNER_PATHS)
def test_l2_boots_inside_hmode_guest(label, vmode, mmode):
    host = build_nested_host()
    vm = create_l2_vm(host, vmode, mmode, name=f"l2-{label}")
    diag = _boot_l2(host.inner, vm, workloads.memtouch())
    assert diag.clean
    assert diag.user_result == workloads.expected_memtouch()
    # The L2 state is physically inside the L1 guest: the kernel image,
    # located through the inner VMM's own gPA map, reads back identical
    # through the OUTER guest's guest-physical space.
    kernel = build_kernel(KernelOptions(pv=False, memory_bytes=L2_MEMORY))
    hpa = vm.guest_mem.gpa_to_hpa(kernel.base)
    image = host.inner.physmem.read_bytes(hpa, 4096)
    assert any(image)
    assert host.l1_vm.guest_mem.read_bytes(hpa, 4096) == image


@pytest.mark.parametrize("label,vmode,mmode", INNER_PATHS)
def test_l2_differential_vs_plain_host(label, vmode, mmode):
    # Inside the H-mode guest.
    host = build_nested_host()
    nested_vm = create_l2_vm(host, vmode, mmode, name="l2")
    nested_diag = _boot_l2(host.inner, nested_vm, workloads.memtouch())

    # The same configuration on a plain host hypervisor.
    plain_hv = Hypervisor(memory_bytes=24 * MIB)
    plain_vm = plain_hv.create_vm(
        GuestConfig(name="l2", memory_bytes=L2_MEMORY,
                    virt_mode=vmode, mmu_mode=mmode)
    )
    plain_diag = _boot_l2(plain_hv, plain_vm, workloads.memtouch())

    nested_state = _guest_visible(nested_vm, nested_diag)
    plain_state = _guest_visible(plain_vm, plain_diag)
    assert nested_state.keys() == plain_state.keys()
    for key in nested_state:
        assert nested_state[key] == plain_state[key], key
