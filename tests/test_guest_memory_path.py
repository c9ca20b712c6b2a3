"""One guest-physical access path.

A guest's own access goes through its MMU, and an unbacked or
write-protected gfn lands in the hypervisor's fault routine. Device
DMA, the VMM's emulation (trapped page-table stores, shadow A/D
write-back), shadow real mode and host-side reads take the same routine,
so each of these holds under every engine that can reach it:

* a write into a page two VMs share breaks the share instead of landing
  in the peer (block DMA, an emulated page-table store, a real-mode
  store);
* pre-copy logs every page a real-mode guest dirties;
* a page host swap took away reads back as what was swapped out,
  page tables under shadow paging included.
"""

import pytest

from repro.bench.common import MODE_MATRIX
from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.cpu.assembler import Assembler
from repro.cpu.isa import Reg
from repro.devices.block import BLK_CMD, BLK_COUNT, BLK_DMA, BLK_SECTOR, CMD_READ
from repro.devices.net import NET_RX_ADDR, NET_RX_CMD
from repro.devices.power import POWER_BASE
from repro.guest import KernelOptions, build_kernel, read_diag, workloads
from repro.migration import LiveMigrator
from repro.overcommit import HostSwap, PageSharer
from repro.util.units import MIB, PAGE_SIZE
from tests.conftest import inject_rx

SHADOW_ROWS = {
    "hw-shadow": VirtMode.HW_ASSIST,
    "bin-transl": VirtMode.BINARY_TRANSLATION,
    "trap-emulate": VirtMode.TRAP_EMULATE,
}

#: Where the bare programs below put their data: an all-zero page of
#: every fresh guest, so a scan merges it across VMs.
DATA = 0x80000


def _bare(hv, name, virt_mode, mmu_mode, source, memory=2 * MIB):
    """A guest without NanoOS: ``source`` runs from reset, paging off."""
    vm = hv.create_vm(GuestConfig(name=name, memory_bytes=memory,
                                  virt_mode=virt_mode, mmu_mode=mmu_mode))
    image = Assembler().assemble(".org 0x1000\n" + source)
    hv.load_program(vm, image)
    hv.reset_vcpu(vm, image.entry)
    return vm


def _power_off():
    return f"    li   t0, 1\n    out  {POWER_BASE:#x}, t0\n    hlt\n"


#: Store the pass number into the first word of 64 pages, forever.
STORE_LOOP = f"""
    li   s1, 0
outer:
    add  s1, s1, 1
    li   t0, {DATA:#x}
    li   t1, 64
inner:
    st   [t0+0], s1
    add  t0, t0, 4096
    sub  t1, t1, 1
    bnez t1, inner
    jmp  outer
"""


def test_block_dma_into_a_merged_page_breaks_the_share():
    hv = Hypervisor(memory_bytes=16 * MIB)
    program = f"""
    li   t0, 0
    out  {BLK_SECTOR:#x}, t0
    li   t0, 1
    out  {BLK_COUNT:#x}, t0
    li   t0, {DATA:#x}
    out  {BLK_DMA:#x}, t0
    li   t0, {CMD_READ}
    out  {BLK_CMD:#x}, t0
""" + _power_off()
    a, b = (_bare(hv, name, VirtMode.HW_ASSIST, MMUVirtMode.NESTED, program)
            for name in "ab")
    a.devices["block"].data[0:8] = b"SECRET-A"
    sharer = PageSharer(hv)
    assert sharer.scan().pages_merged > 0
    peer = b.guest_mem.read_bytes(0, b.guest_mem.size)

    assert hv.run(a, max_guest_instructions=1_000) is RunOutcome.SHUTDOWN
    assert a.guest_mem.read_bytes(DATA, 8) == b"SECRET-A"
    assert b.guest_mem.read_bytes(0, b.guest_mem.size) == peer
    assert sharer.cow_breaks == 1
    # Taken by the device model, not by a guest access: charged as the
    # exit it stands in for, recorded as none.
    assert not any("cow_break" in key for key in a.exit_stats.counts)
    assert (a.stats.vmm_cycles
            - sum(a.exit_stats.metrics.values("exit_cycles").values())
            == hv.costs.shadow_fill_cycles)


@pytest.mark.parametrize("row", list(SHADOW_ROWS))
def test_emulated_page_table_store_into_a_merged_frame(row):
    # NanoOS booted twice and merged: the two guests' page tables are
    # byte-identical, so the scan shares them. a's trapped page-table
    # stores are completed by the VMM (emulate_guest_store), and its
    # shadow fills write A/D bits back into the guest's tables.
    hv = Hypervisor(memory_bytes=64 * MIB)
    kernel = build_kernel(KernelOptions(memory_bytes=16 * MIB))
    vms = []
    for name in "ab":
        vm = hv.create_vm(GuestConfig(name=name, memory_bytes=16 * MIB,
                                      virt_mode=SHADOW_ROWS[row],
                                      mmu_mode=MMUVirtMode.SHADOW))
        hv.load_program(vm, kernel)
        hv.load_program(vm, workloads.memtouch(48, 30))
        hv.reset_vcpu(vm, kernel.entry)
        hv.run(vm, max_guest_instructions=6_000)
        vms.append(vm)
    a, b = vms
    sharer = PageSharer(hv)
    assert sharer.scan().pages_merged > 0
    page_tables = sorted(b.vcpus[0].cpu.mmu.pt_gfns)
    assert page_tables and all(sharer.handles(b, g) for g in page_tables)
    peer = b.guest_mem.read_bytes(0, b.guest_mem.size)
    breaks = sharer.cow_breaks

    hv.run(a, max_guest_instructions=200_000)
    assert a.stats.shadow_pt_writes > 0
    assert b.guest_mem.read_bytes(0, b.guest_mem.size) == peer
    assert sharer.cow_breaks > breaks


@pytest.mark.parametrize("row", list(SHADOW_ROWS))
def test_real_mode_store_into_a_merged_page_breaks_the_share(row):
    hv = Hypervisor(memory_bytes=16 * MIB)
    a, b = (_bare(hv, name, SHADOW_ROWS[row], MMUVirtMode.SHADOW, STORE_LOOP)
            for name in "ab")
    sharer = PageSharer(hv)
    assert sharer.scan().pages_merged > 0
    peer = b.guest_mem.read_bytes(0, b.guest_mem.size)

    hv.run(a, max_guest_instructions=2_000)
    assert a.guest_mem.read_u32(DATA + 63 * PAGE_SIZE) > 0
    assert b.guest_mem.read_bytes(0, b.guest_mem.size) == peer
    assert sharer.cow_breaks == 64


@pytest.mark.parametrize("mmode", [MMUVirtMode.SHADOW, MMUVirtMode.NESTED])
def test_precopy_of_a_real_mode_guest_logs_its_stores(mmode):
    src = Hypervisor(memory_bytes=16 * MIB)
    dst = Hypervisor(memory_bytes=16 * MIB)
    vm = _bare(src, "m", VirtMode.HW_ASSIST, mmode, STORE_LOOP)
    src.run(vm, max_guest_instructions=1_000)
    result = LiveMigrator(src, dst).migrate(
        vm, quantum_instructions=2_000, max_rounds=5, threshold_pages=8)
    # Four more rounds, and the stop-and-copy: each carries the 64 pages.
    assert result.round_sizes == [vm.num_pages] + [64] * 5
    assert (result.dest_vm.guest_mem.read_bytes(0, vm.guest_mem.size)
            == vm.guest_mem.read_bytes(0, vm.guest_mem.size))


@pytest.mark.parametrize("mmode", [MMUVirtMode.NESTED, MMUVirtMode.SHADOW])
def test_a_swapped_page_reads_back_as_it_was(mmode):
    hv = Hypervisor(memory_bytes=8 * MIB)
    vm = hv.create_vm(GuestConfig(name="s", memory_bytes=1 * MIB,
                                  virt_mode=VirtMode.HW_ASSIST, mmu_mode=mmode))
    content = bytes(range(256)) * (PAGE_SIZE // 256)
    vm.guest_mem.write_gfn(5, content)
    swap = HostSwap(hv)
    swap.swap_out(vm, 5)
    assert not vm.guest_mem.is_mapped(5)
    assert vm.guest_mem.read_bytes(5 * PAGE_SIZE, PAGE_SIZE) == content
    assert swap.swap_ins == 1 and 5 not in vm.swapped


def test_swapped_page_tables_under_shadow_paging():
    # Every frame holding a guest page table goes out; the guest keeps
    # mapping and unmapping, so its next trapped page-table store lands
    # in one (the walk that classified the trap does not read it).
    hv = Hypervisor(memory_bytes=64 * MIB)
    kernel = build_kernel(KernelOptions(memory_bytes=16 * MIB))
    vm = hv.create_vm(GuestConfig(name="pt", memory_bytes=16 * MIB,
                                  virt_mode=VirtMode.HW_ASSIST,
                                  mmu_mode=MMUVirtMode.SHADOW))
    hv.load_program(vm, kernel)
    hv.load_program(vm, workloads.pt_stress(200))
    hv.reset_vcpu(vm, kernel.entry)
    hv.run(vm, max_guest_instructions=20_000)
    swap = HostSwap(hv)
    swap.install(vm)
    page_tables = sorted(vm.vcpus[0].cpu.mmu.pt_gfns)
    for gfn in page_tables:
        swap.swap_out(vm, gfn)
    pt_writes = vm.stats.shadow_pt_writes

    assert hv.run(vm, max_guest_instructions=1_000_000) is RunOutcome.SHUTDOWN
    assert read_diag(vm.guest_mem).user_result == 200
    assert vm.stats.shadow_pt_writes > pt_writes
    assert swap.swap_ins == len(page_tables)


# Paging on, vpn 4 -> a frame holding 0xAAAA, read once. The NIC then
# DMAs a new PTE into the page table itself, mapping vpn 4 to a frame
# holding 0xBBBB; PTBR is reloaded and vpn 4 read again.
DMA_INTO_A_PAGE_TABLE = """
.org 0x1000
    li a0, 0x20000
    li a1, 0x21003
    st [a0+0], a1        ; PD[0] -> the page table at 0x21000
    li a0, 0x21000
    li a1, 0x1003
    st [a0+4], a1        ; vpn 1 -> this code
    li a1, 0x5003
    st [a0+16], a1       ; vpn 4 -> frame 0x5000
    li t1, 0x20000
    csrw PTBR, t1
    li t0, 0x4000
    ld s0, [t0+0]
    li a0, 0x21010       ; the PTE of vpn 4
    out {rx_addr:#x}, a0
    li a0, 1
    out {rx_cmd:#x}, a0  ; pop the queued frame into it
    csrw PTBR, t1
    ld s1, [t0+0]
    li a0, 1
    out {power:#x}, a0
    hlt
"""


def _dma_into_a_page_table(virt_mode, mmu_mode):
    hv = Hypervisor(memory_bytes=64 * MIB)
    vm = hv.create_vm(GuestConfig(name="vm", memory_bytes=16 * MIB,
                                  virt_mode=virt_mode, mmu_mode=mmu_mode))
    hv.load_program(vm, Assembler().assemble(DMA_INTO_A_PAGE_TABLE.format(
        rx_addr=NET_RX_ADDR, rx_cmd=NET_RX_CMD, power=POWER_BASE)))
    vm.guest_mem.write_u32(0x5000, 0xAAAA)
    vm.guest_mem.write_u32(0x6000, 0xBBBB)
    inject_rx(vm.devices["net"], (0x6003).to_bytes(4, "little"))
    hv.reset_vcpu(vm, 0x1000)
    outcome = hv.run(vm, max_guest_instructions=1_000)
    regs = vm.vcpus[0].cpu.regs
    return outcome, regs[Reg.S0], regs[Reg.S1]


def test_device_dma_into_a_page_table_reaches_the_shadow_mmu():
    """A DMA write into a guest page table changes what the guest's
    next access translates to under every engine, shadow paging
    included: GuestMemory's table route drops the stale shadow entry."""
    seen = {label: _dma_into_a_page_table(virt_mode, mmu_mode)
            for label, virt_mode, mmu_mode, _pv in MODE_MATRIX[1:]}
    assert seen["hw+nested"] == (RunOutcome.SHUTDOWN, 0xAAAA, 0xBBBB)
    assert all(result == seen["hw+nested"] for result in seen.values()), seen
