"""The core takes a TLB hit itself: it must be ``TLB.lookup``'s, exactly.

``CPUCore.fetch`` and the load/store arm of ``CPUCore.execute`` test a
cached entry inline and call ``mmu.translate`` only on a miss. For every
flag combination of the cached entry (P, W, U, D, NX) x access (fetch,
load, store) x privilege, under ``BareMMU``, ``ShadowMMU`` and
``TwoStageMMU``, a core doing the access and a twin MMU asked
``translate`` must end with the same physical address, cycles, exit,
``tlb.stats``, entry order (LRU) and memory.

The inline test is exact only because an MMU whose ``tlb_active`` is
False holds an empty TLB (``translate`` inserts only after a walk with
paging on): that is asserted too, for new, recycled and restored VMs
and after real-mode code ran.
"""

import itertools

import pytest

from repro.core import GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode
from repro.core.shadow import ShadowMMU
from repro.core.snapshot import restore_vm, snapshot_vm
from repro.core.vm import GuestMemory
from repro.cpu.assembler import Assembler
from repro.cpu.exits import VMExit
from repro.cpu.interp import CPUCore
from repro.cpu.isa import CSR, MODE_KERNEL, MODE_USER, decode
from repro.cpu.mmu import BareMMU, TwoStageMMU
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AccessType,
    AddressSpace,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_NOEXEC,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
    make_pte,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.units import MIB, PAGE_SHIFT, PAGE_SIZE

GUEST_PAGES = 64
ROOT_GPA, PT_GPA = 0x10000, 0x11000
#: The page every access goes to, the guest frame its tables map it to
#: (every permission), and the frame a cached entry names instead: a hit
#: and a miss read different words.
VA = 0x00403124
DATA_GFN, CACHED_GFN = 40, 41
#: Where real mode (paging off: the address is the frame's) accesses.
REAL_VA = (DATA_GFN << PAGE_SHIFT) | 0x124
#: Entries cached around the one under test, so LRU order can move.
NEIGHBOURS = (0x00401, 0x00402, 0x00405)
FULL = PTE_PRESENT | PTE_WRITABLE | PTE_USER | PTE_ACCESSED | PTE_DIRTY
FLAGS = (PTE_PRESENT, PTE_WRITABLE, PTE_USER, PTE_DIRTY, PTE_NOEXEC)
STORED = 0xA5C3E1F7


def _word(source):
    program = Assembler().assemble(".org 0\n" + source)
    return int.from_bytes(program.data[:4], "little")


FETCHED = {DATA_GFN: _word("add s1, s1, s0"), CACHED_GFN: _word("xor s2, s2, s1")}
LOAD = decode(_word("ld t0, [t3+0]"))
STORE = decode(_word("st [t3+0], s2"))


def _bare(paging):
    pm = PhysicalMemory(1 * MIB)
    alloc = FrameAllocator(pm, reserved_frames=8)
    space = AddressSpace(pm, alloc)
    space.map(VA & ~0xFFF, DATA_GFN << PAGE_SHIFT, FULL)
    mmu = BareMMU(pm, CostModel())
    if paging:
        mmu.set_root(space.root_pa)
    return mmu, {gfn: gfn for gfn in FETCHED}


def _virtualized(kind):
    def build(paging):
        pm = PhysicalMemory(4 * MIB)
        alloc = FrameAllocator(pm, reserved_frames=8)
        gm = GuestMemory(pm, GUEST_PAGES)
        for gfn in range(GUEST_PAGES):
            gm.map_page(gfn, alloc.alloc())
        gm.write_u32(ROOT_GPA + (VA >> 22) * 4, make_pte(PT_GPA >> PAGE_SHIFT, FULL))
        gm.write_u32(PT_GPA + ((VA >> 12) & 0x3FF) * 4, make_pte(DATA_GFN, FULL))
        if kind == "shadow":
            mmu = ShadowMMU(pm, alloc, gm, CostModel())
        else:
            ept = AddressSpace(pm, alloc)
            for gfn, hfn in gm.map.items():
                ept.map(gfn << PAGE_SHIFT, hfn << PAGE_SHIFT,
                        PTE_PRESENT | PTE_USER | PTE_WRITABLE)
            mmu = TwoStageMMU(pm, alloc, gm, CostModel(), hmode=kind == "hmode", ept=ept)
        if paging:
            mmu.set_root(ROOT_GPA)
        return mmu, {gfn: gm.map[gfn] for gfn in FETCHED}
    return build


BUILDS = {"bare": _bare, "shadow": _virtualized("shadow"),
          "nested": _virtualized("nested"), "hmode": _virtualized("hmode")}


def _machine(kind, flags, paging=True):
    """An MMU of ``kind`` with ``FETCHED``'s words in their frames and,
    paging on, ``NEIGHBOURS`` and ``VA``'s page (naming
    ``CACHED_GFN``'s frame, ``flags``) cached."""
    mmu, frames = BUILDS[kind](paging)
    for gfn, hfn in frames.items():
        mmu.physmem.write_u32((hfn << PAGE_SHIFT) + (VA & 0xFFF), FETCHED[gfn])
    if not paging:
        return mmu
    for vpn in NEIGHBOURS[:2]:
        mmu.tlb.insert(vpn, make_pte(frames[DATA_GFN], FULL))
    mmu.tlb.insert(VA >> PAGE_SHIFT, make_pte(frames[CACHED_GFN], flags))
    mmu.tlb.insert(NEIGHBOURS[2], make_pte(frames[DATA_GFN], FULL))
    return mmu


def _outcome(mmu, run):
    """What ``run()`` returned or raised, and what it left behind."""
    try:
        value = run()
    except (PageFault, VMExit) as exc:  # a miss under shadow paging: a fill
        value = (type(exc).__name__, str(exc), getattr(exc, "qualification", None))
    tlb = mmu.tlb
    return (value, vars(tlb.stats), list(tlb._entries.items()),
            bytes(mmu.physmem._data))


def _core_access(mmu, access, user, va=VA):
    """The core's side: one fetch / load / store at ``va``; (what it
    read, cycles it charged)."""
    core = CPUCore(mmu)
    core.csr[CSR.MODE] = MODE_USER if user else MODE_KERNEL
    if access is AccessType.EXEC:
        ins = core.fetch(va)
        return ins, core.cycles
    core.regs[LOAD.ra] = va  # t3, the base of both
    core.regs[STORE.rb] = STORED
    core.execute(LOAD if access is AccessType.READ else STORE)
    return core.regs[LOAD.rd], core.cycles


def _translate_access(mmu, access, user, va=VA):
    """The twin's side: ``mmu.translate``, then the read or write the
    access makes at the address it answered."""
    pa, cycles = mmu.translate(va, access, user)
    pm = mmu.physmem
    if access is AccessType.EXEC:
        return decode(pm.read_u32(pa)), cycles
    if access is AccessType.READ:
        return pm.read_u32(pa), cycles
    pm.write_u32(pa, STORED)
    return 0, cycles  # the core's t0 stays 0 on a store


COMBOS = [sum(bits) for n in range(len(FLAGS) + 1)
          for bits in itertools.combinations(FLAGS, n)]


@pytest.mark.parametrize("user", [False, True], ids=["kernel", "user"])
@pytest.mark.parametrize("access", list(AccessType), ids=lambda a: a.name)
@pytest.mark.parametrize("kind", list(BUILDS))
def test_the_inline_hit_is_lookups(kind, access, user):
    for flags in COMBOS:
        core_mmu, twin_mmu = _machine(kind, flags), _machine(kind, flags)
        core = _outcome(core_mmu, lambda: _core_access(core_mmu, access, user))
        twin = _outcome(twin_mmu, lambda: _translate_access(twin_mmu, access, user))
        assert core == twin, f"{kind} {access.name} user={user} flags={flags:#x}"


@pytest.mark.parametrize("kind", ["bare", "shadow"])
def test_real_mode_is_translates(kind):
    """Paging off: every access twice, the core against ``translate``
    (a TLB entry cached in real mode would turn the second into a hit)."""
    for access in AccessType:
        core_mmu, twin_mmu = _machine(kind, 0, paging=False), _machine(kind, 0, paging=False)
        for _ in range(2):
            core = _outcome(core_mmu, lambda: _core_access(core_mmu, access, False, REAL_VA))
            twin = _outcome(twin_mmu, lambda: _translate_access(twin_mmu, access, False, REAL_VA))
            assert core == twin, f"{kind} {access.name}"
            assert core[0][1] == 0, core[0]  # read or written, uncharged
        assert not core_mmu.tlb_active and len(core_mmu.tlb) == 0


def _empty_while_inactive(mmu):
    assert mmu.tlb_active or len(mmu.tlb) == 0, type(mmu).__name__


_REAL_MODE_CODE = """
    li   t3, 0x3000
    li   s2, 7
    st   [t3+0], s2
    ld   t0, [t3+0]
    li   t0, 1
    out  0xf0, t0
    hlt
"""

CONFIGS = [
    (VirtMode.HW_ASSIST, MMUVirtMode.SHADOW),
    (VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW),
    (VirtMode.HW_ASSIST, MMUVirtMode.NESTED),
    (VirtMode.HW_ASSIST, MMUVirtMode.HMODE),
]


def test_a_bare_machine_in_real_mode_caches_nothing():
    machine = Machine(memory_bytes=1 * MIB, jit=False)
    image = Assembler().assemble(".org 0x1000\n" + _REAL_MODE_CODE)
    machine.load_program(image)
    machine.cpu.reset(image.entry)
    _empty_while_inactive(machine.mmu)
    machine.cpu.run(max_instructions=100)
    assert machine.cpu.halted and machine.cpu.instret > 4
    assert not machine.mmu.tlb_active
    _empty_while_inactive(machine.mmu)


@pytest.mark.parametrize("virt, mmu_mode", CONFIGS,
                         ids=[f"{v.value}-{m.value}" for v, m in CONFIGS])
def test_a_vm_caches_nothing_while_its_tlb_is_inactive(virt, mmu_mode, hvm_kernel):
    """New, after real-mode code, after a NanoOS boot is recycled, and
    after a snapshot taken at power-on is restored onto a booted VM."""
    from repro.guest import workloads
    hv = Hypervisor(memory_bytes=64 * MIB)
    config = GuestConfig(name="vm", memory_bytes=16 * MIB, virt_mode=virt, mmu_mode=mmu_mode)
    vm = hv.create_vm(config)
    _empty_while_inactive(vm.vcpus[0].cpu.mmu)
    image = Assembler().assemble(".org 0x1000\n" + _REAL_MODE_CODE)
    hv.load_program(vm, image)
    hv.reset_vcpu(vm, image.entry)
    hv.run(vm, max_guest_instructions=100)
    _empty_while_inactive(vm.vcpus[0].cpu.mmu)
    at_power_on = snapshot_vm(hv.recycle_vm(vm))
    vm = hv.vms["vm"]
    _empty_while_inactive(vm.vcpus[0].cpu.mmu)
    hv.load_program(vm, hvm_kernel)
    hv.load_program(vm, workloads.memtouch(4, 1))
    hv.reset_vcpu(vm, hvm_kernel.entry)
    hv.run(vm, max_guest_instructions=200_000)
    assert vm.vcpus[0].cpu.mmu.tlb_active and len(vm.vcpus[0].cpu.mmu.tlb)
    vm = hv.recycle_vm(vm)
    _empty_while_inactive(vm.vcpus[0].cpu.mmu)
    vm = restore_vm(hv, at_power_on, name="clone")
    _empty_while_inactive(vm.vcpus[0].cpu.mmu)
