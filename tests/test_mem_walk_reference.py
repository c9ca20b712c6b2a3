"""Every walk of the one page-table rule against a reference, on random tables.

``PageTableWalker.walk`` is the rule, written once; what differs between
its uses is the table-access step. The walks held here are each use:

* host-physical tables (no step: the bare MMU, the shadow tables);
* two-stage translation (``GStageWalker.walk`` the step, then the data's
  gPA), and ``GStageWalker.walk`` on its own (guest paging off);
* the shadow MMU's walk of the guest's tables through ``GuestMemory``,
  with and without A/D write-back (``ShadowMMU.guest_walker``);
* the side-effect-free fetch walk the binary translator re-checks a
  block with (``ShadowMMU.peek_walker``), which returns nothing and
  writes nothing where a table is unbacked.

The reference below is each walk written the obvious way -- one
``read_u32`` per entry, one ``write_u32`` per A/D update, a result tuple
-- and every walk must be indistinguishable from it: result or fault
(type and every field), the counters, every byte of memory afterwards,
the exact sequence of write-watcher callbacks and, through guest memory,
every host fault taken and every table registered. Once every engine
shares the one walk the native-versus-VMM fuzzer cannot see a bug in it:
this file is its oracle.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.shadow import ShadowMMU
from repro.core.vm import GuestMemory
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AccessType,
    GStageFault,
    GStageWalker,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_NOEXEC,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
    PageTableWalker,
    pte_frame,
)
from repro.mem.physmem import PhysicalMemory
from repro.util.errors import MemoryError_
from repro.util.units import PAGE_SHIFT, PAGE_SIZE
from tests.conftest import split_vaddr

FRAMES = 48
PAST_RAM = 0x7FF00  # a frame number no PhysicalMemory here reaches


# -- the reference ---------------------------------------------------------


class ReferenceWalker:
    """Every walk, spelled out entry by entry."""

    def __init__(self, physmem, gstage_ad=False):
        self.physmem = physmem
        self.gstage_ad = gstage_ad
        self.walks = 0
        self.faults = 0
        self.gstage_faults = 0
        self.gstage_refs = 0

    def _fault(self, va, access, user, present):
        self.faults += 1
        return PageFault(va, access, user, present=present)

    def rule(self, read, write, root, va, access, user, ad=True, seen=None):
        """The rule over ``read(addr)`` / ``write(addr, value)`` of a table
        entry: ``(pde, pte)`` after the A/D update (none unless ``ad``).
        ``seen`` gets each leaf table's frame before the table is read."""
        self.walks += 1
        dir_idx, tbl_idx, _offset = split_vaddr(va)
        pde_addr = root + dir_idx * 4
        pde = read(pde_addr)
        if not pde & PTE_PRESENT:
            raise self._fault(va, access, user, False)
        if seen is not None:
            seen(pte_frame(pde))
        pte_addr = (pte_frame(pde) << PAGE_SHIFT) + tbl_idx * 4
        pte = read(pte_addr)
        if not pte & PTE_PRESENT:
            raise self._fault(va, access, user, False)
        combined = pde & pte
        if user and not combined & PTE_USER:
            raise self._fault(va, access, user, True)
        if access is AccessType.WRITE and not combined & PTE_WRITABLE:
            raise self._fault(va, access, user, True)
        if access is AccessType.EXEC and pte & PTE_NOEXEC:
            raise self._fault(va, access, user, True)
        if ad:
            if not pde & PTE_ACCESSED:
                pde |= PTE_ACCESSED
                write(pde_addr, pde)
            new_pte = pte | PTE_ACCESSED
            if access is AccessType.WRITE:
                new_pte |= PTE_DIRTY
            if new_pte != pte:
                pte = new_pte
                write(pte_addr, pte)
        return pde, pte

    def walk(self, root_pa, va, access, user):
        """One-stage walk of host-physical tables."""
        pm = self.physmem
        return self.rule(pm.read_u32, pm.write_u32, root_pa, va, access, user)

    def gstage_walk(self, gstage_root, gpa, access):
        self.gstage_refs += 2
        dir_idx, tbl_idx, offset = split_vaddr(gpa)
        pde_pa = gstage_root + dir_idx * 4
        pde = self.physmem.read_u32(pde_pa)
        if not pde & PTE_PRESENT:
            self.gstage_faults += 1
            raise GStageFault(gpa, access, present=False)
        pte_pa = (pte_frame(pde) << PAGE_SHIFT) + tbl_idx * 4
        pte = self.physmem.read_u32(pte_pa)
        if not pte & PTE_PRESENT:
            self.gstage_faults += 1
            raise GStageFault(gpa, access, present=False)
        if access is AccessType.WRITE and not pde & pte & PTE_WRITABLE:
            self.gstage_faults += 1
            raise GStageFault(gpa, access, present=True)
        if self.gstage_ad:
            if not pde & PTE_ACCESSED:
                self.physmem.write_u32(pde_pa, pde | PTE_ACCESSED)
            new_pte = pte | PTE_ACCESSED
            if access is AccessType.WRITE:
                new_pte |= PTE_DIRTY
            if new_pte != pte:
                self.physmem.write_u32(pte_pa, new_pte)
                pte = new_pte
        return (pte_frame(pte) << PAGE_SHIFT) | offset

    def two_stage(self, gstage_root, guest_root, va, access, user):
        """``(hpa, perms, gstage_refs)`` of the full two-stage walk: every
        guest entry read and write-back a guest-physical access."""
        pm = self.physmem
        refs = self.gstage_refs

        def read(gpa):
            return pm.read_u32(self.gstage_walk(gstage_root, gpa, AccessType.READ))

        def write(gpa, value):
            pm.write_u32(self.gstage_walk(gstage_root, gpa, AccessType.WRITE), value)

        pde, gpte = self.rule(read, write, guest_root, va, access, user)
        gpa = (pte_frame(gpte) << PAGE_SHIFT) | split_vaddr(va)[2]
        hpa = self.gstage_walk(gstage_root, gpa, access)
        return (hpa, (pde & gpte & PTE_USER) | (gpte & PTE_NOEXEC),
                self.gstage_refs - refs)

    def guest_walk(self, mem, root, va, access, user, ad, seen):
        """The shadow MMU's walk of the guest's tables: each entry read
        through ``GuestMemory``, each A/D update written to the host
        frame past its table route."""

        def write(gpa, value):
            mem.host.write_u32(mem.gpa_to_hpa(gpa, AccessType.WRITE), value)

        return self.rule(mem.read_u32, write, root, va, access, user, ad, seen)


def reference_kernel_page(mem, root, vpn):
    """``(gfn, leaf table gfn)`` of a kernel fetch on ``vpn``, or None where
    it faults or a table is unbacked: looked up, nothing faulted in."""
    table = root >> PAGE_SHIFT
    for index in (vpn >> 10, vpn & 0x3FF):
        hfn = mem.map.get(table)
        if hfn is None:
            return None
        entry = mem.host.read_u32((hfn << PAGE_SHIFT) + index * 4)
        if not entry & PTE_PRESENT:
            return None
        pt_gfn, table = table, pte_frame(entry)
    return None if entry & PTE_NOEXEC else (table, pt_gfn)


# -- random tables ---------------------------------------------------------

GSTAGE_ROOT = 1 << PAGE_SHIFT  # host frame 1
GSTAGE_TABLES = (2, 3)
#: Guest-physical frames the guest's own tables may sit in (directory
#: slots 0 and 1 of the second stage).
GUEST_FRAMES = [0, 1, 2, 5, 1024, 1025]
DIR_SLOTS = (0, 1, 3)
TABLE_SLOTS = (0, 1, 2, 5, 9)
#: Every gfn a guest walk can reach a table in (1-3 alias the second
#: stage; 9 is a data frame some entries point at), and the guest's size.
TABLE_GFNS = sorted(set(GUEST_FRAMES) | {1, 2, 3, 9})
GUEST_PAGES = 2048


def _flags(rng):
    flags = 0
    for bit, likely in ((PTE_PRESENT, 0.85), (PTE_WRITABLE, 0.7),
                        (PTE_USER, 0.7), (PTE_ACCESSED, 0.4),
                        (PTE_DIRTY, 0.3), (PTE_NOEXEC, 0.2)):
        if rng.random() < likely:
            flags |= bit
    return flags


def _frame(rng, pool):
    roll = rng.random()
    if roll < 0.06:
        return PAST_RAM + rng.randrange(4)
    if roll < 0.12:
        return rng.randrange(1, 4)  # a second-stage table frame: aliasing
    return rng.choice(pool)


def host_of(pm, gfn):
    """Where the second stage puts a guest frame (None: nowhere)."""
    pde = pm.read_u32(GSTAGE_ROOT + (gfn >> 10) * 4)
    if not pde & PTE_PRESENT or pte_frame(pde) >= FRAMES:
        return None
    pte = pm.read_u32((pte_frame(pde) << PAGE_SHIFT) + (gfn & 0x3FF) * 4)
    if not pte & PTE_PRESENT or pte_frame(pte) >= FRAMES:
        return None
    return pte_frame(pte)


def build_tables(seed):
    """Random second-stage and guest tables; returns (image, guest_root).

    The second stage lives in host frames 1-3. The guest's directory
    and leaf tables live in guest-physical frames and are written
    wherever the second stage happens to put them (nowhere, when it
    does not map them: then every walk faults in the second stage).
    """
    rng = random.Random(seed)
    pm = PhysicalMemory(FRAMES * PAGE_SIZE)
    data_frames = list(range(4, FRAMES))

    def put(pa, frame, flags):
        if 0 <= pa <= pm.size - 4:
            pm.write_u32(pa, ((frame << PAGE_SHIFT) | flags) & 0xFFFFFFFF)

    for slot in DIR_SLOTS:
        put(GSTAGE_ROOT + slot * 4, _frame(rng, GSTAGE_TABLES), _flags(rng))
    for table in GSTAGE_TABLES:
        for slot in TABLE_SLOTS:
            put((table << PAGE_SHIFT) + slot * 4, _frame(rng, data_frames),
                _flags(rng))

    guest_root_gfn = rng.choice(GUEST_FRAMES)
    for gfn in GUEST_FRAMES:
        hfn = host_of(pm, gfn)
        if hfn is None:
            continue
        pool = GUEST_FRAMES if gfn == guest_root_gfn else GUEST_FRAMES + [9]
        for slot in (DIR_SLOTS if gfn == guest_root_gfn else TABLE_SLOTS):
            put((hfn << PAGE_SHIFT) + slot * 4, _frame(rng, pool), _flags(rng))
    return bytes(pm._data), guest_root_gfn << PAGE_SHIFT


def guest_memory(pm, seed):
    """A ``GuestMemory`` over the random tables, and its log of host faults.

    Each table gfn the second stage places is backed there, or left to
    be faulted in (``swapped``), and may be write-protected until a write
    faults; one it does not place stays unbacked (``MemoryError_``). A
    fault is logged with the tables registered by then."""
    rng = random.Random(seed ^ 0x5EED)
    mem = GuestMemory(pm, GUEST_PAGES)
    swapped, log = {}, []
    for gfn in TABLE_GFNS:
        hfn = host_of(pm, gfn)
        if hfn is None:
            continue
        if rng.random() < 0.25:
            swapped[gfn] = hfn
            continue
        mem.map_page(gfn, hfn)
        if rng.random() < 0.3:
            mem.write_protected.add(gfn)

    def fault(gfn, write):
        log.append((gfn, write, sorted(mem.tables)))
        if gfn in swapped:
            mem.map_page(gfn, swapped.pop(gfn))
        if write:
            mem.write_protected.discard(gfn)

    mem.fault = fault
    mem.tables_written = lambda gpa, length: log.append(("tables_written", gpa, length))
    return mem, log


def _machine(image):
    pm = PhysicalMemory(len(image))
    pm.write_bytes(0, image)
    seen = []
    pm.watch_writes(set(range(pm.num_frames)), seen.append)
    return pm, seen


def _outcome(call):
    try:
        return ("ok", call())
    except (PageFault, GStageFault) as fault:
        return (type(fault).__name__, fault)
    except MemoryError_ as err:
        return ("MemoryError_", str(err))


ADDRESSES = [(d << 22) | (t << 12) | off
             for d in DIR_SLOTS for t in TABLE_SLOTS for off in (0, 0xABC)]
CASES = [(access, user) for access in AccessType for user in (False, True)]


def _hold_to_reference(image, calls):
    """``calls`` yields ``(fast_call, reference_call, fast_counts,
    reference_counts)`` and runs both sides in lockstep on their own
    memory; each ``*_counts()`` is that side's counters."""
    fast_pm, fast_seen = _machine(image)
    ref_pm, ref_seen = _machine(image)
    for make_fast, make_ref, fast_counts, ref_counts in calls(fast_pm, ref_pm):
        got, want = _outcome(make_fast), _outcome(make_ref)
        assert got == want
        assert fast_counts() == ref_counts()
        assert fast_pm.read_bytes(0, fast_pm.size) == ref_pm.read_bytes(0, ref_pm.size)
        assert fast_seen == ref_seen


def kernel_page(mmu, vpn):
    """What ``BTEngine.recheck`` makes of the fetch walk of a page:
    ``(gfn, leaf table gfn)``, or None where it faults or a table is
    unbacked."""
    try:
        pde, pte = mmu.peek_walker.walk(mmu.guest_root, vpn << PAGE_SHIFT,
                                        AccessType.EXEC, False, False)
    except (PageFault, KeyError):
        return None
    return pte >> PAGE_SHIFT, pde >> PAGE_SHIFT


def two_stage(walker, gstage, guest_root, va, access, user):
    """What ``TwoStageMMU.translate`` makes of a miss: ``(hpa, perms,
    G-stage references)``, two references per G-stage walk."""
    walks = gstage.walks
    pde, pte = walker.walk(guest_root, va, access, user)
    hpa = gstage.walk((pte >> PAGE_SHIFT << PAGE_SHIFT) | (va & 0xFFF), access)
    return hpa, (pde & pte & PTE_USER) | (pte & PTE_NOEXEC), 2 * (gstage.walks - walks)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_one_stage_walk_matches_reference(seed):
    image, _guest_root = build_tables(seed)

    def calls(fast_pm, ref_pm):
        fast, ref = PageTableWalker(fast_pm), ReferenceWalker(ref_pm)
        for va in ADDRESSES:
            for access, user in CASES:
                yield (lambda: fast.walk(GSTAGE_ROOT, va, access, user),
                       lambda: ref.walk(GSTAGE_ROOT, va, access, user),
                       lambda: (fast.walks, fast.faults),
                       lambda: (ref.walks, ref.faults))

    _hold_to_reference(image, calls)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_two_stage_walk_matches_reference(seed, gstage_ad):
    image, guest_root = build_tables(seed)

    def calls(fast_pm, ref_pm):
        gstage = GStageWalker(fast_pm, GSTAGE_ROOT, ad=gstage_ad)
        fast = PageTableWalker(fast_pm, gstage.walk)
        ref = ReferenceWalker(ref_pm, gstage_ad=gstage_ad)
        for va in ADDRESSES:
            for access, user in CASES:
                yield (lambda: two_stage(fast, gstage, guest_root, va, access, user),
                       lambda: ref.two_stage(GSTAGE_ROOT, guest_root, va,
                                             access, user),
                       lambda: (fast.walks, fast.faults, gstage.faults, 2 * gstage.walks),
                       lambda: (ref.walks, ref.faults, ref.gstage_faults, ref.gstage_refs))

    _hold_to_reference(image, calls)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_gstage_walk_matches_reference(seed, gstage_ad):
    """Guest paging off: the address is a gPA, one second-stage walk."""
    image, _guest_root = build_tables(seed)

    def calls(fast_pm, ref_pm):
        fast = GStageWalker(fast_pm, GSTAGE_ROOT, ad=gstage_ad)
        ref = ReferenceWalker(ref_pm, gstage_ad=gstage_ad)
        for gpa in ADDRESSES:
            for access in AccessType:
                yield (lambda: fast.walk(gpa, access),
                       lambda: ref.gstage_walk(GSTAGE_ROOT, gpa, access),
                       lambda: (fast.faults, 2 * fast.walks),
                       lambda: (ref.gstage_faults, ref.gstage_refs))

    _hold_to_reference(image, calls)


def _shadow_pair(image, seed):
    """Both sides of a guest walk: a ``ShadowMMU`` over one copy of the
    tables, the reference's guest memory over the other."""
    sides = []
    for _ in range(2):
        pm, seen = _machine(image)
        mem, log = guest_memory(pm, seed)
        sides.append((pm, seen, mem, log))
    (fast_pm, _seen, fast_mem, _log), (ref_pm, _seen, ref_mem, _log) = sides
    mmu = ShadowMMU(fast_pm, None, fast_mem, CostModel())
    fast_mem.tables = mmu.pt_gfns  # as Hypervisor.create_vm wires it
    ref_mem.tables = set()
    return sides, mmu, ReferenceWalker(ref_pm)


def _same_sides(sides, mmu, ref):
    """Everything a guest walk may touch is the same on both sides."""
    (fast_pm, fast_seen, fast_mem, fast_log), (ref_pm, ref_seen, ref_mem, ref_log) = sides
    assert (mmu.guest_walker.walks, mmu.guest_walker.faults) == (ref.walks, ref.faults)
    assert (mmu.walker.walks, mmu.walker.faults) == (0, 0)  # the hardware's counts
    assert mmu.pt_gfns == ref_mem.tables
    assert fast_log == ref_log
    assert (fast_mem.map, fast_mem.write_protected) == (ref_mem.map, ref_mem.write_protected)
    assert fast_pm.read_bytes(0, fast_pm.size) == ref_pm.read_bytes(0, ref_pm.size)
    assert fast_seen == ref_seen


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_shadow_guest_walk_matches_reference(seed, ad):
    """The shadow MMU's walk of the guest's tables (``fill`` with A/D,
    the miss, the emulated store and the translator without): each
    entry through ``GuestMemory`` -- an unbacked table faulted in, a
    write-protected one unprotected by its write-back -- and each leaf
    table registered before it is read."""
    image, guest_root = build_tables(seed)
    sides, mmu, ref = _shadow_pair(image, seed)
    ref_mem = sides[1][2]
    for va in ADDRESSES:
        for access, user in CASES:
            got = _outcome(lambda: mmu.guest_walker.walk(guest_root, va, access, user, ad))
            want = _outcome(lambda: ref.guest_walk(ref_mem, guest_root, va, access, user,
                                                   ad, ref_mem.tables.add))
            assert got == want
            _same_sides(sides, mmu, ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fetch_walk_has_no_side_effect(seed):
    """BT's re-check: the kernel fetch walk answers None where the walk
    faults or a table is unbacked, and faults nothing in, registers no
    table and writes no byte."""
    image, guest_root = build_tables(seed)
    sides, mmu, ref = _shadow_pair(image, seed)
    mmu.guest_root = guest_root
    ref_mem = sides[1][2]
    for va in ADDRESSES:
        vpn = va >> PAGE_SHIFT
        assert kernel_page(mmu, vpn) == reference_kernel_page(ref_mem, guest_root, vpn)
        _same_sides(sides, mmu, ref)
    assert sides[0][3] == [] and not mmu.pt_gfns


def test_random_tables_reach_every_kind_of_outcome():
    """The generator is not vacuous: over a few hundred seeds the
    two-stage reference succeeds, raises both fault types with both
    ``present`` values, runs off the end of RAM, and makes 6, 8 and 10
    second-stage references; the guest walk faults a table in, writes
    through a write-protected one, and meets an unbacked one; and the
    fetch walk finds pages as well as None."""
    kinds = set()
    for seed in range(300):
        image, guest_root = build_tables(seed)
        pm, _seen = _machine(image)
        ref = ReferenceWalker(pm, gstage_ad=bool(seed & 1))
        for va in ADDRESSES:
            for access, user in CASES:
                kind, value = _outcome(lambda: ref.two_stage(
                    GSTAGE_ROOT, guest_root, va, access, user))
                if kind == "ok":
                    kinds.add(("ok", value[2]))
                elif kind == "MemoryError_":
                    kinds.add(kind)
                else:
                    kinds.add((kind, value.present))
        mem, log = guest_memory(pm, seed)
        for va in ADDRESSES:
            kinds.add(("fetch", reference_kernel_page(mem, guest_root, va >> 12) is None))
            for access, user in CASES:
                kind, _value = _outcome(lambda: ref.guest_walk(
                    mem, guest_root, va, access, user, True, mem.tables.add))
                kinds.add(("guest", kind))
        kinds.update(("fault", write) for _gfn, write, _tables in log)
    assert kinds == {("ok", 6), ("ok", 8), ("ok", 10), "MemoryError_",
                     ("PageFault", False), ("PageFault", True),
                     ("GStageFault", False), ("GStageFault", True),
                     ("guest", "ok"), ("guest", "PageFault"), ("guest", "MemoryError_"),
                     ("fault", False), ("fault", True),
                     ("fetch", False), ("fetch", True)}
