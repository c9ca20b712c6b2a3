"""The walkers against a straightforward reference, on random tables.

``PageTableWalker.walk`` and ``TwoStageWalker.walk`` / ``gstage_walk``
read table words straight from the backing buffer. The reference below
is the walk written the obvious way -- one ``read_u32`` per entry, one
``write_u32`` per A/D update, a result tuple -- and the fast walkers
must be indistinguishable from it: result or fault (type and every
field), the counters, every byte of memory afterwards, and the exact
sequence of write-watcher callbacks.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.mem.paging import (
    AccessType,
    GStageFault,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_NOEXEC,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
    PageTableWalker,
    TwoStageWalker,
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
    """Both walkers, spelled out entry by entry."""

    def __init__(self, physmem, gstage_ad=False):
        self.physmem = physmem
        self.gstage_ad = gstage_ad
        self.walks = 0
        self.faults = 0
        self.gstage_faults = 0

    def _fault(self, va, access, user, present):
        self.faults += 1
        return PageFault(va, access, user, present=present)

    def walk(self, root_pa, va, access, user):
        """One-stage walk: the leaf PTE after its A/D update."""
        self.walks += 1
        dir_idx, tbl_idx, _offset = split_vaddr(va)
        pde_pa = root_pa + dir_idx * 4
        pde = self.physmem.read_u32(pde_pa)
        if not pde & PTE_PRESENT:
            raise self._fault(va, access, user, False)
        pte_pa = (pte_frame(pde) << PAGE_SHIFT) + tbl_idx * 4
        pte = self.physmem.read_u32(pte_pa)
        if not pte & PTE_PRESENT:
            raise self._fault(va, access, user, False)
        combined = pde & pte
        if user and not combined & PTE_USER:
            raise self._fault(va, access, user, True)
        if access is AccessType.WRITE and not combined & PTE_WRITABLE:
            raise self._fault(va, access, user, True)
        if access is AccessType.EXEC and pte & PTE_NOEXEC:
            raise self._fault(va, access, user, True)
        if not pde & PTE_ACCESSED:
            self.physmem.write_u32(pde_pa, pde | PTE_ACCESSED)
        new_pte = pte | PTE_ACCESSED
        if access is AccessType.WRITE:
            new_pte |= PTE_DIRTY
        if new_pte != pte:
            self.physmem.write_u32(pte_pa, new_pte)
        return new_pte

    def gstage_walk(self, gstage_root, gpa, access):
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
        """``(hpa, perms, gstage_refs)`` of the full two-stage walk."""
        self.walks += 1
        gstage_refs = 0
        dir_idx, tbl_idx, offset = split_vaddr(va)

        pde_gpa = guest_root + dir_idx * 4
        pde_hpa = self.gstage_walk(gstage_root, pde_gpa, AccessType.READ)
        gstage_refs += 2
        pde = self.physmem.read_u32(pde_hpa)
        if not pde & PTE_PRESENT:
            raise self._fault(va, access, user, False)

        pte_gpa = (pte_frame(pde) << PAGE_SHIFT) + tbl_idx * 4
        pte_hpa = self.gstage_walk(gstage_root, pte_gpa, AccessType.READ)
        gstage_refs += 2
        gpte = self.physmem.read_u32(pte_hpa)
        if not gpte & PTE_PRESENT:
            raise self._fault(va, access, user, False)

        combined = pde & gpte
        if user and not combined & PTE_USER:
            raise self._fault(va, access, user, True)
        if access is AccessType.WRITE and not combined & PTE_WRITABLE:
            raise self._fault(va, access, user, True)
        if access is AccessType.EXEC and gpte & PTE_NOEXEC:
            raise self._fault(va, access, user, True)

        if not pde & PTE_ACCESSED:
            hpa_w = self.gstage_walk(gstage_root, pde_gpa, AccessType.WRITE)
            gstage_refs += 2
            self.physmem.write_u32(hpa_w, pde | PTE_ACCESSED)
        new_gpte = gpte | PTE_ACCESSED
        if access is AccessType.WRITE:
            new_gpte |= PTE_DIRTY
        if new_gpte != gpte:
            hpa_w = self.gstage_walk(gstage_root, pte_gpa, AccessType.WRITE)
            gstage_refs += 2
            self.physmem.write_u32(hpa_w, new_gpte)
            gpte = new_gpte

        gpa = (pte_frame(gpte) << PAGE_SHIFT) | offset
        hpa = self.gstage_walk(gstage_root, gpa, access)
        gstage_refs += 2
        return (hpa, (combined & PTE_USER) | (gpte & PTE_NOEXEC), gstage_refs)


# -- random tables ---------------------------------------------------------

GSTAGE_ROOT = 1 << PAGE_SHIFT  # host frame 1
GSTAGE_TABLES = (2, 3)
#: Guest-physical frames the guest's own tables may sit in (directory
#: slots 0 and 1 of the second stage).
GUEST_FRAMES = [0, 1, 2, 5, 1024, 1025]
DIR_SLOTS = (0, 1, 3)
TABLE_SLOTS = (0, 1, 2, 5, 9)


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

    def host_of(gfn):
        """Where the second stage puts a guest frame (None: nowhere)."""
        pde = pm.read_u32(GSTAGE_ROOT + (gfn >> 10) * 4)
        if not pde & PTE_PRESENT or pte_frame(pde) >= FRAMES:
            return None
        pte = pm.read_u32((pte_frame(pde) << PAGE_SHIFT) + (gfn & 0x3FF) * 4)
        if not pte & PTE_PRESENT or pte_frame(pte) >= FRAMES:
            return None
        return pte_frame(pte)

    guest_root_gfn = rng.choice(GUEST_FRAMES)
    for gfn in GUEST_FRAMES:
        hfn = host_of(gfn)
        if hfn is None:
            continue
        pool = GUEST_FRAMES if gfn == guest_root_gfn else GUEST_FRAMES + [9]
        for slot in (DIR_SLOTS if gfn == guest_root_gfn else TABLE_SLOTS):
            put((hfn << PAGE_SHIFT) + slot * 4, _frame(rng, pool), _flags(rng))
    return bytes(pm._data), guest_root_gfn << PAGE_SHIFT


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
    """``calls`` yields ``(fast_call, reference_call)`` factories over
    (walker, ...); run both sides in lockstep on their own memory."""
    fast_pm, fast_seen = _machine(image)
    ref_pm, ref_seen = _machine(image)
    for make_fast, make_ref, fast, ref in calls(fast_pm, ref_pm):
        got, want = _outcome(make_fast), _outcome(make_ref)
        assert got == want
        assert (fast.walks, fast.faults) == (ref.walks, ref.faults)
        assert getattr(fast, "gstage_faults", 0) == ref.gstage_faults
        assert fast_pm.read_bytes(0, fast_pm.size) == ref_pm.read_bytes(0, ref_pm.size)
        assert fast_seen == ref_seen


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
                       fast, ref)

    _hold_to_reference(image, calls)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_two_stage_walk_matches_reference(seed, gstage_ad):
    image, guest_root = build_tables(seed)

    def calls(fast_pm, ref_pm):
        fast = TwoStageWalker(fast_pm, gstage_ad=gstage_ad)
        ref = ReferenceWalker(ref_pm, gstage_ad=gstage_ad)
        for va in ADDRESSES:
            for access, user in CASES:
                yield (lambda: fast.walk(GSTAGE_ROOT, guest_root, va,
                                         access, user),
                       lambda: ref.two_stage(GSTAGE_ROOT, guest_root, va,
                                             access, user),
                       fast, ref)

    _hold_to_reference(image, calls)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_gstage_walk_matches_reference(seed, gstage_ad):
    """Guest paging off: the address is a gPA, one second-stage walk."""
    image, _guest_root = build_tables(seed)

    def calls(fast_pm, ref_pm):
        fast = TwoStageWalker(fast_pm, gstage_ad=gstage_ad)
        ref = ReferenceWalker(ref_pm, gstage_ad=gstage_ad)
        for gpa in ADDRESSES:
            for access in AccessType:
                yield (lambda: fast.gstage_walk(GSTAGE_ROOT, gpa, access),
                       lambda: ref.gstage_walk(GSTAGE_ROOT, gpa, access),
                       fast, ref)

    _hold_to_reference(image, calls)


def test_random_tables_reach_every_kind_of_outcome():
    """The generator is not vacuous: over a few hundred seeds the
    two-stage reference succeeds, raises both fault types with both
    ``present`` values, runs off the end of RAM, and makes 6, 8 and 10
    second-stage references."""
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
    assert kinds == {("ok", 6), ("ok", 8), ("ok", 10), "MemoryError_",
                     ("PageFault", False), ("PageFault", True),
                     ("GStageFault", False), ("GStageFault", True)}
