"""Software TLB."""

import pytest

from repro.mem.paging import (
    AccessType,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_NOEXEC,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    make_pte,
)
from repro.mem.tlb import TLB


def entry(pfn=1, flags=PTE_PRESENT | PTE_WRITABLE | PTE_USER | PTE_ACCESSED | PTE_DIRTY):
    return make_pte(pfn, flags)


def test_miss_then_hit():
    tlb = TLB(4)
    assert tlb.lookup(5, AccessType.READ, user=False) is None
    tlb.insert(5, entry())
    assert tlb.lookup(5, AccessType.READ, user=False) == entry()
    assert tlb.stats.misses == 1 and tlb.stats.hits == 1


def test_lru_eviction_order():
    tlb = TLB(2)
    tlb.insert(1, entry(1))
    tlb.insert(2, entry(2))
    tlb.lookup(1, AccessType.READ, user=False)  # 1 becomes MRU
    tlb.insert(3, entry(3))  # evicts 2
    assert 1 in tlb and 3 in tlb and 2 not in tlb
    assert tlb.stats.evictions == 1


def test_user_bit_enforced_on_hit():
    tlb = TLB(4)
    tlb.insert(1, entry(flags=PTE_PRESENT | PTE_ACCESSED))  # kernel-only
    assert tlb.lookup(1, AccessType.READ, user=True) is None  # miss
    assert tlb.lookup(1, AccessType.READ, user=False) is not None


def test_write_requires_writable_and_dirty():
    tlb = TLB(4)
    # writable but not dirty: a write must miss (hardware re-walks to
    # set D before the store commits).
    tlb.insert(1, entry(flags=PTE_PRESENT | PTE_WRITABLE | PTE_ACCESSED))
    assert tlb.lookup(1, AccessType.WRITE, user=False) is None
    tlb.insert(1, entry(flags=PTE_PRESENT | PTE_WRITABLE | PTE_ACCESSED | PTE_DIRTY))
    assert tlb.lookup(1, AccessType.WRITE, user=False) is not None
    # read-only entry also misses on write
    tlb.insert(2, entry(flags=PTE_PRESENT | PTE_ACCESSED | PTE_DIRTY))
    assert tlb.lookup(2, AccessType.WRITE, user=False) is None


def test_noexec_blocks_fetch_hits():
    tlb = TLB(4)
    tlb.insert(1, entry(flags=PTE_PRESENT | PTE_ACCESSED | PTE_NOEXEC))
    assert tlb.lookup(1, AccessType.EXEC, user=False) is None
    assert tlb.lookup(1, AccessType.READ, user=False) is not None


def test_invalidate_single_entry():
    tlb = TLB(4)
    tlb.insert(1, entry())
    tlb.insert(2, entry())
    tlb.invalidate(1)
    assert 1 not in tlb and 2 in tlb
    assert tlb.stats.invalidations == 1
    tlb.invalidate(99)  # not present: no count
    assert tlb.stats.invalidations == 1


def test_flush_clears_everything():
    tlb = TLB(4)
    for vpn in range(4):
        tlb.insert(vpn, entry())
    tlb.flush()
    assert len(tlb) == 0
    assert tlb.stats.flushes == 1


def test_reinsert_updates_in_place():
    tlb = TLB(2)
    tlb.insert(1, entry(pfn=1))
    tlb.insert(1, entry(pfn=2))
    assert len(tlb) == 1
    pte = tlb.lookup(1, AccessType.READ, user=False)
    assert pte >> 12 == 2


def test_capacity_validation():
    with pytest.raises(ValueError):
        TLB(0)
