"""Software-simulated TLB with LRU replacement and full statistics.

The TLB caches (virtual page number -> leaf PTE) pairs. Separate entries
are *not* kept per access type; permission bits are re-checked from the
cached PTE on every hit, exactly as hardware does, so a write to a page
cached by a read still faults (or misses to set the dirty bit -- see
``write_requires_dirty``).
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.mem.paging import (
    AccessType,
    PTE_DIRTY,
    PTE_NOEXEC,
    PTE_USER,
    PTE_WRITABLE,
)

#: Bound once: an enum member is a metaclass lookup on every use.
_WRITE, _EXEC = AccessType.WRITE, AccessType.EXEC


@dataclass
class TLBStats:
    """Hit/miss/flush accounting."""

    hits: int = 0
    misses: int = 0
    flushes: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> "TLBStats":
        snapshot = TLBStats(
            self.hits, self.misses, self.flushes, self.invalidations, self.evictions
        )
        self.hits = self.misses = self.flushes = 0
        self.invalidations = self.evictions = 0
        return snapshot


class TLB:
    """Fixed-capacity, fully-associative, LRU translation cache."""

    def __init__(self, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[int, int]" = OrderedDict()  # vpn -> pte
        self.stats = TLBStats()
        #: Bumped whenever a cached translation disappears or changes
        #: (flush, invalidation, eviction, PTE update). Fast paths that
        #: memoize a translation snapshot the epoch and revalidate with
        #: one integer compare instead of a full lookup.
        self.epoch = 0
        #: Bound alias of ``self._entries.get``: the cached leaf PTE for
        #: a vpn (or None) with no permission check, no stats, no LRU
        #: touch. The JIT's inline caches revalidate by comparing this
        #: against the PTE they cached at fill time -- equality implies
        #: the reference :meth:`lookup` would hit with the identical
        #: outcome for the same (access, user), because the permission
        #: result is a pure function of the PTE value. Any invalidation
        #: source (invlpg, flush/root switch, eviction, PTE change)
        #: either removes the entry or changes its value, so the compare
        #: fails and the fast path falls back to the reference walk.
        self.entry_get = self._entries.get

    def lookup(self, vpn: int, access: AccessType, user: bool) -> Optional[int]:
        """Return the cached PTE if present and permitting; else None (miss).

        A cached entry lacking the dirty bit misses on writes, forcing a
        walk that sets D -- this is how hardware guarantees the dirty bit
        is set before the first store becomes visible, and it is what the
        migration dirty-tracking code relies on.
        """
        pte = self._entries.get(vpn)
        if pte is None:
            self.stats.misses += 1
            return None
        if user and not pte & PTE_USER:
            self.stats.misses += 1
            return None
        if access is _WRITE and (
            not pte & PTE_WRITABLE or not pte & PTE_DIRTY
        ):
            self.stats.misses += 1
            return None
        if access is _EXEC and pte & PTE_NOEXEC:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(vpn)
        self.stats.hits += 1
        return pte

    def peek(self, vpn: int, access: AccessType, user: bool) -> Optional[int]:
        """Like :meth:`lookup` but with **no side effects**.

        Does not count a hit or miss and does not refresh LRU order, so
        callers (the block-compiler's fetch memo) can probe the TLB
        without perturbing the simulated replacement behaviour.
        """
        pte = self._entries.get(vpn)
        if pte is None:
            return None
        if user and not pte & PTE_USER:
            return None
        if access is _WRITE and (
            not pte & PTE_WRITABLE or not pte & PTE_DIRTY
        ):
            return None
        if access is _EXEC and pte & PTE_NOEXEC:
            return None
        return pte

    def insert(self, vpn: int, pte: int) -> None:
        """Cache a translation, evicting LRU if full."""
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
            if self._entries[vpn] != pte:
                self.epoch += 1
            self._entries[vpn] = pte
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self.epoch += 1
        self._entries[vpn] = pte

    def invalidate(self, vpn: int) -> None:
        """Drop one translation (INVLPG)."""
        if self._entries.pop(vpn, None) is not None:
            self.stats.invalidations += 1
            self.epoch += 1

    def flush(self) -> None:
        """Drop everything (page-table base switch)."""
        self.stats.flushes += 1
        self._entries.clear()
        self.epoch += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries
