"""Byte-addressable physical memory and the frame allocator."""

import mmap
import struct
from typing import Callable, Dict, List, Set, Tuple

from repro.util.errors import MemoryError_
from repro.util.units import PAGE_SHIFT, PAGE_SIZE

_U32 = struct.Struct("<I")
ZERO_PAGE = bytes(PAGE_SIZE)


class PhysicalMemory:
    """A flat physical address space backed by a private anonymous
    mapping: it reads as zero, and the host backs a page only when it is
    first written, as a hypervisor backs guest RAM. Private, so a forked
    worker's stores stay its own.

    All accessors bounds-check and raise :class:`MemoryError_` on
    out-of-range addresses -- a guest must never be able to corrupt the
    simulator by wandering off the end of RAM.
    """

    def __init__(self, nbytes: int):
        if nbytes <= 0 or nbytes % PAGE_SIZE != 0:
            raise MemoryError_(
                f"physical memory size must be a positive multiple of "
                f"{PAGE_SIZE}, got {nbytes}"
            )
        self.size = nbytes
        self.num_frames = nbytes >> PAGE_SHIFT
        self._data = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
        #: The same bytes, sliceable without a copy (bulk reads make one).
        self._view = memoryview(self._data)
        #: Write watchers: (watched pfn set, callback(pfn)). The caller
        #: owns and mutates the set; the callback fires after any store
        #: that touches a watched frame. Each CPU core uses this to drop
        #: its compiled and translated code on code-page writes.
        self._watchers: List[Tuple[Set[int], Callable[[int], None]]] = []

    def watch_writes(
        self, frames: Set[int], callback: Callable[[int], None]
    ) -> None:
        """Register a write watcher over ``frames`` (a live, caller-owned set)."""
        self._watchers.append((frames, callback))

    def unwatch_writes(self, callback: Callable[[int], None]) -> None:
        """Remove the watcher registered with ``callback`` (no-op if none).

        Whoever tears down a core on long-lived memory calls this:
        a watcher left behind is walked by every later store and keeps
        the dead core, and everything it compiled, reachable.
        """
        self._watchers = [w for w in self._watchers if w[1] != callback]

    def _notify(self, pa: int, length: int) -> None:
        first = pa >> PAGE_SHIFT
        last = (pa + length - 1) >> PAGE_SHIFT
        for frames, callback in self._watchers:
            if first in frames:
                callback(first)
            if last != first:
                for pfn in range(first + 1, last + 1):
                    if pfn in frames:
                        callback(pfn)

    # -- scalar access ----------------------------------------------------

    def read_u8(self, pa: int) -> int:
        self._check(pa, 1)
        return self._data[pa]

    def write_u8(self, pa: int, value: int) -> None:
        self._check(pa, 1)
        self._data[pa] = value & 0xFF
        if self._watchers:
            self._notify(pa, 1)

    def read_u32(self, pa: int) -> int:
        if pa < 0 or pa + 4 > self.size:
            self._check(pa, 4)
        return _U32.unpack_from(self._data, pa)[0]

    def write_u32(self, pa: int, value: int) -> None:
        if pa < 0 or pa + 4 > self.size:
            self._check(pa, 4)
        _U32.pack_into(self._data, pa, value & 0xFFFFFFFF)
        if self._watchers:
            self._notify(pa, 4)

    # -- bulk access --------------------------------------------------------

    def read_bytes(self, pa: int, length: int) -> bytes:
        if pa < 0 or pa + length > self.size:
            self._check(pa, length)
        return bytes(self._view[pa : pa + length])

    def write_bytes(self, pa: int, data: bytes) -> None:
        if pa < 0 or pa + len(data) > self.size:
            self._check(pa, len(data))
        self._data[pa : pa + len(data)] = data
        if self._watchers and data:
            self._notify(pa, len(data))

    def read_frame(self, pfn: int) -> bytes:
        return self.read_bytes(pfn << PAGE_SHIFT, PAGE_SIZE)

    def write_frame(self, pfn: int, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise MemoryError_(f"frame write needs {PAGE_SIZE} bytes, got {len(data)}")
        self.write_bytes(pfn << PAGE_SHIFT, data)

    def zero_frame(self, pfn: int) -> None:
        base = pfn << PAGE_SHIFT
        if base < 0 or base + PAGE_SIZE > self.size:
            self._check(base, PAGE_SIZE)
        self._data[base : base + PAGE_SIZE] = ZERO_PAGE
        if self._watchers:
            self._notify(base, PAGE_SIZE)

    def _check(self, pa: int, length: int) -> None:
        if pa < 0 or pa + length > self.size:
            raise MemoryError_(
                f"physical access [{pa:#x}, {pa + length:#x}) outside "
                f"RAM of {self.size:#x} bytes"
            )


class WriteLog:
    """Which of ``frames`` (``{key: pfn}``) were stored to since the last
    :meth:`zero_written` (all of them before the first): a write watcher
    that moves a frame out of ``unwritten`` on its first store, so is not
    called for it again. Exact while every store reaches ``_notify`` and
    nothing outside :class:`PhysicalMemory` writes ``_data``."""

    def __init__(self, physmem: PhysicalMemory, frames: Dict[int, int]):
        self.physmem, self.frames = physmem, dict(frames)
        self._keys = {pfn: key for key, pfn in self.frames.items()}
        self.unwritten: Set[int] = set()
        self.written: List[int] = list(self.frames.values())
        physmem.watch_writes(self.unwritten, self._first_store)

    def _first_store(self, pfn: int) -> None:
        self.unwritten.remove(pfn)
        self.written.append(pfn)

    def zero_written(self) -> None:
        for pfn in self.written:
            self.physmem.zero_frame(pfn)
        self.unwritten.update(self.written)
        self.written.clear()

    def nonzero(self) -> Dict[int, bytes]:
        """``{key: frame bytes}`` of the frames written since the last
        :meth:`zero_written` that are not all zero; no other frame is read."""
        view, keys = self.physmem._view, self._keys
        pages = {keys[pfn]: bytes(view[pfn << PAGE_SHIFT : (pfn + 1) << PAGE_SHIFT])
                 for pfn in self.written}
        return {key: page for key, page in pages.items() if page != ZERO_PAGE}

    def close(self) -> None:
        self.physmem.unwatch_writes(self._first_store)


class FrameAllocator:
    """Free-list allocator over a :class:`PhysicalMemory`.

    Frames below ``reserved_frames`` are never handed out (firmware /
    VMM-owned low memory). A frame handed out with ``zero`` reads zero,
    but only a frame back from :meth:`free` is zero-filled: only the
    allocator's callers store to ``physmem``, so a fresh frame already
    reads zero and is not touched (unbacked until stored to).
    """

    def __init__(self, physmem: PhysicalMemory, reserved_frames: int):
        if reserved_frames < 0 or reserved_frames > physmem.num_frames:
            raise MemoryError_(
                f"reserved_frames {reserved_frames} out of range "
                f"(0..{physmem.num_frames})"
            )
        self.physmem = physmem
        self.reserved_frames = reserved_frames
        #: Frames given back, handed out again last-in, first-out.
        self._freed: List[int] = []
        #: The lowest frame never handed out; all above it are free too.
        self._fresh = reserved_frames
        self._allocated = set()

    @property
    def free_frames(self) -> int:
        return len(self._freed) + self.physmem.num_frames - self._fresh

    def alloc(self, zero: bool = True) -> int:
        """Allocate one frame; returns its PFN."""
        if self._freed:
            pfn = self._freed.pop()
            if zero:
                self.physmem.zero_frame(pfn)
        elif self._fresh < self.physmem.num_frames:
            pfn, self._fresh = self._fresh, self._fresh + 1
        else:
            raise MemoryError_("out of physical frames")
        self._allocated.add(pfn)
        return pfn

    def free(self, pfn: int) -> None:
        if pfn not in self._allocated:
            raise MemoryError_(f"double free or foreign frame {pfn}")
        self._allocated.remove(pfn)
        self._freed.append(pfn)
