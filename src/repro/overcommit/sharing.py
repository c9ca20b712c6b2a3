"""Content-based page sharing with copy-on-write.

The scanner reads each mapped guest frame across every registered VM
once, groups the frames by their bytes (a dict: its key equality is the
byte-for-byte check), re-points duplicate gfns at one canonical host
frame, frees the duplicates, and write-protects every sharer. A write to
a shared page takes the dirty-log exit path; the sharer claims it off the
hypervisor's write-fault dispatch chain and
:meth:`PageSharer.on_write_fault` breaks the share with a private copy.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.hypervisor import Hypervisor
from repro.core.vm import VirtualMachine
from repro.obs.registry import counter_attr
from repro.util.errors import MemoryError_
from repro.util.units import PAGE_SHIFT


@dataclass
class ScanResult:
    """Outcome of one scan pass."""

    frames_scanned: int = 0
    pages_merged: int = 0
    frames_freed: int = 0
    shared_frames: int = 0

    @property
    def bytes_saved(self) -> int:
        return self.frames_freed << PAGE_SHIFT


class PageSharer:
    """KSM-style cross-VM page deduplication."""

    cow_breaks = counter_attr()

    def __init__(self, hypervisor: Hypervisor):
        self.hv = hypervisor
        self.metrics = hypervisor.registry.scope("overcommit.sharing")
        self._ops = hypervisor.registry.counter("overcommit.operations")
        #: canonical hfn -> reference count (number of gfn mappings).
        self.refcount: Dict[int, int] = {}
        #: (vm name, gfn) pairs currently sharing a frame.
        self._sharers: Set[Tuple[str, int]] = set()
        if hypervisor.sharing is not None:
            # Replacing a previous sharer: retire its COW claim first.
            hypervisor.unregister_write_fault_handler(
                hypervisor.sharing._claim_write_fault
            )
        hypervisor.sharing = self
        hypervisor.register_write_fault_handler(
            self._claim_write_fault, name="cow_break"
        )

    # -- scanning ---------------------------------------------------------

    def scan(self, vms: Optional[List[VirtualMachine]] = None) -> ScanResult:
        """One full pass: merge all byte-identical mapped frames."""
        if vms is None:
            vms = list(self.hv.vms.values())
        result = ScanResult()
        read_frame = self.hv.physmem.read_frame
        by_content: Dict[bytes, List[Tuple[VirtualMachine, int, int]]] = {}
        for vm in vms:
            for gfn, hfn in sorted(vm.guest_mem.map.items()):
                result.frames_scanned += 1
                by_content.setdefault(read_frame(hfn), []).append(
                    (vm, gfn, hfn))
        for group in by_content.values():
            if len(group) > 1:
                self._merge_group(group, result)
        result.shared_frames = len(self.refcount)
        m = self.metrics
        m.counter("scans").inc()
        m.counter("frames_scanned").inc(result.frames_scanned)
        m.counter("pages_merged").inc(result.pages_merged)
        m.counter("frames_freed").inc(result.frames_freed)
        self._ops.inc()
        return result

    def _merge_group(self, group, result: ScanResult) -> None:
        """Merge ``group``'s byte-identical frames into its first."""
        # Within-group mapping counts per frame: a pre-existing
        # alias (two gfns already sharing one *untracked* frame)
        # must only be freed once its last group reference drops.
        alias_refs: Dict[int, int] = {}
        for _vm, _gfn, hfn in group:
            alias_refs[hfn] = alias_refs.get(hfn, 0) + 1
        canon_vm, canon_gfn, canon_hfn = group[0]
        self._mmu(canon_vm).write_protect_gfn(canon_gfn)
        self.refcount.setdefault(canon_hfn, 1)
        self._sharers.add((canon_vm.name, canon_gfn))
        for vm, gfn, hfn in group[1:]:
            if hfn == canon_hfn:
                # Already aliasing the canonical frame. It still
                # must be write-protected, refcounted, and tracked:
                # an untracked alias lets a guest write mutate the
                # shared frame under every other sharer.
                if (vm.name, gfn) not in self._sharers:
                    self.refcount[canon_hfn] += 1
                    self._mmu(vm).write_protect_gfn(gfn)
                    self._sharers.add((vm.name, gfn))
                    result.pages_merged += 1
                continue
            self._sharers.discard((vm.name, gfn))
            alias_refs[hfn] -= 1
            if hfn in self.refcount:
                # Previously shared: the refcount protocol decides.
                if self.release_frame(hfn):
                    self.hv.allocator.free(hfn)
                    result.frames_freed += 1
            elif alias_refs[hfn] == 0:
                # Untracked frame: free once the last group alias
                # is gone (usually immediately -- aliases are rare).
                self.hv.allocator.free(hfn)
                result.frames_freed += 1
            vm.guest_mem.map_page(gfn, canon_hfn)
            self.refcount[canon_hfn] += 1
            self._mmu(vm).rebind_gfn(gfn, canon_hfn, writable=False)
            self._sharers.add((vm.name, gfn))
            result.pages_merged += 1

    # -- write-fault interception (claimed off the dispatch chain) --------

    def handles(self, vm: VirtualMachine, gfn: int) -> bool:
        return (vm.name, gfn) in self._sharers

    def _claim_write_fault(self, vm: VirtualMachine, gfn: int) -> bool:
        """Write-fault chain entry: claim shared pages, decline the rest."""
        if not self.handles(vm, gfn):
            return False
        self.on_write_fault(vm, gfn)
        return True

    def on_write_fault(self, vm: VirtualMachine, gfn: int) -> None:
        """Break copy-on-write: give the writer a private copy."""
        if (vm.name, gfn) not in self._sharers:
            raise MemoryError_(f"COW break for non-shared ({vm.name}, {gfn})")
        shared_hfn = vm.guest_mem.map[gfn]
        new_hfn = self.hv.allocator.alloc(zero=False)
        self.hv.physmem.write_frame(
            new_hfn, self.hv.physmem.read_frame(shared_hfn))
        vm.guest_mem.map_page(gfn, new_hfn)
        self._mmu(vm).rebind_gfn(gfn, new_hfn, writable=True)
        self._sharers.discard((vm.name, gfn))
        self.cow_breaks += 1
        self._ops.inc()
        if self.release_frame(shared_hfn):
            # Last reference went away entirely (e.g. balloon raced us).
            self.hv.allocator.free(shared_hfn)

    def drop_mapping(self, vm: VirtualMachine, gfn: int, hfn: int) -> bool:
        """One (vm, gfn) -> hfn mapping is going away for good (balloon
        give, VM teardown): forget its share tracking and drop the
        frame reference. Returns True iff the caller must free ``hfn``.
        """
        self._sharers.discard((vm.name, gfn))
        return self.release_frame(hfn)

    def release_frame(self, hfn: int) -> bool:
        """Drop one mapping reference.

        Returns True iff no references remain and the caller must free
        the frame. A never-shared frame trivially returns True (the
        caller held its only reference).
        """
        count = self.refcount.get(hfn)
        if count is None:
            return True
        count -= 1
        if count == 0:
            del self.refcount[hfn]
            return True
        self.refcount[hfn] = count
        return False

    # -- MMU plumbing ------------------------------------------------------

    def _mmu(self, vm: VirtualMachine):
        return vm.vcpus[0].cpu.mmu
