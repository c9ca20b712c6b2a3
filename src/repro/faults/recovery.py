"""Recovery actions: ReHype-style micro-reboot and retry/backoff policy.

Micro-reboot (Le & Tamir, ReHype): when the *virtualization layer*
around a VM wedges -- a stalled vCPU loop, corrupted shadow/EPT
structures -- the guest itself is usually still intact. Recovery
rebuilds the hypervisor-private state (fresh VM container, MMU,
device models) while preserving the guest-visible state: memory, vCPU
registers, device-architectural state. Pages known to be corrupted are
the exception -- those roll back to the latest checkpoint.

:class:`RetryPolicy` is the shared capped-exponential-backoff schedule
used by migration transfer retries (and available to any other
subsystem with transient faults).
"""

from dataclasses import dataclass
from typing import Dict, Set

from repro.core.snapshot import VMSnapshot, restore_vm, snapshot_vm
from repro.obs.registry import counter_attr
from repro.util.errors import ConfigError
from repro.util.units import PAGE_SIZE

_ZERO_PAGE = b"\x00" * PAGE_SIZE


#: Backoff before the first retry, and the cap every later one doubles to.
BACKOFF_BASE_CYCLES = 10_000
BACKOFF_CAP_CYCLES = 160_000


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: base * 2^(attempt-1), clamped to cap."""

    max_retries: int = 4

    def validate(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")

    def backoff_cycles(self, attempt: int) -> int:
        """Backoff before retry ``attempt`` (1-based)."""
        if attempt <= 0:
            raise ConfigError("retry attempts are 1-based")
        return min(BACKOFF_CAP_CYCLES,
                   BACKOFF_BASE_CYCLES << (attempt - 1))

    def cumulative_backoff_cycles(self, attempts: int) -> int:
        """Total backoff spent across retries 1..``attempts``.

        The worst case (``attempts == max_retries``) is the budget a
        giveup curve charges before abandoning a transfer.
        """
        if attempts < 0:
            raise ConfigError("attempts must be non-negative")
        return sum(self.backoff_cycles(a) for a in range(1, attempts + 1))


class MicroRebooter:
    """Per-hypervisor micro-reboot service with periodic checkpoints.

    ``checkpoint(vm)`` stores the VM's latest snapshot (serialized, as a
    crash-consistent backup would be). ``reboot(vm)`` tears the wedged
    VM down and restores it into a fresh container:

    * guest memory and vCPU/device state are taken from the *live* VM
      (ReHype: the guest outlives the hypervisor fault), except
    * pages previously reported via :meth:`mark_corrupted`, which are
      restored from the latest checkpoint instead.
    """

    reboots = counter_attr()
    checkpoints_taken = counter_attr()

    def __init__(self, hypervisor):
        self.hv = hypervisor
        self.metrics = hypervisor.registry.scope("faults.recovery")
        self._checkpoints: Dict[str, bytes] = {}
        self._corrupted: Dict[str, Set[int]] = {}

    def checkpoint(self, vm) -> VMSnapshot:
        """Store (and return) a fresh snapshot of ``vm``."""
        snap = snapshot_vm(vm)
        self._checkpoints[vm.name] = snap.to_bytes()
        self.checkpoints_taken += 1
        return snap

    def has_checkpoint(self, name: str) -> bool:
        return name in self._checkpoints

    def mark_corrupted(self, vm_name: str, gfns) -> None:
        """Report guest pages whose contents can no longer be trusted."""
        self._corrupted.setdefault(vm_name, set()).update(gfns)

    def reboot(self, vm):
        """Micro-reboot ``vm``; returns the recovered (paused) VM."""
        corrupted = self._corrupted.pop(vm.name, set())
        snap = snapshot_vm(vm)  # the guest survives the reboot
        if corrupted:
            self._patch_corrupted(vm.name, snap, corrupted)
        name = vm.name
        self.hv.destroy_vm(vm)
        recovered = restore_vm(self.hv, snap, name=name)
        self.reboots += 1
        return recovered

    # -- internals ---------------------------------------------------------

    def _restore_checkpoint(self, name: str) -> VMSnapshot:
        blob = self._checkpoints.get(name)
        if blob is None:
            raise ConfigError(
                f"no checkpoint stored for VM {name!r}; cannot roll back"
            )
        return VMSnapshot.from_bytes(blob)

    def _patch_corrupted(self, name: str, snap: VMSnapshot,
                         corrupted: Set[int]) -> None:
        """Replace corrupted pages in ``snap`` with checkpointed content."""
        good = self._restore_checkpoint(name)
        for gfn in corrupted:
            content = good.pages.get(gfn)
            if gfn not in good.mapped_gfns:
                # Page did not exist at checkpoint time: drop it to zero
                # rather than keep poisoned content.
                content = _ZERO_PAGE
            snap.pages[gfn] = content if content is not None else _ZERO_PAGE
            if snap.pages[gfn] == _ZERO_PAGE:
                del snap.pages[gfn]  # snapshots elide zero pages
