"""Recovery actions: ReHype-style micro-reboot and retry/backoff policy.

Micro-reboot (Le & Tamir, ReHype): when the *virtualization layer*
around a VM wedges -- a stalled vCPU loop, corrupted shadow/EPT
structures -- the guest itself is usually still intact. Recovery
rebuilds the hypervisor-private state (fresh VM container, MMU,
device models) while preserving the guest-visible state: memory, vCPU
registers, device-architectural state.

:class:`RetryPolicy` is the shared capped-exponential-backoff schedule
used by migration transfer retries (and available to any other
subsystem with transient faults).
"""

from dataclasses import dataclass

from repro.core.snapshot import restore_vm, snapshot_vm
from repro.obs.registry import counter_attr
from repro.util.errors import ConfigError


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
    """Per-hypervisor micro-reboot service.

    ``reboot(vm)`` tears the wedged VM down and restores it into a fresh
    container, taking guest memory and vCPU/device state from the
    *live* VM (ReHype: the guest outlives the hypervisor fault).
    """

    reboots = counter_attr()

    def __init__(self, hypervisor):
        self.hv = hypervisor
        self.metrics = hypervisor.registry.scope("faults.recovery")

    def reboot(self, vm):
        """Micro-reboot ``vm``; returns the recovered (paused) VM."""
        snap = snapshot_vm(vm)  # the guest survives the reboot
        name = vm.name
        self.hv.destroy_vm(vm)
        recovered = restore_vm(self.hv, snap, name=name)
        self.reboots += 1
        return recovered
