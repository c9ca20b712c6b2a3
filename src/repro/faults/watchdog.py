"""Failure detection: the guest-progress watchdog.

Detection is deliberately cheap and hypervisor-side, as in real
platforms: the guest is never trusted to report its own death. The
heartbeat is the vCPU's retired-instruction counter, observed at each
beat of the run loop: a cycle stop every ``BEAT_CYCLES`` of VM time
(:mod:`repro.core.hypervisor`), a timer-driven check as in ReHype. A VM
whose counter freezes for ``idle_beat_limit`` consecutive beats is
declared hung (the run loop returns ``RunOutcome.HUNG``); recovery is a
ReHype-style micro-reboot (:mod:`repro.faults.recovery`).
"""

from repro.obs.registry import counter_attr


class GuestProgressWatchdog:
    """Hung-VM detector over the retired-instruction heartbeat.

    ``beat(instret)`` is called by the hypervisor run loop at each beat
    before it re-enters the guest, so a legally idle (halted) VM, which
    sleeps to its next wakeup instead of beating, cannot false-positive.
    """

    hangs_detected = counter_attr()

    def __init__(self, metrics):
        #: Consecutive beats without a retired instruction that declare
        #: the guest hung.
        self.idle_beat_limit = 6
        self.metrics = metrics
        self.last_instret = None
        self.idle_beats = 0

    def beat(self, instret: int) -> bool:
        """Observe one heartbeat; True when the VM is declared hung."""
        if self.last_instret is None or instret > self.last_instret:
            self.last_instret = instret
            self.idle_beats = 0
            return False
        self.idle_beats += 1
        if self.idle_beats >= self.idle_beat_limit:
            self.hangs_detected += 1
            self.idle_beats = 0  # re-arm for the recovered VM
            return True
        return False

    def __repr__(self) -> str:
        return (f"<GuestProgressWatchdog idle={self.idle_beats}/"
                f"{self.idle_beat_limit} hangs={self.hangs_detected}>")
