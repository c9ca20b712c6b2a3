"""Failure detection: the guest-progress watchdog.

Detection is deliberately cheap and hypervisor-side, as in real
platforms: the guest is never trusted to report its own death. The
heartbeat is the vCPU's retired-instruction counter, observed once per
run-loop pump. A VM whose counter freezes for ``idle_pump_limit``
consecutive pumps is declared hung (the run loop returns
``RunOutcome.HUNG``); recovery is a ReHype-style micro-reboot
(:mod:`repro.faults.recovery`).
"""

from repro.obs.registry import counter_attr


class GuestProgressWatchdog:
    """Hung-VM detector over the retired-instruction heartbeat.

    ``beat(instret)`` is called by the hypervisor run loop immediately
    before each guest entry (so legally-idle halted VMs, which never
    reach guest entry without pending work, cannot false-positive).
    """

    hangs_detected = counter_attr()

    def __init__(self, metrics):
        #: Consecutive pumps without a retired instruction that declare
        #: the guest hung.
        self.idle_pump_limit = 6
        self.metrics = metrics
        self.last_instret = None
        self.idle_pumps = 0
        self.pumps = 0

    def beat(self, instret: int) -> bool:
        """Observe one heartbeat; True when the VM is declared hung."""
        self.pumps += 1
        if self.last_instret is None or instret > self.last_instret:
            self.last_instret = instret
            self.idle_pumps = 0
            return False
        self.idle_pumps += 1
        if self.idle_pumps >= self.idle_pump_limit:
            self.hangs_detected += 1
            self.idle_pumps = 0  # re-arm for the recovered VM
            return True
        return False

    def __repr__(self) -> str:
        return (f"<GuestProgressWatchdog idle={self.idle_pumps}/"
                f"{self.idle_pump_limit} hangs={self.hangs_detected}>")
