"""Fault injection, failure detection, and recovery (experiment E10).

A production VMM is defined as much by what it does when things break
as by its happy path. This package provides the three layers:

* :mod:`repro.faults.injector` -- deterministic, seeded fault schedules
  evaluated at named injection points across every runtime subsystem
  (devices, links, migration, the hypervisor run loop, cluster hosts).
* :mod:`repro.faults.watchdog` -- detection: the guest-progress
  watchdog (hung-VM detection over the retired-instruction heartbeat).
* :mod:`repro.faults.recovery` -- recovery: ReHype-style micro-reboot
  from/with snapshots, and the shared capped-exponential-backoff retry
  policy used by migration. Host failover lives with the placement
  logic in :func:`repro.cluster.placement.failover`.
"""

from repro.faults.injector import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    site_catalog,
)
from repro.faults.recovery import MicroRebooter, RetryPolicy
from repro.faults.watchdog import GuestProgressWatchdog

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "site_catalog",
    "GuestProgressWatchdog",
    "MicroRebooter",
    "RetryPolicy",
]
