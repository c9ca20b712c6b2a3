"""pyvisor: a full-system virtualization platform in pure Python.

Subpackages (see README.md for the architecture overview):

* :mod:`repro.util` -- units, RNG, statistics, tables.
* :mod:`repro.sim` -- the discrete-event simulation kernel.
* :mod:`repro.cpu` -- the VISA ISA: interpreter, assembler, MMU interface.
* :mod:`repro.mem` -- physical memory, page tables, TLB, cost model.
* :mod:`repro.devices` -- port bus, PIC, timer, console, disk/NIC
  (emulated and virtio flavours).
* :mod:`repro.core` -- the hypervisor: execution modes, shadow/nested
  paging, the native machine, snapshots.
* :mod:`repro.guest` -- NanoOS (the guest kernel) and its workloads.
* :mod:`repro.sched` -- vCPU schedulers (credit, stride, round-robin).
* :mod:`repro.migration` -- live migration: models, functional pre-copy
  and post-copy.
* :mod:`repro.overcommit` -- ballooning, page sharing, host swap, WSS.
* :mod:`repro.cluster` -- placement, consolidation, power, balancing,
  host failover.
* :mod:`repro.faults` -- deterministic fault injection, watchdogs, and
  recovery (micro-reboot, retry/backoff).
* :mod:`repro.obs` -- the shared observability substrate: metrics
  registry, dual-timebase clocks, run manifests.
* :mod:`repro.bench` -- experiment runners (E1-E10).

Command line: ``python -m repro list | run <exp> | boot``.

The exception hierarchy and the most commonly used entry points are
re-exported here, so ``import repro`` suffices for embedding:
``repro.Hypervisor``, ``repro.GuestConfig``, ``repro.FaultInjector``,
and every ``repro.*Error`` class (all deriving from
:class:`repro.ReproError`).
"""

from repro.util.errors import (
    ConfigError,
    DeviceError,
    FaultError,
    GuestError,
    LinkError,
    MemoryError_,
    MigrationError,
    ReproError,
    SchedulerError,
)
from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.core.snapshot import VMSnapshot, restore_vm, snapshot_vm
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    GuestProgressWatchdog,
    MicroRebooter,
    RetryPolicy,
)
from repro.migration import LiveMigrator, LiveMigrationResult
from repro.obs import (
    ManualClock,
    MetricsRegistry,
    MetricsScope,
    SimClock,
    build_manifest,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # exception hierarchy
    "ReproError",
    "ConfigError",
    "GuestError",
    "MemoryError_",
    "DeviceError",
    "MigrationError",
    "SchedulerError",
    "LinkError",
    "FaultError",
    # core entry points
    "Hypervisor",
    "GuestConfig",
    "VirtMode",
    "MMUVirtMode",
    "RunOutcome",
    "VMSnapshot",
    "snapshot_vm",
    "restore_vm",
    # migration
    "LiveMigrator",
    "LiveMigrationResult",
    # faults / detection / recovery
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "GuestProgressWatchdog",
    "MicroRebooter",
    "RetryPolicy",
    # observability
    "MetricsRegistry",
    "MetricsScope",
    "ManualClock",
    "SimClock",
    "build_manifest",
]
