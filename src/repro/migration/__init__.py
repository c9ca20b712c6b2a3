"""Live migration (experiment E6).

Two complementary implementations:

* :mod:`repro.migration.model` -- discrete-event models of pre-copy,
  post-copy, and stop-and-copy over a shared
  :class:`~repro.sim.link.NetworkLink`, with a two-class (hot/cold)
  writable-working-set dirty model. Generates the downtime/total-time
  curves versus dirty rate.
* :mod:`repro.migration.live` -- a *functional* live migrator for real
  instruction-engine VMs: iterative pre-copy rounds with true dirty
  logging (shadow or EPT write protection plus the VMM write hooks),
  final stop-and-copy of the residual set and vCPU/device state, and
  resume on the destination hypervisor. The migrated guest keeps
  running and exits with the correct result -- memory-identity is
  testable, not assumed. Transfers retry under a capped exponential
  backoff and resume from the dirty bitmap when a link drops
  (experiment E10); see :mod:`repro.faults`.
"""

from repro.migration.model import (
    MigrationConfig,
    MigrationResult,
    simulate_precopy,
    simulate_postcopy,
    simulate_stop_and_copy,
    unique_pages_dirtied,
)
from repro.migration.live import LiveMigrator, LiveMigrationResult
from repro.migration.postcopy import PostCopyMigrator, PostCopyResult

__all__ = [
    "PostCopyMigrator",
    "PostCopyResult",
    "MigrationConfig",
    "MigrationResult",
    "simulate_precopy",
    "simulate_postcopy",
    "simulate_stop_and_copy",
    "unique_pages_dirtied",
    "LiveMigrator",
    "LiveMigrationResult",
]
