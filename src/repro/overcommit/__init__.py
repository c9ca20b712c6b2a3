"""Memory overcommit (experiment E7).

Functional mechanisms over real VMs (instruction engine):

* :mod:`repro.overcommit.sharing` -- content-based page sharing: a
  KSM-style scanner fingerprints guest frames, merges duplicates across
  VMs onto one host frame, write-protects sharers, and breaks
  copy-on-write on the first write fault (Waldspurger, OSDI'02).
* :mod:`repro.overcommit.swap` -- host-level swap: evicted guest frames
  are stashed host-side and paged back in on demand through the shadow
  fill hook / EPT violation hook.
* :mod:`repro.overcommit.wss` -- working-set estimation by access-bit
  sampling over the guest's real page tables.
* Ballooning itself is a hypercall (``BALLOON_GIVE``/``BALLOON_TAKE``
  in :class:`repro.core.hypervisor.HypercallNumbers`) driven by the
  guest; :mod:`repro.overcommit.balloon` provides the host-side policy
  computing per-VM targets.

* :mod:`repro.overcommit.controller` -- the closed loop over all of the
  above: per-tick WSS sampling feeds balloon targets (with hysteresis),
  periodic sharing scans reclaim duplicates, and host swap is the
  watermark-triggered last resort.

Plus :mod:`repro.overcommit.model`: the analytic host-memory model that
generates E7's overcommit-ratio versus degradation table.
"""

from repro.overcommit.sharing import PageSharer, ScanResult
from repro.overcommit.swap import HostSwap
from repro.overcommit.wss import (
    accessed_gfns,
    clear_access_bits,
    count_accessed,
    estimate_wss,
)
from repro.overcommit.balloon import BalloonPolicy, BalloonTarget
from repro.overcommit.controller import MemoryPressureController, TickRecord
from repro.overcommit.model import (
    PolicyOutcome,
    VMDemand,
    PolicyKind,
    evaluate_policy,
)

__all__ = [
    "PageSharer",
    "ScanResult",
    "HostSwap",
    "MemoryPressureController",
    "TickRecord",
    "accessed_gfns",
    "estimate_wss",
    "clear_access_bits",
    "count_accessed",
    "BalloonPolicy",
    "BalloonTarget",
    "PolicyOutcome",
    "VMDemand",
    "PolicyKind",
    "evaluate_policy",
]
