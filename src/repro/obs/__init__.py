"""repro.obs: the unified observability substrate.

One :class:`MetricsRegistry` per run, dotted-path namespaced, stamped by
a :class:`Clock` whose timebase matches the world that owns it
(:class:`SimClock` for the DES side, :class:`ManualClock` elsewhere).
The one trace is the hypervisor's exit log, ``Hypervisor.trace``.
"""

from repro.obs.clock import Clock, ManualClock, SimClock
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    SUBSYSTEMS,
    build_manifest,
    register_baseline,
    subsystem_of,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    counter_attr,
)

__all__ = [
    "Clock",
    "ManualClock",
    "SimClock",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "counter_attr",
    "MANIFEST_SCHEMA",
    "SUBSYSTEMS",
    "build_manifest",
    "register_baseline",
    "subsystem_of",
]
