"""Common infrastructure shared by every pyvisor subsystem.

This package is dependency-free (standard library only) and provides:

* :mod:`repro.util.errors` -- the exception hierarchy.
* :mod:`repro.util.units` -- byte and page sizes.
* :mod:`repro.util.rng` -- the deterministic random number generator that
  every stochastic component must use (no ``random`` / ``numpy.random``
  module-level state anywhere in measurement paths).
* :mod:`repro.util.stats` -- summary statistics, percentiles, Jain's
  fairness index.
* :mod:`repro.util.table` -- a plain-text table renderer used by the
  benchmark harness to print paper-style tables.
"""

from repro.util.errors import (
    ReproError,
    ConfigError,
    GuestError,
    MemoryError_,
    DeviceError,
    MigrationError,
    SchedulerError,
)
from repro.util.units import (
    KIB,
    MIB,
    GIB,
    PAGE_SIZE,
    PAGE_SHIFT,
    bytes_to_pages,
)
from repro.util.rng import DeterministicRNG
from repro.util.stats import (
    Summary,
    percentile,
    jain_fairness,
    geomean,
)
from repro.util.table import Table
from repro.util.chart import ascii_chart

__all__ = [
    "ReproError",
    "ConfigError",
    "GuestError",
    "MemoryError_",
    "DeviceError",
    "MigrationError",
    "SchedulerError",
    "KIB",
    "MIB",
    "GIB",
    "PAGE_SIZE",
    "PAGE_SHIFT",
    "bytes_to_pages",
    "DeterministicRNG",
    "Summary",
    "percentile",
    "jain_fairness",
    "geomean",
    "Table",
    "ascii_chart",
]
