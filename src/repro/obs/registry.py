"""Hierarchical metrics registry shared by every pyvisor layer.

One :class:`MetricsRegistry` per run holds counters, gauges, and
histograms addressed by dotted paths (``vm.web.exits.hypercall``,
``sched.credit.preemptions``, ``faults.injected.block.io_error``).
Subsystems receive a :class:`MetricsScope` -- a prefix view over the
shared registry -- so they name metrics locally (``rounds``) while the
run sees the fully qualified path (``migration.rounds``).

Metrics are deliberately tiny wrappers around plain ints/lists: the
instruction engine bumps some of these on every VM exit, so there is no
locking, no label dicts, and the hot path is one attribute add.
:class:`counter_attr` exposes a registry-backed counter as an ordinary
``int`` attribute (``self.reads += 1`` keeps working) so device models
and stat structs can move their storage into the registry without
changing any call sites.
"""

from typing import Dict, Iterator, List, Optional, Tuple, Type, Union

from repro.obs.clock import Clock, ManualClock
from repro.util.errors import ConfigError
from repro.util.stats import Summary

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "counter_attr",
]


class Counter:
    """Monotonically growing tally (resettable only via its registry)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Point-in-time level (free frames, queue depth, balloon size)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Sample distribution summarized via :class:`util.stats.Summary`.

    Each observation is stamped with the registry clock's current time;
    ``last_time`` keeps the most recent stamp so consumers can tell how
    stale a distribution is.
    """

    kind = "histogram"
    __slots__ = ("name", "values", "last_time")

    def __init__(self, name: str):
        self.name = name
        self.values: List[float] = []
        self.last_time: Optional[int] = None

    def observe(self, value: float, time: Optional[int] = None) -> None:
        self.values.append(value)
        if time is not None:
            self.last_time = time

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def summary(self) -> Optional[Summary]:
        return Summary.of(self.values) if self.values else None

    def snapshot(self, include_values: bool = False) -> Dict[str, object]:
        summary = self.summary
        snap: Dict[str, object] = {
            "type": "histogram",
            "count": self.count,
            "last_time": self.last_time,
            "summary": summary.to_dict() if summary else None,
        }
        if include_values:
            # Raw samples make the snapshot exactly mergeable: partial
            # (per-shard) manifests carry them so the reduce step can
            # concatenate and re-summarize; the finalized manifest
            # drops them again (see obs.manifest.finalize_manifest).
            snap["values"] = list(self.values)
        return snap


Metric = Union[Counter, Gauge, Histogram]


def _validate_name(name: str) -> None:
    # Segments carry user-supplied labels (VM names, exit details), so
    # anything goes inside one -- only the dotted structure is enforced.
    if not name or name.startswith(".") or name.endswith("."):
        raise ConfigError(f"invalid metric name {name!r}")
    if ".." in name:
        raise ConfigError(f"metric name {name!r} has an empty segment")


class MetricsRegistry:
    """Flat store of dotted-path metrics plus the run's clock.

    ``counter``/``gauge``/``histogram`` get-or-create; asking for an
    existing name as a different kind is a :class:`ConfigError` (two
    subsystems silently sharing one slot is always a bug).
    """

    def __init__(self, clock: Optional[Clock] = None):
        self.clock: Clock = clock if clock is not None else ManualClock()
        self._metrics: Dict[str, Metric] = {}

    # -- get-or-create -----------------------------------------------------

    def _get(self, name: str, cls: Type[Metric]) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            _validate_name(name)
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise ConfigError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested as {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def observe(self, name: str, value: float) -> None:
        """Record one histogram sample stamped with the registry clock."""
        self.histogram(name).observe(value, self.clock.now())

    # -- inspection --------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0) -> float:
        metric = self._metrics.get(name)
        if metric is None or isinstance(metric, Histogram):
            return default
        return metric.value

    def names(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def items(self, prefix: str = "") -> Iterator[Tuple[str, Metric]]:
        for name in self.names(prefix):
            yield name, self._metrics[name]

    def values(self, prefix: str = "", strip: bool = False) -> Dict[str, float]:
        """Counter/gauge values under ``prefix`` (histograms excluded).

        With ``strip=True`` keys are relative to the prefix -- the shape
        the :class:`ExitStats`-style views rebuild their dicts from.
        """
        cut = len(prefix) if strip else 0
        return {
            name[cut:]: metric.value
            for name, metric in self.items(prefix)
            if not isinstance(metric, Histogram)
        }

    # -- structure ---------------------------------------------------------

    def scope(self, prefix: str) -> "MetricsScope":
        _validate_name(prefix)
        return MetricsScope(self, prefix)

    def reset(self, prefix: str = "") -> int:
        """Drop every metric under ``prefix``; returns how many were dropped.

        Used when a namespace is legitimately reborn -- e.g. a VM
        recreated under the same name after a micro-reboot starts its
        counters from zero, exactly as its pre-registry structs did.
        """
        doomed = [n for n in self._metrics if n.startswith(prefix)]
        for name in doomed:
            del self._metrics[name]
        return len(doomed)

    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Fold ``other`` into this registry, optionally under ``prefix``.

        Counters add, gauges take the incoming (newer) value, histograms
        concatenate samples. Lets per-shard registries roll up into one.
        """
        base = prefix + "." if prefix else ""
        for name, metric in other.items():
            if isinstance(metric, Counter):
                self.counter(base + name).inc(metric.value)
            elif isinstance(metric, Gauge):
                self.gauge(base + name).set(metric.value)
            else:
                mine = self.histogram(base + name)
                mine.values.extend(metric.values)
                if metric.last_time is not None:
                    mine.last_time = metric.last_time

    def snapshot(self, samples: bool = False) -> Dict[str, object]:
        """Point-in-time dump stamped with the clock's declared timebase.

        With ``samples=True`` histogram snapshots carry their raw
        values, making the snapshot exactly mergeable downstream.
        """
        return {
            "timebase": self.clock.timebase,
            "time": self.clock.now(),
            "metrics": {
                name: (metric.snapshot(include_values=True)
                       if samples and isinstance(metric, Histogram)
                       else metric.snapshot())
                for name, metric in ((n, self._metrics[n])
                                     for n in sorted(self._metrics))
            },
        }


class MetricsScope:
    """Prefix view over a registry: local names, global storage."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self.registry = registry
        self.prefix = prefix

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self.registry.counter(self._qualify(name))

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(self._qualify(name))

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(self._qualify(name))

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(self._qualify(name), value)

    def value(self, name: str, default: float = 0) -> float:
        return self.registry.value(self._qualify(name), default)

    def values(self, prefix: str = "") -> Dict[str, float]:
        """Relative-name counter/gauge values under this scope."""
        full = self._qualify(prefix) if prefix else self.prefix + "."
        if prefix and not full.endswith("."):
            full += "."
        return self.registry.values(full, strip=True)

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self.registry, self._qualify(prefix))


class counter_attr:
    """Descriptor: an ``int``-looking attribute stored in the registry.

    The owning instance must expose ``self.metrics`` (a
    :class:`MetricsScope`) *before* the attribute is first touched. The
    bound :class:`Counter` is cached in the instance ``__dict__`` so the
    hot path is one dict hit, not a dotted-path lookup.

    ``obj.<name> += 1`` is a descriptor read and a descriptor write.
    Code that bumps a counter per VM exit asks the descriptor for the
    :class:`Counter` instead and bumps its ``value``:
    ``VMStats.world_switches.bound(stats).value += 1``.
    """

    __slots__ = ("name", "_key")

    def __set_name__(self, owner, name: str) -> None:
        self.name = name
        self._key = "_counter_" + name

    def bound(self, obj) -> Counter:
        """``obj``'s :class:`Counter` behind this attribute (created in
        the registry on first touch, like ``obj.<name>``)."""
        cache = obj.__dict__
        ctr = cache.get(self._key)
        if ctr is None:
            ctr = obj.metrics.counter(self.name)
            cache[self._key] = ctr
        return ctr

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self.bound(obj).value

    def __set__(self, obj, value) -> None:
        self.bound(obj).value = value
