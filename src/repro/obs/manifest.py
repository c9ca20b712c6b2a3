"""Per-run JSON manifest built from a registry snapshot.

The bench harness gives every experiment run one registry; at the end it
snapshots the registry into a manifest that groups metric names by
subsystem. ``register_baseline`` pre-registers one canonical counter per
subsystem so the manifest always declares the full telemetry surface --
an experiment that never migrates still reports ``migration.*`` at zero
rather than omitting the subsystem, which keeps downstream regression
tooling schema-stable across experiments.

Sharded runs produce one *partial* manifest per shard (built with
``samples=True`` so histograms carry raw values) and reduce them with
:func:`merge_manifests` -- an associative merge (counters add, gauges
take the maximum, histogram samples concatenate) whose output depends
only on the operand order, never on worker scheduling.
:func:`finalize_manifest` then drops the raw samples, and
:func:`manifest_bytes` serializes canonically so two runs can be
compared byte-for-byte.
"""

import json
from typing import Dict, List, Optional, Sequence

from repro.obs.registry import MetricsRegistry
from repro.util.errors import ConfigError
from repro.util.stats import Summary

__all__ = [
    "MANIFEST_SCHEMA",
    "SUBSYSTEMS",
    "subsystem_of",
    "register_baseline",
    "build_manifest",
    "merge_manifests",
    "finalize_manifest",
    "manifest_bytes",
]

MANIFEST_SCHEMA = "pyvisor.metrics.manifest/1"

#: Canonical subsystem groups, in the order the manifest reports them.
SUBSYSTEMS = (
    "core", "devices", "sched", "migration", "overcommit", "faults",
    "fuzz", "cluster", "sim", "host",
)

#: One always-present counter per subsystem (incremented by the layer
#: that owns it, or left at zero when the run never touches that layer).
_BASELINE_COUNTERS = (
    "core.vms_created",
    "devices.attached",
    "sched.dispatches",
    "migration.migrations",
    "overcommit.operations",
    "faults.injected.total",
)


def subsystem_of(name: str) -> str:
    """Map a dotted metric name to its subsystem group.

    Per-VM metrics live under ``vm.<name>.*``: device counters nest as
    ``vm.<name>.dev.<device>.*`` and everything else on the VM (exits,
    VMM cycles) belongs to the core engine.
    """
    if name.startswith("vm."):
        return "devices" if ".dev." in name else "core"
    head = name.split(".", 1)[0]
    if head == "dev":
        return "devices"
    return head if head in SUBSYSTEMS else "other"


def register_baseline(registry: MetricsRegistry) -> MetricsRegistry:
    """Pre-register the schema-stable baseline counters; returns registry."""
    for name in _BASELINE_COUNTERS:
        registry.counter(name)
    return registry


def _group_subsystems(names) -> Dict[str, List[str]]:
    groups: Dict[str, List[str]] = {}
    for name in names:
        groups.setdefault(subsystem_of(name), []).append(name)
    ordered = {s: sorted(groups[s]) for s in SUBSYSTEMS if s in groups}
    for subsystem in sorted(groups):
        if subsystem not in ordered:
            ordered[subsystem] = sorted(groups[subsystem])
    return ordered


def build_manifest(registry: MetricsRegistry,
                   experiment: Optional[str] = None,
                   extra: Optional[Dict[str, object]] = None,
                   samples: bool = False) -> Dict[str, object]:
    """Snapshot ``registry`` into a JSON-serializable run manifest.

    ``samples=True`` produces a *partial* manifest whose histograms
    carry raw values, the mergeable form shards hand to
    :func:`merge_manifests`.
    """
    snap = registry.snapshot(samples=samples)
    manifest: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "experiment": experiment,
        "timebase": snap["timebase"],
        "time": snap["time"],
        "subsystems": _group_subsystems(snap["metrics"]),
        "metrics": snap["metrics"],
    }
    if extra:
        manifest["extra"] = extra
    return manifest


# -- the shard reduce step --------------------------------------------------


def _merge_histograms(name: str, a: Dict[str, object],
                      b: Dict[str, object]) -> Dict[str, object]:
    if "values" not in a or "values" not in b:
        raise ConfigError(
            f"histogram {name!r} collides across manifests but lacks raw "
            "samples; build partial manifests with samples=True"
        )
    values = list(a["values"]) + list(b["values"])
    times = [t for t in (a["last_time"], b["last_time"]) if t is not None]
    return {
        "type": "histogram",
        "count": len(values),
        "last_time": max(times) if times else None,
        "summary": Summary.of(values).to_dict() if values else None,
        "values": values,
    }


def _merge_metric(name: str, a: Dict[str, object],
                  b: Dict[str, object]) -> Dict[str, object]:
    if a["type"] != b["type"]:
        raise ConfigError(
            f"metric {name!r} is a {a['type']} in one manifest and a "
            f"{b['type']} in another"
        )
    if a["type"] == "counter":
        return {"type": "counter", "value": a["value"] + b["value"]}
    if a["type"] == "gauge":
        # Max is the one associative, order-free reduction that needs no
        # extra state. Shards namespace their gauges (cluster.shard.*),
        # so a genuine collision is an aggregate level where max is the
        # conservative answer.
        return {"type": "gauge", "value": max(a["value"], b["value"])}
    return _merge_histograms(name, a, b)


def _merge_two(a: Dict[str, object], b: Dict[str, object]) -> Dict[str, object]:
    for manifest in (a, b):
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise ConfigError(
                f"cannot merge manifest with schema "
                f"{manifest.get('schema')!r}; this build speaks "
                f"{MANIFEST_SCHEMA!r}"
            )
    if a["timebase"] != b["timebase"]:
        raise ConfigError(
            f"cannot merge manifests with timebases {a['timebase']!r} "
            f"and {b['timebase']!r}"
        )
    experiments = {m["experiment"] for m in (a, b)} - {None}
    if len(experiments) > 1:
        raise ConfigError(
            f"cannot merge manifests from different experiments: "
            f"{sorted(experiments)}"
        )
    metrics: Dict[str, Dict[str, object]] = {}
    names = sorted(set(a["metrics"]) | set(b["metrics"]))
    for name in names:
        in_a, in_b = a["metrics"].get(name), b["metrics"].get(name)
        if in_a is not None and in_b is not None:
            metrics[name] = _merge_metric(name, in_a, in_b)
        else:
            metrics[name] = dict(in_a if in_a is not None else in_b)
    merged: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "experiment": next(iter(experiments)) if experiments else None,
        "timebase": a["timebase"],
        "time": max(a["time"], b["time"]),
        "subsystems": _group_subsystems(names),
        "metrics": metrics,
    }
    extras = [m["extra"] for m in (a, b) if "extra" in m]
    if extras:
        combined: Dict[str, object] = {}
        for extra in extras:
            overlap = combined.keys() & extra.keys()
            if overlap:
                raise ConfigError(
                    f"manifest extra keys collide on merge: {sorted(overlap)}"
                )
            combined.update(extra)
        merged["extra"] = {k: combined[k] for k in sorted(combined)}
    return merged


def merge_manifests(manifests: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Reduce per-shard partial manifests into one run manifest.

    Counters add, gauges take the maximum, histograms concatenate their
    raw samples (and re-summarize); ``time`` is the maximum of the
    operands. The merge is associative -- ``merge([a, merge([b, c])])``
    equals ``merge([merge([a, b]), c])`` -- so any reduction tree over
    a fixed operand order yields identical bytes. Manifests with a
    different schema string, timebase, or experiment are rejected.
    """
    if not manifests:
        raise ConfigError("nothing to merge")
    merged = manifests[0]
    if merged.get("schema") != MANIFEST_SCHEMA:
        raise ConfigError(
            f"cannot merge manifest with schema {merged.get('schema')!r}; "
            f"this build speaks {MANIFEST_SCHEMA!r}"
        )
    for other in manifests[1:]:
        merged = _merge_two(merged, other)
    if len(manifests) == 1:
        merged = _merge_two(merged, merged_identity(merged))
    return merged


def merged_identity(manifest: Dict[str, object]) -> Dict[str, object]:
    """The merge identity for ``manifest``: same shape, no metrics."""
    return {
        "schema": MANIFEST_SCHEMA,
        "experiment": manifest.get("experiment"),
        "timebase": manifest["timebase"],
        "time": manifest["time"],
        "subsystems": {},
        "metrics": {},
    }


def finalize_manifest(manifest: Dict[str, object]) -> Dict[str, object]:
    """Strip raw histogram samples from a merged manifest.

    Partial manifests carry samples so the reduce step is exact; the
    published manifest reports only the summaries.
    """
    final = dict(manifest)
    final["metrics"] = {
        name: {k: v for k, v in snap.items() if k != "values"}
        for name, snap in manifest["metrics"].items()
    }
    return final


def manifest_bytes(manifest: Dict[str, object]) -> bytes:
    """Canonical serialization for byte-for-byte comparison."""
    return (json.dumps(manifest, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")
