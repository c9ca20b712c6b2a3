"""Reduce one full benchmark result to the compact per-PR record.

    python3 benchmarks/perf/run.py --all --trace --seed 1 --out FULL.json
    python3 benchmarks/history/reduce.py FULL.json [PREVIOUS.json] \\
        > benchmarks/history/NNNN.json

With the previous record named, every per-layer cell more than
``MOVED`` times away from its value there is listed on stderr: a layer
cell is one sample, so a move that size is either what the PR claims
(say so in CHANGES.md) or an outlier (re-run).
"""

import json
import sys

_HOST_KEYS = ("python", "implementation", "machine", "nproc")

#: A per-layer cell this many times above or below the previous
#: record's is reported.
MOVED = 3.0


def reduce(full: dict) -> dict:
    timed = [run for run in full["runs"] if not run["trace"]]
    traced = [run for run in full["runs"] if run["trace"]]
    return {
        "schema": "pyvisor.perf-history/1",
        "seed": timed[0]["seed"],
        "host": {key: timed[0]["host"][key] for key in _HOST_KEYS},
        # End-to-end metrics (each already a median over the run's passes).
        "workloads": {
            run["workload"]: {
                **{name: float(f"{m['value']:.6g}")
                   for name, m in run["metrics"].items()},
                "ops_failed": run["failed"],
                "sim_fingerprint": run["sim_fingerprint"],
            }
            for run in timed
        },
        # Per-layer metrics of the traced run(s).
        "layers": {
            name: float(f"{m['value']:.6g}")
            for run in traced
            for name, m in run["metrics"].items()
        },
    }


def moved(record: dict, previous: dict) -> list:
    """``(name, before, now)`` for each per-layer cell of ``record`` more
    than :data:`MOVED` times away from ``previous``'s (either way; from
    or to zero counts). Cells only one of them has are not compared."""
    out = []
    for name, now in sorted(record["layers"].items()):
        before = previous["layers"].get(name)
        # trace_overhead_frac is a signed difference of two timings
        # around zero, not a magnitude: its ratio says nothing.
        if before is None or name.endswith(".trace_overhead_frac"):
            continue
        low, high = sorted((abs(before), abs(now)))
        if high > MOVED * low:
            out.append((name, before, now))
    return out


if __name__ == "__main__":
    with open(sys.argv[1]) as handle:
        record = reduce(json.load(handle))
    json.dump(record, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    if len(sys.argv) > 2:
        with open(sys.argv[2]) as handle:
            previous = json.load(handle)
        if previous["host"] != record["host"]:
            print(f"reduce.py: {sys.argv[2]} is from another host; its "
                  "numbers do not compare", file=sys.stderr)
        for name, before, now in moved(record, previous):
            print(f"reduce.py: {name} moved more than {MOVED:g}x against "
                  f"{sys.argv[2]}: {before:g} -> {now:g}", file=sys.stderr)
