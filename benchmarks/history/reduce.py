"""Reduce one full benchmark result to the compact per-PR record.

    python3 benchmarks/perf/run.py --all --trace --seed 1 --out FULL.json
    python3 benchmarks/history/reduce.py FULL.json > benchmarks/history/NNNN.json
"""

import json
import sys

_HOST_KEYS = ("python", "implementation", "machine", "nproc")


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


if __name__ == "__main__":
    with open(sys.argv[1]) as handle:
        json.dump(reduce(json.load(handle)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
