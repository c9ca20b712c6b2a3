"""Compare two sets of result files: better / same / worse / unresolved.

    python3 benchmarks/perf/compare.py --base a1.json a2.json ... \\
                                       --new  b1.json b2.json ...

Each file is what ``run.py --out`` wrote. The i-th base file pairs with
the i-th new file (run them alternately, same seeds, same settings).
One row per workload x metric:

* ``worse``      the new median is worse than the base median by more
                 than the metric's bound in BENCHMARK.json;
* ``better``     the new side wins at least nine tenths of the pairs
                 (ties count for neither) *and* the medians differ by
                 more than the base side's own interquartile distance;
* ``unresolved`` the base side's spread (interquartile distance over
                 median) is wider than the bound, so "no regression"
                 cannot be shown -- unless every new run reads better
                 than every base run, which is ``better``;
* ``same``       none of the above: within the bound, no gain shown.

Per-layer metrics carry no bound, so only the pairs rule applies to
them. Exact counts and ``sim_fingerprint`` are compared pair by pair
when the seeds match, and any difference is listed: a host-speed change
must leave every one of them identical. Fewer than ten pairs are
marked ``*``: indicative only. Exit status 1 on any ``worse`` row or
any exact difference, else 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MIN_PAIRS = 10


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    better, bound = {}, {}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        better[metric["name"]] = metric["better"]
        if "bound" in metric:
            bound[metric["name"]] = metric["bound"]
    return better, bound


def load_runs(paths):
    """{(workload, trace): [run, ...]} in file order."""
    grouped = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for run in json.load(fh)["runs"]:
                key = (run["workload"] if not run["trace"] else "(traced)",
                       run["trace"])
                grouped.setdefault(key, []).append(run)
    return grouped


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(base, new, higher_is_better, bound):
    """Verdict for one metric given the two sides' values, pair-aligned."""
    sign = -1.0 if higher_is_better else 1.0
    base_med, new_med = statistics.median(base), statistics.median(new)
    q1, q3 = quartiles(base)
    scale = abs(base_med) or 1.0
    worse_by = sign * (new_med - base_med) / scale
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0)
    decided = wins + losses
    beyond_noise = abs(new_med - base_med) > (q3 - q1)
    gain = decided and wins >= 0.9 * decided and beyond_noise and worse_by < 0
    loss = decided and losses >= 0.9 * decided and beyond_noise and worse_by > 0
    if bound is None:
        verdict = "better" if gain else "worse" if loss else "same"
    elif worse_by > bound:
        verdict = "worse"
    elif gain:
        verdict = "better"
    elif (q3 - q1) / scale > bound:
        dominated = all(sign * (n - b) < 0 for n in new for b in base)
        verdict = "better" if dominated else "unresolved"
    else:
        verdict = "same"
    return {"base_median": base_med, "base_q1": q1, "base_q3": q3,
            "new_median": new_med, "worse_by": worse_by, "wins": wins,
            "losses": losses, "pairs": len(pairs), "verdict": verdict}


def exact_differences(key, base_runs, new_runs):
    """Fingerprint / exact-count differences between same-seed pairs."""
    found = []
    for index, (b, n) in enumerate(zip(base_runs, new_runs)):
        if b["seed"] != n["seed"]:
            continue
        where = f"{key[0]} pair {index} (seed {b['seed']})"
        if b["sim_fingerprint"] != n["sim_fingerprint"]:
            found.append(f"{where}: sim_fingerprint differs")
        for name, value in b.get("exact", {}).items():
            if n.get("exact", {}).get(name) != value:
                found.append(f"{where}: exact count {name} {value} -> "
                             f"{n.get('exact', {}).get(name)}")
        for name, metric in b["metrics"].items():
            other = n["metrics"].get(name)
            if (metric["unit"] == "count" and other is not None
                    and other["value"] != metric["value"]):
                found.append(f"{where}: {name} {metric['value']} -> "
                             f"{other['value']}")
        if b["failed"] or n["failed"]:
            found.append(f"{where}: failed ops base={b['failed']} "
                         f"new={n['failed']}")
    return found


def compare(base_paths, new_paths):
    better, bound = load_manifest()
    base, new = load_runs(base_paths), load_runs(new_paths)
    rows, differences = [], []
    for key in base:
        if key not in new:
            continue
        base_runs, new_runs = base[key], new[key]
        count = min(len(base_runs), len(new_runs))
        base_runs, new_runs = base_runs[:count], new_runs[:count]
        differences += exact_differences(key, base_runs, new_runs)
        for name, metric in base_runs[0]["metrics"].items():
            if metric["unit"] == "count":
                continue  # exact: compared above, not judged statistically
            row = judge([r["metrics"][name]["value"] for r in base_runs],
                        [r["metrics"][name]["value"] for r in new_runs],
                        better.get(name, "lower") == "higher",
                        bound.get(name))
            row.update(workload=key[0], metric=name, unit=metric["unit"],
                       bound=bound.get(name))
            rows.append(row)
    return rows, differences


def render(rows, differences):
    lines = [f"{'workload':14s} {'metric':40s} {'base median [q1, q3]':>38s} "
             f"{'new median':>12s} {'change':>8s} {'wins':>7s}  verdict"]
    for row in rows:
        change = -row["worse_by"] * 100.0
        mark = "" if row["pairs"] >= MIN_PAIRS else "*"
        lines.append(
            f"{row['workload']:14s} {row['metric']:40s} "
            f"{row['base_median']:>12.5g} [{row['base_q1']:>10.5g}, "
            f"{row['base_q3']:>10.5g}] {row['new_median']:>12.5g} "
            f"{change:>+7.1f}% {row['wins']:>3d}/{row['pairs']:<3d}  "
            f"{row['verdict']}{mark}")
    lines.append("change: positive = the new side is better. "
                 "* fewer than ten pairs: indicative only.")
    if differences:
        lines.append("EXACT DIFFERENCES (must be none for a host-speed "
                     "change):")
        lines += [f"  {d}" for d in differences]
    else:
        lines.append("fingerprints and exact counts: identical on every "
                     "same-seed pair")
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    rows, differences = compare(args.base, args.new)
    print(render(rows, differences))
    bad = differences or any(r["verdict"] == "worse" for r in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
