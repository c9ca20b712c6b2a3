"""pyvisor's benchmark: five workloads, end-to-end and per-layer metrics.

    python3 benchmarks/perf/run.py --workload guest_compute --seed 1
    python3 benchmarks/perf/run.py --workload fuzz_campaign --trace 1
    python3 benchmarks/perf/run.py --all --trace --seed 1 --out result.json

One untraced run = set-up (measured three times: here and in two child
processes), then a fixed number of timed passes over the workload's
op list (``harness.pass_count``: ``Workload.passes`` at the
``--seconds`` BENCHMARK.json states); it reports the end-to-end
metrics. A traced run makes one pass with spans off and one with spans
on over *every* workload plus the layer probes, reports every per-layer
metric and writes ``trace.json``.
Both end with one JSON line: ``correct``, ``attempted``, ``failed``,
``metrics``. The exit code is non-zero when any op failed a check.

Needs ``PYTHONHASHSEED=0`` and fixed malloc thresholds (see
``PINNED_ENVIRONMENT``); the script re-executes itself with them set.
See README.md beside this file for the workloads and how to read the
numbers.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SCHEMA = "pyvisor.perf/1"
WORKLOAD_NAMES = ("guest_compute", "guest_exits", "fuzz_campaign",
                  "vm_lifecycle", "cluster_sweep")
#: Set-up is measured in this process and in this many children.
SETUP_CHILDREN = 2


#: Process settings every run is made under. The hash seed: set iteration
#: order reaches simulated counts. The glibc malloc thresholds: left to
#: adapt, a process drifts at unpredictable moments between paying page
#: faults for every multi-MiB ``bytearray`` (guest RAM, host RAM) and
#: reusing freed heap for them; a fuzz case costs 1.45x more in the
#: first mode, and runs that switched made up most of the run-to-run
#: spread. Pinned to the mode long-running processes settle into: blocks
#: up to 32 MiB come from the heap, which is never trimmed.
PINNED_ENVIRONMENT = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(512 << 20),
}


def bootstrap():
    """Pin the environment; make ``repro`` and the harness importable."""
    if any(os.environ.get(k) != v for k, v in PINNED_ENVIRONMENT.items()):
        os.environ.update(PINNED_ENVIRONMENT)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"run.py: no src/repro under {ROOT}; run from a checkout "
                 "of the repository")
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]


def parse_args(argv):
    from harness import NOMINAL_SECONDS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=WORKLOAD_NAMES)
    what.add_argument("--all", action="store_true",
                      help="every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="run length: scales the workload's number "
                             "of timed passes")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the full result here (JSON)")
    parser.add_argument("--trace-out",
                        default=os.path.join(HERE, "out", "trace.json"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def host_record():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def bounds():
    """End-to-end bounds from BENCHMARK.json ({} outside a checkout)."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def child_setup_samples(args):
    """Set the workload up again in fresh processes; their records."""
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        command.append("--smoke")
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=150, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def exact_counts(pass_record):
    """Sum every integer leaf of the ops' simulated counts, by key."""
    totals = {}

    def walk(prefix, value):
        if isinstance(value, bool):
            return
        if isinstance(value, int):
            totals[prefix] = totals.get(prefix, 0) + value
        elif isinstance(value, dict):
            for key, inner in value.items():
                walk(f"{prefix}.{key}" if prefix else str(key), inner)
        elif isinstance(value, list):
            for inner in value:
                walk(prefix, inner)

    for op in pass_record.ops:
        walk("", op.result.sim)
    return dict(sorted(totals.items()))


def typical_op_s(passes):
    """The median op, estimated steadily: each op's median over the
    passes, then the mean of the middle third of those. A plain median
    of the op list hops between unlike ops (a pass is a few clusters of
    similar ops, and the middle falls in the gap between two)."""
    per_op = sorted(
        statistics.median(p.ops[i].norm for p in passes)
        for i in range(len(passes[0].ops)))
    trim = len(per_op) // 3
    return statistics.fmean(per_op[trim:len(per_op) - trim])


def failures_of(ops, limit=5):
    failed = [op for op in ops if op.result.failure]
    return len(failed), [f"{op.name}: {op.result.failure.strip()}"
                         for op in failed[:limit]]


def run_untraced(args, sizes):
    import harness
    from spans import Recorder

    host = host_record()
    run = harness.measure(args.workload, args.seed, args.seconds, sizes,
                          Recorder(), _STARTED)
    setups = [{"raw_s": run.setup.raw_s, "factor": run.setup.factor}]
    setups += child_setup_samples(args)
    host["loadavg_1m_end"] = os.getloadavg()[0]
    host["cpu_user_s"], host["cpu_sys_s"] = os.times()[:2]

    passes = run.passes
    ops = run.all_ops()
    norm_s = [p.norm_s for p in passes]
    work = statistics.median(p.work for p in passes)
    op_tail, tail_pct = harness.tail([op.norm for op in ops])
    metrics = {
        "setup_s": (statistics.median(s["raw_s"] / s["factor"]
                                      for s in setups), "s"),
        "work_per_s": (work / statistics.median(norm_s), "work/s"),
        "op_p50_ms": (typical_op_s(passes) * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }
    attempted = len(ops) + len(run.warmup.ops)
    failed, reasons = failures_of(ops + run.warmup.ops)
    pass_spread = harness.spread(norm_s)
    warnings = []
    if max(host["loadavg_1m_start"], host["loadavg_1m_end"]) > host["nproc"]:
        warnings.append("1-min load average exceeded nproc during the run")
    exact = exact_counts(passes[0])
    if exact.get("vmm_divergences"):
        warnings.append(f"{exact['vmm_divergences']} fuzz case(s) found the "
                        "VMM engines disagreeing: a finding, not a failed op")
    bound = bounds().get("work_per_s")
    if bound is not None and pass_spread > bound:
        warnings.append(f"pass-to-pass spread {pass_spread:.3f} exceeds the "
                        f"work_per_s bound {bound}")
    return {
        "workload": args.workload,
        "trace": 0,
        "seed": args.seed,
        "work_unit": run.workload.unit,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "op_tail_ms": {"value": op_tail * 1000.0, "percentile": tail_pct},
        "passes": len(passes),
        "ops_per_pass": len(run.workload.ops),
        "samples": len(ops),
        "pass_s": norm_s,
        "pass_spread": pass_spread,
        # Not host-speed normalised: wall-clock as perf_counter read it.
        "pass_wall_s": [p.raw_s for p in passes],
        "setup_wall_s": [s["raw_s"] for s in setups],
        "host_speed_factor": [p.factor for p in passes],
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "failures": reasons,
        # One digest stands for every pass: mark_unrepeatable failed any
        # op whose counts differed from the first pass's.
        "sim_fingerprint": passes[0].fingerprint(),
        "exact": exact,
        "warnings": warnings,
        "host": host,
    }


def run_traced(args, sizes):
    import harness
    import layers
    from spans import Recorder
    from workloads import WORKLOADS

    host = host_record()
    recorder = Recorder()
    traced, untraced, fingerprints = {}, {}, {}
    ops = []
    for name, build in WORKLOADS.items():
        workload = build(args.seed, sizes, recorder)
        off, on = harness.run_pass_pair(workload, recorder)
        harness.mark_unrepeatable([off, on])
        untraced[name], traced[name] = off, on
        fingerprints[name] = off.fingerprint()
        ops += off.ops + on.ops
    probes_workload = layers.LayerProbes(args.seed, sizes, recorder)
    recorder.enabled = True
    probes = harness.run_pass(probes_workload, probes_workload.ops, recorder,
                              index=1)
    recorder.enabled = False
    ops += probes.ops
    layer = layers.derive(traced, untraced, probes, recorder)
    os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
    spanned = list(traced.values()) + [probes]
    recorder.write(args.trace_out, extra={
        "seed": args.seed,
        "ops": {f"{p.workload}:{p.index}:{i}": op.name
                for p in spanned for i, op in enumerate(p.ops)},
        "host_speed_factor": {p.workload: p.factor for p in spanned},
    })
    host["loadavg_1m_end"] = os.getloadavg()[0]
    failed, reasons = failures_of(ops)
    units = {name: unit for name, unit, _better in layers.PER_LAYER}
    return {
        "workload": args.workload,
        "trace": 1,
        "seed": args.seed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in layer.items()},
        "character": layers.character(traced, layer),
        "spans": len(recorder.spans),
        "trace_file": os.path.relpath(args.trace_out),
        "attempted": len(ops),
        "failed": failed,
        "ops_failed_frac": failed / len(ops),
        "failures": reasons,
        "sim_fingerprint": fingerprints,
        "warnings": [],
        "host": host,
    }


def report(result):
    """Every metric by name with its unit, then the driver's JSON line."""
    title = f"{result['workload']} seed={result['seed']}"
    print(f"== {title} trace={result['trace']} ==")
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    if not result["trace"]:
        print(f"work unit: {result['work_unit']}; {result['passes']} passes "
              f"x {result['ops_per_pass']} ops = {result['samples']} "
              f"samples; pass-to-pass spread {result['pass_spread']:.4f}")
        print("host-speed factor per pass: " + " ".join(
            f"{f:.2f}" for f in result["host_speed_factor"]))
        tail = result["op_tail_ms"]
        print(f"op tail: p{tail['percentile']:.1f} = {tail['value']:.4f} ms")
        print(f"sim_fingerprint {result['sim_fingerprint']}")
    else:
        for line in result["character"]:
            print(line)
        for name, digest in result["sim_fingerprint"].items():
            print(f"sim_fingerprint {name} {digest}")
        print(f"{result['spans']} spans -> {result['trace_file']}")
    print(f"ops_failed_frac {result['ops_failed_frac']:.6f} "
          f"({result['failed']} of {result['attempted']})")
    for line in result["failures"]:
        print(f"FAILED {line}")
    for line in result["warnings"]:
        print(f"WARNING {line}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def run_all(args):
    """Each workload untraced in its own process (so set-up time and peak
    memory are its own), then one traced run if asked."""
    base = [sys.executable, os.path.abspath(__file__), "--seed",
            str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        base.append("--smoke")
    jobs = [["--workload", name, "--trace", "0"] for name in WORKLOAD_NAMES]
    if args.trace:
        jobs.append(["--workload", WORKLOAD_NAMES[0], "--trace", "1",
                     "--trace-out", args.trace_out])
    runs, status = [], 0
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    for i, job in enumerate(jobs):
        part = os.path.join(out_dir, f"part-{os.getpid()}-{i}.json")
        done = subprocess.run(base + job + ["--out", part])
        status = status or done.returncode
        if os.path.exists(part):
            with open(part, encoding="utf-8") as fh:
                runs += json.load(fh)["runs"]
            os.remove(part)
    return runs, status


def main(argv):
    bootstrap()
    args = parse_args(argv)
    if args.all:
        runs, status = run_all(args)
    else:
        from workloads import FULL, SMOKE

        sizes = SMOKE if args.smoke else FULL
        if args.setup_only:
            import harness
            from spans import Recorder

            _w, _warm, setup = harness.set_up(
                args.workload, args.seed, sizes, Recorder(), _STARTED)
            print(json.dumps({"raw_s": setup.raw_s, "factor": setup.factor}))
            return 0
        result = (run_traced if args.trace else run_untraced)(args, sizes)
        if any(isinstance(m["value"], float) and not math.isfinite(m["value"])
               for m in result["metrics"].values()):
            result["failed"] += 1
            result["failures"].append("a metric is not finite")
        report(result)
        runs, status = [result], int(result["failed"] > 0)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
