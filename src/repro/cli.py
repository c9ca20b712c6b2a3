"""Command-line interface: regenerate experiments and boot guests.

Usage::

    python -m repro list                      # what can run
    python -m repro run e1                    # one experiment table
    python -m repro run all                   # every table (E1-E10)
    python -m repro run e10 --quick           # resilience smoke run
    python -m repro boot --mode hw-nested --workload hello
"""

import argparse
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.bench import (
    run_e1,
    run_e2,
    run_e3,
    run_e4,
    run_e5,
    run_e6,
    run_e6_faults,
    run_e6_functional,
    run_e7,
    run_e7_controller,
    run_e7_functional,
    run_e8,
    run_e8_scale,
    run_e9_bt,
    run_e9_exit_cost,
    run_e10,
    run_e10_cascade,
    run_e11,
)

EXPERIMENTS: Dict[str, Callable] = {
    "e1": run_e1,
    "e2": run_e2,
    "e3": run_e3,
    "e4": run_e4,
    "e5": run_e5,
    "e6": run_e6,
    "e6f": run_e6_functional,
    "e6x": run_e6_faults,
    "e7": run_e7,
    "e7f": run_e7_functional,
    "e7c": run_e7_controller,
    "e8": run_e8,
    "e8s": run_e8_scale,
    "e9a": run_e9_exit_cost,
    "e9b": run_e9_bt,
    "e10": run_e10,
    "e10c": run_e10_cascade,
    "e11": run_e11,
}

#: Experiments accepting a ``quick`` kwarg (smaller, CI-friendly run).
QUICK_AWARE = {"e10", "e10c", "e7c", "e8s"}

#: Experiments accepting ``shards``/``jobs`` kwargs. For e8s the shard
#: count is part of the experiment identity (it partitions the RNG
#: streams); ``jobs`` never changes any experiment's output.
SHARD_AWARE = {"e6", "e8s", "e10c"}

#: Default fault-schedule rate for fuzz campaigns (see --no-faults).
DEFAULT_FUZZ_FAULT_RATE = 0.05

MODES = {
    "native": (None, None, False),
    "trap-emulate": ("trap_emulate", "shadow", False),
    "bin-transl": ("binary_translation", "shadow", False),
    "paravirt": ("paravirt", "shadow", True),
    "hw-shadow": ("hw_assist", "shadow", False),
    "hw-nested": ("hw_assist", "nested", False),
    "hw-hmode": ("hw_assist", "hmode", False),
}

WORKLOADS = [
    "hello", "cpu_bound", "memtouch", "syscall_storm", "pt_stress",
    "blk_write", "vblk_write", "net_send", "vnet_send",
]


def _cmd_list(_args) -> int:
    print("experiments:")
    for key, fn in EXPERIMENTS.items():
        doc = (fn.__module__.rsplit(".", 1)[-1]).replace("_", " ")
        print(f"  {key:4s} {doc}")
    print("\nboot modes:   " + " ".join(MODES))
    print("workloads:    " + " ".join(WORKLOADS))
    return 0


def _cmd_run(args) -> int:
    keys: List[str] = (
        list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    profiler = None
    if getattr(args, "profile", False):
        import cProfile

        profiler = cProfile.Profile()
    for key in keys:
        fn = EXPERIMENTS.get(key)
        if fn is None:
            print(f"unknown experiment {key!r}; try: {' '.join(EXPERIMENTS)}",
                  file=sys.stderr)
            return 2
        kwargs = {}
        if getattr(args, "quick", False) and key in QUICK_AWARE:
            kwargs["quick"] = True
        if key in SHARD_AWARE:
            if getattr(args, "shards", None):
                kwargs["shards"] = args.shards
            if getattr(args, "jobs", None):
                kwargs["jobs"] = args.jobs
        if key == "e8s" and getattr(args, "fleet", None):
            kwargs["fleet_sizes"] = [args.fleet]
        if profiler is not None:
            profiler.enable()
        result = fn(**kwargs)
        if profiler is not None:
            profiler.disable()
        if getattr(args, "json", False):
            # Machine-readable: one metrics manifest per experiment.
            print(json.dumps(result.manifest(), indent=2))
            continue
        print(result.render())
        for extra in ("latency_table", "fleet_table"):
            if extra in result.raw:
                print()
                print(result.raw[extra].render())
        print()
    if profiler is not None:
        import pstats

        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative")
        print("--- cProfile (top 25 by cumulative time) ---", file=sys.stderr)
        stats.print_stats(25)
    return 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz import load_corpus, replay_entry, run_campaign
    from repro.fuzz.bugs import known_bugs
    from repro.fuzz.diff import default_opts

    if args.bug is not None and args.bug not in known_bugs():
        print(f"unknown bug {args.bug!r}; try: {' '.join(known_bugs())}",
              file=sys.stderr)
        return 2

    if args.replay:
        entries = load_corpus(args.replay)
        if not entries:
            print(f"no corpus entries under {args.replay}", file=sys.stderr)
            return 2
        bad = 0
        for entry in entries:
            # At HEAD a repro recorded under a bug shim must pass clean.
            result = replay_entry(entry, with_bug=False)
            kind = result["verdict"]["kind"]
            tag = "ok" if kind == "ok" else "FAIL"
            if kind != "ok":
                bad += 1
            print(f"[{tag}] seed={entry['root_seed']} "
                  f"case={entry['case_index']} "
                  f"bug={entry['opts'].get('bug')} -> {kind}")
        print(f"{len(entries)} corpus repros replayed, {bad} regressed")
        return 1 if bad else 0

    opts = default_opts()
    if args.max_instructions is not None:
        opts["max_instructions"] = args.max_instructions
    # Fault-schedule differential runs are on by default: every config
    # also executes under seeded virtio.ring_stuck and irq.* schedules,
    # which have to agree across backends just like the fault-free run.
    if args.no_faults:
        opts["fault_rate"] = 0.0
    elif args.faults is not None:
        opts["fault_rate"] = args.faults
    else:
        opts["fault_rate"] = DEFAULT_FUZZ_FAULT_RATE
    if args.no_events:
        opts["events"] = False
    opts["bug"] = args.bug

    started = perf_counter()
    out = run_campaign(args.seed, args.cases, jobs=max(1, args.jobs),
                       opts=opts, shrink=args.shrink, out_dir=args.out,
                       log=lambda msg: print(msg, file=sys.stderr))
    elapsed = perf_counter() - started
    if args.json:
        print(json.dumps(out["manifest"], indent=2, sort_keys=True))
    else:
        fz = out["manifest"]["extra"]["fuzz"]
        print(f"seed              : {args.seed}")
        print(f"cases             : {fz['cases']}")
        print(f"failures          : {len(fz['failures'])}")
        print(f"shrunk repros     : {len(fz['shrunk'])}")
        # Host wall-clock, shrinking included: in this report only,
        # never in the manifest (--jobs parity compares those).
        print(f"elapsed           : {elapsed:.2f} s")
        print(f"cases/s           : {fz['cases'] / elapsed:.1f}")
        print("outcome classes   :")
        for outcome, count in fz["outcome_classes"].items():
            print(f"  {outcome:14s} {count}")
        if args.out:
            print(f"artifacts         : {args.out}/")
    return 1 if out["failures"] else 0


def _cmd_faults(args) -> int:
    from repro.faults.injector import site_catalog

    if not args.list:
        print("nothing to do (try --list)", file=sys.stderr)
        return 2
    sites = site_catalog()
    width = max(len(site) for site, _d in sites)
    for site, description in sites:
        subsystem = site.split(".", 1)[0]
        print(f"{site:{width}s}  [{subsystem}]  {description}")
    print(f"\n{len(sites)} registered fault sites")
    return 0


def _cmd_boot(args) -> int:
    from repro.bench.common import run_guest_workload
    from repro.core.modes import MMUVirtMode, VirtMode
    from repro.guest import workloads as wl

    if args.mode not in MODES:
        print(f"unknown mode {args.mode!r}; try: {' '.join(MODES)}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; try: "
              f"{' '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    vmode_name, mmode_name, pv = MODES[args.mode]
    vmode = VirtMode(vmode_name) if vmode_name else None
    mmode = MMUVirtMode(mmode_name) if mmode_name else None
    workload = getattr(wl, args.workload)()
    metrics = run_guest_workload(args.mode, workload, vmode, mmode, pv)
    diag = metrics.diag
    print(f"mode              : {args.mode}")
    print(f"workload          : {args.workload}")
    print(f"clean run         : {diag.clean}")
    print(f"user result       : {diag.user_result}")
    print(f"syscalls          : {diag.syscalls}")
    print(f"guest cycles      : {metrics.guest_cycles:,}")
    print(f"vmm cycles        : {metrics.vmm_cycles:,}")
    print(f"exits             : {metrics.exits}")
    print(f"virtualization OK : {metrics.correct}")
    if metrics.exit_breakdown:
        print("exits by reason   :")
        for reason, count in sorted(metrics.exit_breakdown.items()):
            print(f"  {reason:32s} {count}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="pyvisor experiment and guest runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, modes, workloads")

    run_p = sub.add_parser("run", help="regenerate experiment tables")
    run_p.add_argument("experiment",
                       help="e1..e11, e6f/e7f/e7c (functional), or 'all'")
    run_p.add_argument("--quick", action="store_true",
                       help="smaller, CI-friendly variant where supported")
    run_p.add_argument("--json", action="store_true",
                       help="emit the run's metrics manifest as JSON "
                            "instead of tables")
    run_p.add_argument("--profile", action="store_true",
                       help="dump a cProfile report (top 25 by cumulative "
                            "time) to stderr after the run")
    run_p.add_argument("--shards", type=int, default=None,
                       help="shard count for shard-aware experiments "
                            "(e6, e8s, e10c); for e8s this is part of "
                            "the run's identity")
    run_p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for shard-aware "
                            "experiments; results are independent of "
                            "this, and it does not pay yet: each epoch "
                            "pickles every shard both ways, a fixed "
                            "+0.2-0.5 s on e8s's 4,000-10,000 VM "
                            "points (default 1)")
    run_p.add_argument("--fleet", type=int, default=None,
                       help="e8s only: run one fleet size instead of "
                            "the default sweep")

    boot_p = sub.add_parser("boot", help="boot NanoOS with a workload")
    boot_p.add_argument("--mode", default="hw-nested")
    boot_p.add_argument("--workload", default="hello")

    fuzz_p = sub.add_parser(
        "fuzz", help="differential fuzzing: interp vs jit vs bt, "
                     "shadow vs nested paging"
    )
    fuzz_p.add_argument("--seed", type=int, default=1,
                        help="campaign root seed (default 1)")
    fuzz_p.add_argument("--cases", type=int, default=200,
                        help="number of generated cases (default 200)")
    fuzz_p.add_argument("--jobs", type=int, default=1,
                        help="worker processes; results are independent "
                             "of this (default 1)")
    fuzz_p.add_argument("--shrink", action="store_true",
                        help="shrink failing cases to minimal repros")
    fuzz_p.add_argument("--max-instructions", type=int, default=None,
                        help="guest instruction budget per case")
    fuzz_p.add_argument("--faults", type=float, default=None, metavar="RATE",
                        help="fault-schedule rate for the seeded "
                             "virtio.ring_stuck and irq.* differential "
                             f"runs (default {DEFAULT_FUZZ_FAULT_RATE})")
    fuzz_p.add_argument("--no-faults", action="store_true",
                        help="disable the fault-schedule differential "
                             "runs (fault-free configs only)")
    fuzz_p.add_argument("--bug", default=None,
                        help="apply a known-bug shim (see repro.fuzz.bugs) "
                             "to verify the harness catches it")
    fuzz_p.add_argument("--out", default=None, metavar="DIR",
                        help="write manifest.json + shrunk repros here")
    fuzz_p.add_argument("--replay", default=None, metavar="DIR",
                        help="replay a corpus directory as a regression "
                             "suite instead of fuzzing")
    fuzz_p.add_argument("--no-events", action="store_true",
                        help="disable the seeded asynchronous event "
                             "schedules (interrupt-free runs)")
    fuzz_p.add_argument("--json", action="store_true",
                        help="print the campaign manifest as JSON")

    faults_p = sub.add_parser(
        "faults", help="inspect the fault-injection registry"
    )
    faults_p.add_argument("--list", action="store_true",
                          help="enumerate every registered fault site "
                               "with its subsystem and description")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "faults":
        return _cmd_faults(args)
    return _cmd_boot(args)


if __name__ == "__main__":
    raise SystemExit(main())
