"""Which functions in src/repro does no entry point reach?

    python3 benchmarks/reach.py    # ~5 min; exit status 1 on a difference

Runs every entry point of the repository (``ENTRY_POINTS``: the ``repro``
subcommands, ``examples/*.py``, ``benchmarks/perf/run.py --smoke``, the
experiment benchmarks under ``pytest benchmarks/`` and the inline scripts
of ``.github/workflows/ci.yml``) in this one process under a call tracer,
prints each one's wall time, then compares the functions and methods of
``src/repro`` that none of them called with ``unreached.txt`` beside this
file. That list names every function that stays although nothing reaches
it, one a line, with the reason it stays. The gate fails when the two
differ in either direction, and prints each difference: a function that
an entry point now reaches, or that was deleted, leaves the list; a new
unreached one joins it with a reason, or goes.

Only this process is traced: worker processes and the child processes of
benchmarks/perf are not. So every entry point that takes ``--jobs`` runs
with ``--jobs 1``, where the code the workers run runs inline.

A function is ``<path under src/repro>:<qualname>``; a name defined twice
in one module (a property's setter) gets ``#2`` on its second definition.
"""

import contextlib
import glob
import io
import json
import os
import runpy
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "repro")
PERF = os.path.join(HERE, "perf")
LIST = os.path.join(HERE, "unreached.txt")
#: Set iteration order reaches simulated paths; benchmarks/perf pins the
#: malloc thresholds too, and re-executes itself without them.
PINNED_ENVIRONMENT = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(512 << 20),
}

EXPERIMENTS = ("e1", "e2", "e3", "e4", "e5", "e6", "e6f", "e6x", "e7",
               "e7f", "e7c", "e8", "e8s", "e9a", "e9b", "e10", "e10c", "e11")
MODES = ("native", "trap-emulate", "bin-transl", "paravirt", "hw-shadow",
         "hw-nested", "hw-hmode")
WORKLOADS = ("hello", "cpu_bound", "memtouch", "syscall_storm", "pt_stress",
             "blk_write", "vblk_write", "net_send", "vnet_send")
PERF_WORKLOADS = ("guest_compute", "guest_exits", "fuzz_campaign",
                  "vm_lifecycle", "cluster_sweep")


def defined():
    """Every function and method under src/repro, keyed by what a frame
    shows of it: ``{(file, first line, name): "path:qualname"}``."""
    functions = {}
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as fh:
            module = compile(fh.read(), path, "exec")
        codes, stack = [], [module]
        while stack:
            for const in stack.pop().co_consts:
                if hasattr(const, "co_code"):
                    stack.append(const)
                    # Class bodies lack CO_NEWLOCALS; lambdas, generator
                    # expressions and comprehensions are named <...>.
                    if const.co_flags & 0x2 and const.co_name[0] != "<":
                        codes.append(const)
        rel = os.path.relpath(path, SRC)
        count = {}
        for code in sorted(codes, key=lambda c: c.co_firstlineno):
            n = count[code.co_qualname] = count.get(code.co_qualname, 0) + 1
            functions[(path, code.co_firstlineno, code.co_name)] = (
                f"{rel}:{code.co_qualname}" + (f"#{n}" if n > 1 else ""))
    return functions


def cli(*argv):
    def run():
        from repro.cli import main

        return main(list(argv))

    return run


def example(name):
    def run():
        runpy.run_path(os.path.join(ROOT, "examples", name),
                       run_name="__main__")

    return run


def perf(*argv):
    def run():
        if PERF not in sys.path:
            sys.path.insert(0, PERF)
        import run as perf_run

        out = os.path.join(tempfile.mkdtemp(), "trace.json")
        return perf_run.main(["--seed", "1", "--smoke", "--trace-out", out]
                             + list(argv))

    return run


def pytest_benchmarks():
    import pytest

    # benchmarks/perf's self-test drives run.py in child processes, which
    # are not traced; the perf entry points below run it in this one. A
    # timed benchmark pauses every tracer while it runs: run each once.
    return pytest.main([HERE, "-q", "-p", "no:cacheprovider",
                        "--benchmark-disable", f"--ignore={PERF}",
                        f"--rootdir={ROOT}"])


def fuzz_out(*argv):
    return lambda: cli("fuzz", "--out", tempfile.mkdtemp(), *argv)()


def ci_parity(*argv):
    """A CI fuzz-smoke parity step: the campaign with ``--out``, then the
    step's inline script over the manifest it wrote (CI compares it with
    a ``--jobs 4`` run's, whose workers run this same code)."""
    def run():
        from repro.cli import main
        from repro.fuzz.campaign import manifest_identity

        out = tempfile.mkdtemp()
        status = main(["fuzz", "--out", out] + list(argv))
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest_identity(json.load(fh))
        return status

    return run


ENTRY_POINTS = (
    [("repro list", cli("list")),
     ("repro faults --list", cli("faults", "--list"))]
    + [(f"repro run {e}", cli("run", e)) for e in EXPERIMENTS]
    + [(f"repro run {e} --quick --json", cli("run", e, "--quick", "--json"))
       for e in EXPERIMENTS]
    + [("repro fuzz", cli("fuzz")),
       ("repro fuzz --shrink --out", fuzz_out("--shrink")),
       # Each bug's first failing case is below 20 (15 and 5): shrinking
       # one is what reaches the shrinker, and shrinking all of them
       # under the tracer takes minutes.
       ("repro fuzz --bug pr5-vector-loop --cases 20 --shrink --out",
        fuzz_out("--bug", "pr5-vector-loop", "--cases", "20", "--shrink")),
       ("repro fuzz --bug bt-stale-smc --cases 20 --shrink --out",
        fuzz_out("--bug", "bt-stale-smc", "--cases", "20", "--shrink")),
       ("repro fuzz --replay tests/fuzz_corpus",
        cli("fuzz", "--replay", os.path.join(ROOT, "tests", "fuzz_corpus"))),
       ("repro fuzz --no-faults --no-events --json",
        cli("fuzz", "--no-faults", "--no-events", "--json"))]
    + [(f"repro boot --mode {m} --workload {w}",
        cli("boot", "--mode", m, "--workload", w))
       for m in MODES for w in WORKLOADS]
    + [(f"examples/{name}", example(name))
       for name in sorted(os.listdir(os.path.join(ROOT, "examples")))
       if name.endswith(".py")]
    + [(f"benchmarks/perf/run.py --smoke --workload {w}",
        perf("--workload", w)) for w in PERF_WORKLOADS]
    + [("benchmarks/perf/run.py --smoke --trace 1",
        perf("--workload", PERF_WORKLOADS[0], "--trace", "1")),
       ("pytest benchmarks/", pytest_benchmarks),
       ("ci.yml: fuzz --seed 23 --cases 200 --no-faults",
        cli("fuzz", "--seed", "23", "--cases", "200", "--no-faults")),
       ("ci.yml: fuzz --seed 9 --cases 120 + manifest_identity",
        ci_parity("--seed", "9", "--cases", "120")),
       ("ci.yml: fuzz --seed 17 --cases 120 --faults 0.05 + "
        "manifest_identity",
        ci_parity("--seed", "17", "--cases", "120", "--faults", "0.05"))]
)


def trace(entry_points, functions):
    """Run each entry point under ``sys.settrace``; the keys it reached."""
    files = {path for path, _line, _name in functions}
    seen = set()

    def tracer(frame, _event, _arg):
        code = frame.f_code
        if code.co_filename in files:
            seen.add(code)
        # No per-line events: the call is all this needs.

    reached = set()
    for label, run in entry_points:
        started = time.perf_counter()
        sink = io.StringIO()
        sys.settrace(tracer)
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                status = run()
        finally:
            sys.settrace(None)
        # A campaign run under a known-bug shim exits 1 by design.
        note = "" if status in (None, 0) or "--bug" in label else \
            f"  (exit status {status})"
        print(f"{time.perf_counter() - started:8.2f} s  {label}{note}",
              flush=True)
    for code in seen:
        key = functions.get((code.co_filename, code.co_firstlineno,
                             code.co_name))
        if key is not None:
            reached.add(key)
    return reached


def read_list():
    kept = {}
    with open(LIST, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, reason = line.partition("  ")
                kept[key] = reason.strip()
    return kept


def main():
    if any(os.environ.get(k) != v for k, v in PINNED_ENVIRONMENT.items()):
        os.environ.update(PINNED_ENVIRONMENT)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)

    functions = defined()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tempfile.tempdir = tmp  # every --out and trace file lands here
        try:
            reached = trace(ENTRY_POINTS, functions)
        finally:
            tempfile.tempdir = None
    unreached = set(functions.values()) - reached
    print(f"{time.perf_counter() - started:8.2f} s  all {len(ENTRY_POINTS)} "
          f"entry points; {len(reached)} of {len(functions)} functions "
          f"reached, {len(unreached)} not")
    kept = read_list()
    status = 0
    for key in sorted(unreached - set(kept)):
        print(f"UNREACHED, not in unreached.txt: {key}")
        status = 1
    for key in sorted(set(kept) - unreached):
        print(f"in unreached.txt, but reached or gone: {key}")
        status = 1
    for key in sorted(k for k in kept if k in unreached and not kept[k]):
        print(f"in unreached.txt without a reason: {key}")
        status = 1
    if not status:
        print(f"unreached.txt matches: {len(kept)} functions, each with "
              "its reason")
    return status


if __name__ == "__main__":
    sys.exit(main())
