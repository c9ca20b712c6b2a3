"""Which functions in src/repro does no entry point reach, and which
options does none set to a second value?

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
unreached one joins it with a reason, or goes. The reason starts with one
of ``FUNCTION_REASONS``: being something tests call is not one.

The same run records the values every option takes. An option is a
parameter with a default of a reached function, or a field with a default
of one of the config dataclasses in ``CONFIGS`` (recorded at
construction, as their generated ``__init__`` is not in ``src/repro``).
A value is itself when it is an int, float, bool, str, None, an enum
member or a tuple of these, and its type otherwise, so a registry and
None are two values. The options that take one value are compared with
``options.txt`` the same way: each one stays only for the reason it
gives there, which starts with one of ``OPTION_REASONS``.

Only this process is traced: worker processes and the child processes of
benchmarks/perf are not. So ``repro fuzz`` runs with ``--jobs 1``, where
the code the workers run runs inline; a small ``--jobs 2`` form of what
CI runs with ``--jobs 4`` gives that option its second value (the
parent's call carries it).

A function is ``<path under src/repro>:<qualname>``; a name defined twice
in one module (a property's setter) gets ``#2`` on its second definition.
An option is ``<function>(<parameter>)`` or ``<path>:<Class>(<field>)``.
"""

import ast
import contextlib
import dataclasses
import dis
import enum
import functools
import glob
import importlib
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
OPTIONS = os.path.join(HERE, "options.txt")
#: The only reasons an option may keep its one value: the reason given
#: in options.txt starts with one of these.
OPTION_REASONS = (
    "benchmarks/perf passes it",  # by keyword, and that harness is frozen
    "a fingerprinted format carries it",
    "a CostModel field",
    "the base of ROADMAP item",
)
#: The only reasons a function may stay although no entry point calls
#: it: the reason given in unreached.txt starts with one of these.
FUNCTION_REASONS = (
    "protocol method",
    "interface",
    "guest-visible device behaviour",
    "branch of reached code",
    "error path",
    "teardown path",
    "fault path",
    "inverse of a reached call",
    "input case",
    "input validation",
    "assembler directive",
)
#: The config dataclasses whose fields are options, by module.
CONFIGS = {
    "cluster/coordinator.py": ("ClusterSimConfig",),
    "cluster/host.py": ("HostSpec",),
    "cluster/placement.py": ("ConstraintSet",),
    "faults/injector.py": ("FaultSpec", "FaultPlan"),
    "faults/recovery.py": ("RetryPolicy",),
    "guest/kernel.py": ("KernelOptions",),
    "migration/model.py": ("MigrationConfig",),
}
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
             "blk_write", "vblk_write", "net_send", "vnet_send", "idle_ticks")
PERF_WORKLOADS = ("guest_compute", "guest_exits", "fuzz_campaign",
                  "vm_lifecycle", "cluster_sweep")


@functools.lru_cache(maxsize=None)
def sources():
    """Every function and method under src/repro, read from the source:
    ``[(file, first line, name, "path:qualname", ast node), ...]``. The
    first three are what a frame's code object shows of it (the first
    line is the first decorator's, as in ``co_firstlineno``); this one
    enumeration keys both the reach gate and the options gate."""
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        rel = os.path.relpath(path, SRC)
        defs = []

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    line = min([child.lineno]
                               + [d.lineno for d in child.decorator_list])
                    defs.append((line, child, prefix + child.name))
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
        count = {}
        for line, node, qualname in sorted(defs, key=lambda d: d[0]):
            n = count[qualname] = count.get(qualname, 0) + 1
            found.append((path, line, node.name,
                          f"{rel}:{qualname}" + (f"#{n}" if n > 1 else ""),
                          node))
    return found


def parameters():
    """The options that are parameters: ``{(file, first line, name):
    [(parameter, "path:qualname(parameter)"), ...]}`` for every function
    with a defaulted parameter."""
    found = {}
    for path, line, name, key, node in sources():
        args = node.args
        positional = args.posonlyargs + args.args
        names = [a.arg for a in positional[len(positional)
                                           - len(args.defaults):]]
        names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
        if names:
            found[(path, line, name)] = [(n, f"{key}({n})") for n in names]
    return found


def fields():
    """The options that are config dataclass fields with a default (a
    field is a parameter of the generated ``__init__``):
    ``{class: [(field, "path:Class(field)"), ...]}``."""
    found = {}
    for rel, names in CONFIGS.items():
        module = importlib.import_module(
            "repro." + rel[:-3].replace("/", "."))
        for name in names:
            cls = getattr(module, name)
            found[cls] = [(f.name, f"{rel}:{name}({f.name})")
                          for f in dataclasses.fields(cls)
                          if f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING]
    return found


_PLAIN = (int, float, bool, str, type(None))


def value(v):
    """What counts as one value of an option (see the module docstring)."""
    if type(v) in _PLAIN or isinstance(v, enum.Enum):
        return type(v), v
    if type(v) is tuple:
        items = tuple(value(x) for x in v)
        if all(type(x) is tuple for x in items):
            return tuple, items
    return type(v)


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
       # Each bug's first failing case is below 20 (15, 5 and 8):
       # shrinking one is what reaches the shrinker, and shrinking all of
       # them under the tracer takes minutes.
       ("repro fuzz --bug pr5-vector-loop --cases 20 --shrink --out",
        fuzz_out("--bug", "pr5-vector-loop", "--cases", "20", "--shrink")),
       ("repro fuzz --bug bt-stale-smc --cases 20 --shrink --out",
        fuzz_out("--bug", "bt-stale-smc", "--cases", "20", "--shrink")),
       ("repro fuzz --bug vm-console-rx-ready --cases 20 --shrink --out",
        fuzz_out("--bug", "vm-console-rx-ready", "--cases", "20",
                 "--shrink")),
       ("repro fuzz --replay tests/fuzz_corpus",
        cli("fuzz", "--replay", os.path.join(ROOT, "tests", "fuzz_corpus"))),
       ("repro fuzz --no-faults --no-events --json",
        cli("fuzz", "--no-faults", "--no-events", "--json")),
       # ci.yml runs its campaigns with --jobs 4 too: the same code in
       # worker processes, which are not traced, but the parent's calls
       # carry the value.
       ("repro fuzz --cases 8 --jobs 2", cli("fuzz", "--cases", "8",
                                            "--jobs", "2")),
       # The shard count is part of an e8s run's identity (README).
       ("repro run e8s --quick --shards 4 --json",
        cli("run", "e8s", "--quick", "--shards", "4", "--json"))]
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


def trace(entry_points, functions, values):
    """Run each entry point under ``sys.settrace``; the keys it reached.
    Adds each value an option took to ``values[option]``."""
    files = {path for path, _line, _name in functions}
    options = parameters()
    resume = dis.opmap["RESUME"]
    # Per code object: None when it is not under src/repro, else the
    # options still to watch, as [(parameter, set of values)]; a
    # parameter leaves the list once it has taken two values.
    watch = {}
    seen = set()

    def tracer(frame, _event, _arg):
        code = frame.f_code
        try:
            params = watch[code]
        except KeyError:
            params = None
            if code.co_filename in files:
                seen.add(code)
                params = [(name, values.setdefault(key, set()))
                          for name, key in options.get(
                              (code.co_filename, code.co_firstlineno,
                               code.co_name), ())]
            watch[code] = params
        if params and not (code.co_flags & 0x2a0 and (
                code.co_code[frame.f_lasti] != resume
                or code.co_code[frame.f_lasti + 1])):
            # A generator's later resumes are calls too: only its first
            # (RESUME 0) sees the arguments it was given.
            local = frame.f_locals
            for name, took in params:
                took.add(value(local[name]))
            if any(len(took) > 1 for _name, took in params):
                params[:] = [p for p in params if len(p[1]) < 2]
        # No per-line events: the call is all this needs.

    def record(cls_fields, init):
        @functools.wraps(init)
        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            for name, key in cls_fields:
                values.setdefault(key, set()).add(value(getattr(self, name)))
        return recording

    sys.settrace(tracer)  # importing the config classes runs src code
    try:
        configs = fields()
    finally:
        sys.settrace(None)
    for cls, cls_fields in configs.items():
        cls.__init__ = record(cls_fields, cls.__init__)
        for _name, key in cls_fields:
            values.setdefault(key, set())

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


def read_list(path=LIST):
    kept = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, reason = line.partition("  ")
                kept[key] = reason.strip()
    return kept


def compare(found, kept, name, what, otherwise):
    """Print each difference between ``found`` and the list ``kept``."""
    status = 0
    for key in sorted(found - set(kept)):
        print(f"{what}, not in {name}: {key}")
        status = 1
    for key in sorted(set(kept) - found):
        print(f"in {name}, but {otherwise} or gone: {key}")
        status = 1
    for key in sorted(k for k in kept if k in found and not kept[k]):
        print(f"in {name} without a reason: {key}")
        status = 1
    return status


def main():
    if any(os.environ.get(k) != v for k, v in PINNED_ENVIRONMENT.items()):
        os.environ.update(PINNED_ENVIRONMENT)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)

    functions = {(path, line, name): key
                 for path, line, name, key, _node in sources()}
    values = {}
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tempfile.tempdir = tmp  # every --out and trace file lands here
        try:
            reached = trace(ENTRY_POINTS, functions, values)
        finally:
            tempfile.tempdir = None
    unreached = set(functions.values()) - reached
    single = {key for key, took in values.items() if len(took) < 2}
    print(f"{time.perf_counter() - started:8.2f} s  all {len(ENTRY_POINTS)} "
          f"entry points; {len(reached)} of {len(functions)} functions "
          f"reached, {len(unreached)} not; {len(values)} options, "
          f"{len(single)} set to one value")
    kept, options = read_list(), read_list(OPTIONS)
    status = compare(unreached, kept, "unreached.txt", "UNREACHED",
                     "reached")
    for key in sorted(k for k, why in kept.items()
                      if why and not why.startswith(FUNCTION_REASONS)):
        print(f"in unreached.txt with a reason that is not one of "
              f"FUNCTION_REASONS: {key}")
        status = 1
    if not status:
        print(f"unreached.txt matches: {len(kept)} functions, each with "
              "its reason")
    for key in sorted(k for k, why in options.items()
                      if why and not why.startswith(OPTION_REASONS)):
        print(f"in options.txt with a reason that is not one of "
              f"OPTION_REASONS: {key}")
        status = 1
    if compare(single, options, "options.txt", "ONE VALUE",
               "set to a second value"):
        status = 1
    else:
        print(f"options.txt matches: {len(options)} options, each with "
              "its reason")
    return status


if __name__ == "__main__":
    sys.exit(main())
