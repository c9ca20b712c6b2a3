"""Host-call budget: the one gate on what the simulator costs its host.

The paper's numbers are simulated cycles; how fast the host produces
them is measured in wall-clock by ``benchmarks/perf`` (``BENCHMARK.json``,
one record per change in ``benchmarks/history``) and compared there in
alternating runs of parent and change. Wall-clock on a shared host
cannot *gate* a change; the number of Python functions the simulator
enters per retired guest instruction can, because it repeats exactly.
Each run here goes under ``sys.setprofile`` and counts ``call`` events
(C calls are not counted).

The matrix covers every engine row:

* per retired instruction -- each ``MODE_MATRIX`` row x {interpreted,
  compiled} x {``cpu_bound``, ``memtouch``, ``syscall_storm``}, NanoOS
  booted with the timer off, counted on the second of two runs (the
  first fills the process-wide decode and code memos);
* per intercepted port write -- each VMM row, plus hw-nested with a
  watchdog that cannot trip (every exit goes back to the pump):
  ``port_storm(400)``'s calls minus ``port_storm(200)``'s, over 200;
* per differential fuzz case -- mostly cold code, six runs a case.

Beside the counts, ``COMPILED`` pins what the block compiler decides on
NanoOS programs at the real hotness threshold.

Every compiled cell is below its interpreted twin, 5.0-8.3x on
``cpu_bound``, so a compiled path that silently stops engaging fails its
row. Under binary translation the gap is smallest (1.3x on
``syscall_storm``, 1.6x on ``memtouch``): the translator's walk fetches
and decodes nothing, and its compiled runs still take every kernel data
access through ``mmu.translate``.

``CALLS`` is the committed record: each entry is the count measured on
CPython 3.11, and a cell fails above that count x ``SLACK`` (the counts
are exact; the slack absorbs interpreter versions). A change that
lowers a count lowers its entry, and names the parent's count where it
says why. A count over its ceiling means a helper call
came back into a per-instruction or per-exit path (a property, a table
probe behind a function, a descriptor read-modify-write): look at what
``execute`` / ``fetch`` / ``CPUCore.run`` / ``Hypervisor._exit``
call, not at the clock.

Each count is also split by layer: the file of the function entered,
through ``LAYERS``. ``benchmarks/host_layers.txt`` records every cell's
split, and a layer fails above its recorded share x ``SLACK``, so a
call that moves from one layer into another fails too. To rewrite the
record (a change that lowers a layer), run this file with
``HOST_LAYERS_OUT=benchmarks/host_layers.txt``.
"""

import gc
import os
import subprocess
import sys

import pytest

from repro.bench.common import GUEST_MEMORY, MODE_MATRIX
from repro.core import GuestConfig, Hypervisor, Machine
from repro.core import hypervisor as hvmod
from repro.core.hypervisor import RunOutcome
from repro.cpu import isa, jit as jitmod
from repro.cpu.assembler import Assembler
from repro.faults.watchdog import GuestProgressWatchdog
from repro.fuzz import diff
from repro.guest import KernelOptions, boot_native, boot_vm, build_kernel
from repro.guest import workloads as programs
from repro.guest.layout import GuestLayout
from repro.obs.registry import MetricsRegistry
from repro.util.units import MIB
from tests.conftest import port_storm

ITERATIONS = 2_000
SLACK = 1.02
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "benchmarks", "host_layers.txt")

#: Which layer a Python call is charged to: the first whose file names
#: match the entered function's ``co_filename``; "rest" takes the others
#: (this file, the guest builders, ``fuzz``, ``util``, the stdlib).
#: Compiled blocks are the block compiler's (``<pyvisor-jit>``).
LAYERS = (
    ("interp", ("repro/cpu/interp.py", "repro/cpu/isa.py")),
    ("jit", ("repro/cpu/jit.py", "<pyvisor-jit>")),
    ("translation", ("repro/cpu/mmu.py", "repro/core/shadow.py", "repro/mem/")),
    ("exits", ("repro/core/hypervisor.py", "repro/cpu/exits.py")),
    ("monitor", ("repro/core/emulate.py", "repro/core/bt.py")),
    ("devices", ("repro/devices/",)),
    ("obs", ("repro/obs/",)),
)
LAYER_NAMES = [name for name, _files in LAYERS] + ["rest"]

#: The committed record: Python calls measured on 3.11, per cell.
CALLS = {
    # per retired instruction. A "was" names the count before the core
    # took a TLB hit itself and read a fetched or loaded word straight
    # from host RAM: each fetch, load and store called mmu.translate and
    # TLB.lookup, and each fetch and load a physmem accessor. Compiled
    # cells fall too: their cold and single steps are step()s. A "then"
    # names the count while OUT and IN ended a compiled block (a cold
    # run stopped at them too: more probes) and the bare MMU answered
    # tlb_active through a property (a call at every dispatch). A "last"
    # names the count while every VM exit bound its world-switch and
    # VMM-cycle counters through two counter_attr.bound calls,
    # ShadowMMU.real_pa went through translate (two calls for one map
    # lookup) and the allocator zero-filled a frame never handed out.
    # A "polled" names the count while the pump and Machine.run polled
    # the timer on every pass (rebase_if_armed, tick, next_deadline; the
    # timer is off here) and Machine.run cut its run into slices.
    # A "paged" names the count while the shadow MMU walked the guest's
    # tables with a copy of the page-table rule of its own (three calls
    # an entry, GuestMemory.read_u32, where gpa_to_hpa is one), the
    # translator re-checked a block through ShadowMMU.kernel_fetch_gfn,
    # and the two-stage MMU read ept.root_pa through a property on every
    # TLB miss. A "sliced" names the count while Hypervisor.run cut every
    # VM run into 4,000-instruction entries, each through a method of
    # its own (_enter_guest), and a slice end cut a cold run (a probe
    # more on re-entry). The same word on the fuzz cell and the
    # translator cells below.
    "native/interp/cpu_bound": 4.6551,  # was 6.8232, polled 4.6561
    "native/interp/memtouch": 4.8124,  # was 6.9754, polled 4.8136
    "native/interp/syscall_storm": 4.755,  # was 7.0444, polled 4.756
    "native/compiled/cpu_bound": 0.557,  # was 0.7265, then 0.6676, polled 0.5621
    "native/compiled/memtouch": 1.7971,  # was 2.8437, then 1.9804, polled 1.8044
    "native/compiled/syscall_storm": 1.1677,  # was 1.414, then 1.3593, polled 1.1786
    "trap-emulate/interp/cpu_bound": 4.7401,  # was 7.7274, last 4.7596, polled 4.7513, paged 4.751, sliced 4.7413
    "trap-emulate/interp/memtouch": 5.4762,  # was 8.6296, last 5.6482, polled 5.6016, paged 5.6013, sliced 5.4777
    "trap-emulate/interp/syscall_storm": 5.3397,  # was 8.7788, last 5.4155, polled 5.3517, paged 5.3514, sliced 5.3411
    "trap-emulate/compiled/cpu_bound": 0.8041,  # was 1.0221, then 0.9302, last 0.9247, polled 0.8196, paged 0.8193, sliced 0.8097
    "trap-emulate/compiled/memtouch": 2.7345,  # was 4.6389, then 3.0335, last 3.0272, polled 2.8683, paged 2.8679, sliced 2.7444
    "trap-emulate/compiled/syscall_storm": 2.0729,  # was 2.4183, then 2.2667, last 2.2608, polled 2.0936, paged 2.0933, sliced 2.083
    "bin-transl/interp/cpu_bound": 2.9636,  # was 4.9636, polled 2.9854, paged 2.9815, sliced 2.9641
    "bin-transl/interp/memtouch": 3.013,  # was 4.0605, last 3.2237, polled 3.2018, paged 3.1816, sliced 3.0166
    "bin-transl/interp/syscall_storm": 2.7133,  # was 3.7392, last 2.7901, polled 2.7737, paged 2.7449, sliced 2.7207
    "bin-transl/compiled/cpu_bound": 0.4877,  # was 0.631, last 0.5091, polled 0.5065, paged 0.5052
    "bin-transl/compiled/memtouch": 1.7902,  # was 2.5879, last 2.0004, polled 1.9784, paged 1.9583, sliced 1.7932
    "bin-transl/compiled/syscall_storm": 1.9004,  # was 2.3515, last 1.9755, polled 1.959, paged 1.9302, sliced 1.906
    "paravirt/interp/cpu_bound": 4.7559,  # was 7.7396, last 4.7774, polled 4.7691, paged 4.7688, sliced 4.7571
    "paravirt/interp/memtouch": 5.4095,  # was 8.6726, last 5.5189, polled 5.4867, paged 5.4863, sliced 5.4109
    "paravirt/interp/syscall_storm": 5.4295,  # was 8.8968, last 5.4791, polled 5.4435, paged 5.4431, sliced 5.4308
    "paravirt/compiled/cpu_bound": 0.8285,  # was 1.0516, then 0.9567, last 0.9513, polled 0.8456, paged 0.8453, sliced 0.8336
    "paravirt/compiled/memtouch": 2.886,  # was 4.996, then 3.1145, last 3.1086, polled 2.9709, paged 2.9706, sliced 2.8952
    "paravirt/compiled/syscall_storm": 2.1292,  # was 2.4598, then 2.2982, last 2.2925, polled 2.1542, paged 2.1538, sliced 2.1415
    "hw+shadow/interp/cpu_bound": 4.7274,  # was 7.7122, last 4.7438, polled 4.7383, paged 4.738, sliced 4.7284
    "hw+shadow/interp/memtouch": 5.2036,  # was 8.3640, last 5.348, polled 5.3286, paged 5.3282, sliced 5.2047
    "hw+shadow/interp/syscall_storm": 4.8323,  # was 8.2685, last 4.8498, polled 4.844, paged 4.8436, sliced 4.8333
    "hw+shadow/compiled/cpu_bound": 0.7918,  # was 1.0069, then 0.9142, last 0.9087, polled 0.8065, paged 0.8062, sliced 0.7966
    "hw+shadow/compiled/memtouch": 2.4646,  # was 4.3569, then 2.736, last 2.7297, polled 2.598, paged 2.5976, sliced 2.4741
    "hw+shadow/compiled/syscall_storm": 1.4935,  # was 1.732, then 1.6296, last 1.6238, polled 1.5146, paged 1.5142, sliced 1.5039
    "hw+nested/interp/cpu_bound": 4.0271,  # was 7.9325, polled 4.0332, paged 4.0297, sliced 4.0281
    "hw+nested/interp/memtouch": 4.0999,  # was 8.2424, polled 4.1135, paged 4.1094, sliced 4.101
    "hw+nested/interp/syscall_storm": 4.0838,  # was 8.3669, polled 4.0904, paged 4.0866, sliced 4.0849
    "hw+nested/compiled/cpu_bound": 0.4855,  # was 0.6034, then 0.4982, last 0.4949, polled 0.4917, paged 0.4914, sliced 0.4898
    "hw+nested/compiled/memtouch": 1.7306,  # was 3.0233, then 1.7535, last 1.7498, polled 1.7461, paged 1.7457, sliced 1.7373
    "hw+nested/compiled/syscall_storm": 1.0897,  # was 1.2102, then 1.1089, last 1.1055, polled 1.102, paged 1.1017, sliced 1.1
    "hw+hmode/interp/cpu_bound": 4.0313,  # was 7.9366, polled 4.0374, paged 4.0339, sliced 4.0322
    "hw+hmode/interp/memtouch": 4.1175,  # was 8.2601, polled 4.1311, paged 4.127, sliced 4.1187
    "hw+hmode/interp/syscall_storm": 4.0883,  # was 8.3714, polled 4.0948, paged 4.091, sliced 4.0893
    "hw+hmode/compiled/cpu_bound": 0.4897,  # was 0.6076, then 0.5023, last 0.4991, polled 0.4959, paged 0.4956, sliced 0.494
    "hw+hmode/compiled/memtouch": 1.7483,  # was 3.0410, then 1.7712, last 1.7675, polled 1.7638, paged 1.7634, sliced 1.755
    "hw+hmode/compiled/syscall_storm": 1.0941,  # was 1.2147, then 1.1133, last 1.1099, polled 1.1065, paged 1.1061, sliced 1.1044
    # per intercepted port write. A "was" on a bin-transl cell names the
    # count when the translator's slice was a cycle budget (four cycles
    # per slice instruction): a pump pass every 16,000 of its cycles,
    # not every 4,000 retired instructions. The "was" on the other five
    # names the count while an OUT ended its compiled block: each write
    # made two trips through the run loop's top and BlockJIT.lookup. A
    # "last" and a "polled" as above. The watched cell runs under a
    # watchdog that cannot trip; "pumped" names its count while a
    # watchdog sent every exit back to the pump (it was 20, last 19,
    # polled 17 then).
    "trap-emulate/port_write": 12,  # was 23, last 15
    "bin-transl/port_write": 6.0,  # was 6.1
    "paravirt/port_write": 12,  # was 23, last 15
    "hw+shadow/port_write": 7,  # was 18, last 10
    "hw+nested/port_write": 6,  # was 12, last 8
    "hw+hmode/port_write": 6,  # was 12, last 8
    "hw+nested/watched/port_write": 8.88,  # pumped 15
    # (a), (c) and (d) per retired instruction, (f) per request: a "was",
    # a "then", a "last" and a "paged" as above; a request also costs the disk image's range
    # check and DMA copy now, and its interrupt no walk of the registry.
    "bare/interp/cpu_bound": 5.0057,  # was 6.7558
    "bin-transl/item_walk": 3.0238,  # was 3.0290, sliced 3.0262
    "bin-transl/compiled_runs": 2.0511,  # was 2.0561, sliced 2.0533
    "hw+nested/cold": 5.8687,  # was 10.3999, paged 5.8712, sliced 5.8692
    "hw+nested/blk_write": 233,  # was 271, then 261, last 247
    "hw+nested/vblk_write": 184.75,  # was 187.75, last 186.25
    # (g) per case: a "was", a "then" and a "last" as above (15621 measured at
    # the "was"). 18420 when a
    # cold block's extent was read off its bytes at every probe and the
    # fuzz images were built and compared through per-entry and per-page
    # Python loops.
    # 10983.75 while the native rows ran on a core with no port bus: they
    # now run the device models the VMM rows always ran, on a recycled
    # Machine whose core and board are rebuilt per run. A "polled" as
    # above: each VMM row's pump passes made two timer calls each. A
    # "paged" as above.
    "fuzz/case": 10951.35,  # was 10983.75 (15426, then 11183.35, 11057.9), polled 11342.45, paged 11295.95, sliced 10967.2
}

ROWS = {label: (virt, mmu, pv) for label, virt, mmu, pv in MODE_MATRIX}
VMM_ROWS = [label for label, (virt, _mmu, _pv) in ROWS.items() if virt]
PROGRAMS = {
    "cpu_bound": lambda: programs.cpu_bound(600),
    "memtouch": lambda: programs.memtouch(16, 2),
    "syscall_storm": lambda: programs.syscall_storm(40),
}


@pytest.fixture(autouse=True)
def fresh_memos(monkeypatch):
    """Every count starts from empty process-wide memos: what ran before
    in the process (a test that compiles every block on its first
    visit, say) must not change it."""
    gc.collect()  # what earlier tests left, hypervisors included
    isa.DECODED.clear()
    hvmod._port_detail.cache_clear()
    monkeypatch.setattr(jitmod, "_CODE", {})
    monkeypatch.setattr(jitmod, "_HEADS", set())


class _LayerOf(dict):
    """``co_filename`` -> layer name, worked out once a file."""

    def __missing__(self, filename):
        path = filename.replace(os.sep, "/")
        layer = self[filename] = next(
            (name for name, files in LAYERS if any(f in path for f in files)),
            "rest")
        return layer


def count_calls(run):
    """(Python-level calls made by ``run()``, ``{layer: calls}``; what it
    returned). The cyclic collector is off meanwhile: a collection would
    run the finalizers of whatever garbage earlier tests left, inside
    the count."""
    calls = dict.fromkeys(LAYER_NAMES, 0)
    layer_of = _LayerOf()

    def profiler(frame, event, _arg):
        if event == "call":
            calls[layer_of[frame.f_code.co_filename]] += 1

    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls, result


def read_record(path=RECORD):
    """``{cell: (per, total, {layer: calls})}`` of a layer record."""
    record = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            cell, per, total, *counts = line.split()
            if cell == "cell":  # the column heads
                assert counts == LAYER_NAMES, f"{path}: columns {counts}"
                continue
            record[cell] = (int(per), int(total),
                            dict(zip(LAYER_NAMES, map(int, counts))))
    return record


#: What this process measured: ``{cell: (per, {layer: calls})}``.
MEASURED = {}


def within_budget(key, calls, per):
    """Gate cell ``key``: ``calls`` (``{layer: calls}``) made for ``per``
    retired instructions, port writes, requests or cases."""
    MEASURED[key] = per, calls
    count = sum(calls.values()) / per
    assert count <= CALLS[key] * SLACK, (
        f"{key}: {count:.3f} Python calls, ceiling {CALLS[key]} x {SLACK}")
    record_per, _total, recorded = read_record()[key]
    over = {}
    for layer, n in calls.items():
        share = recorded[layer] / record_per
        if n / per > share + abs(share) * (SLACK - 1):
            over[layer] = (round(n / per, 4), round(share, 4))
    assert not over, f"{key}: layers over their record (now, recorded): {over}"


@pytest.fixture(autouse=True, scope="module")
def write_record():
    """With ``HOST_LAYERS_OUT`` set, write what the module measured there,
    in the record's format."""
    yield
    out = os.environ.get("HOST_LAYERS_OUT")
    if not out:
        return
    rows = [["cell", "per", "total", *LAYER_NAMES]]
    for key in CALLS:
        if key in MEASURED:
            per, calls = MEASURED[key]
            rows.append([key, per, sum(calls.values()),
                         *(calls[layer] for layer in LAYER_NAMES)])
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    with open(out, "w") as f:
        f.write(_RECORD_HEAD)
        for row in rows:
            f.write("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


_RECORD_HEAD = """\
# Python calls of each cell of tests/test_host_call_budget.py, split by
# the layer of the function entered (LAYERS there). A cell's count is
# total / per (per: the retired instructions, port writes, requests or
# cases it is counted over); the layers sum to total. Written by running
# that file with HOST_LAYERS_OUT set to this file's path.
"""


_KERNELS = {}


def _kernel(pv):
    if pv not in _KERNELS:
        _KERNELS[pv] = build_kernel(KernelOptions(
            pv=pv, memory_bytes=GUEST_MEMORY, timer_period=0))
    return _KERNELS[pv]


def _create(label, image=None):
    """A VM of row ``label``; ``image``, if given, loaded and reset to."""
    virt, mmu, _pv = ROWS[label]
    hv = Hypervisor(memory_bytes=GUEST_MEMORY + 4 * MIB)
    vm = hv.create_vm(GuestConfig(
        name="vm", memory_bytes=GUEST_MEMORY, virt_mode=virt, mmu_mode=mmu))
    if image is not None:
        hv.load_program(vm, image)
        hv.reset_vcpu(vm, image.entry)
    return hv, vm


def _run_vm(hv, vm, watchdog=None):
    """(``{layer: calls}``, instret) of ``hv.run`` to the guest's power-off."""
    calls, outcome = count_calls(lambda: hv.run(
        vm, max_guest_instructions=1_000_000, watchdog=watchdog))
    assert outcome is RunOutcome.SHUTDOWN
    return calls, vm.vcpus[0].cpu.instret


def _boot(label, compiled, image):
    """(``{layer: calls}``, core) of one NanoOS boot of ``image`` under row ``label``,
    the block compiler on or off."""
    kernel = _kernel(ROWS[label][2])
    if ROWS[label][0] is None:
        machine = Machine(memory_bytes=GUEST_MEMORY, jit=compiled)
        calls, diag = count_calls(lambda: boot_native(machine, kernel, image))
        cpu = machine.cpu
    else:
        hv, vm = _create(label)
        vm.vcpus[0].cpu.jit_enabled = compiled
        calls, diag = count_calls(lambda: boot_vm(hv, vm, kernel, image))
        cpu = vm.vcpus[0].cpu
    assert diag.clean
    return calls, cpu


@pytest.mark.parametrize("program", list(PROGRAMS))
@pytest.mark.parametrize("engine", ["interp", "compiled"])
@pytest.mark.parametrize("label", list(ROWS))
def test_per_retired_instruction(label, engine, program):
    _boot(label, engine == "compiled", PROGRAMS[program]())
    calls, cpu = _boot(label, engine == "compiled", PROGRAMS[program]())
    within_budget(f"{label}/{engine}/{program}", calls, cpu.instret)


#: What the block compiler decides at the real ``jit.HOT``: (blocks
#: compiled, cold block entries) of each program, booted in this order
#: in one process whose memos start empty (so the later programs find
#: the kernel's blocks known). A change of *where* cold code is probed
#: moves these; the call counts cannot see it (the device cells run at
#: ``HOT = 1``, and fewer probes make fewer calls).
#: Cold entries were (in this order) 497, 282, 77, 350, 377 / 547, 300,
#: 79, 416, 382 / 202, 351, 378 while OUT and IN ended a block, and so a
#: cold run: each was one probe more. Native's were 191, 340, 367 while
#: Machine.run cut its run into 4,000-instruction slices, and the VMM
#: rows' 463, 216, 67, 340, 367 / 513, 234, 69, 406, 372 while
#: Hypervisor.run did: a slice end cut a cold run, which was probed
#: again on re-entry.
COMPILED = {
    "hw+nested": {"vblk_write": (7, 435), "blk_write": (4, 202),
                  "cpu_bound": (5, 66), "memtouch": (5, 325),
                  "syscall_storm": (14, 340)},
    "hw+shadow": {"vblk_write": (7, 485), "blk_write": (4, 220),
                  "cpu_bound": (5, 68), "memtouch": (5, 391),
                  "syscall_storm": (14, 372)},
    "native": {"cpu_bound": (5, 190), "memtouch": (5, 325),
               "syscall_storm": (14, 340)},
}


@pytest.mark.parametrize("label", list(COMPILED))
def test_compile_decisions(label):
    builds = {"vblk_write": lambda: programs.vblk_write(8, 4),
              "blk_write": lambda: programs.blk_write(8), **PROGRAMS}
    seen = {}
    for program in COMPILED[label]:
        stats = _boot(label, True, builds[program]())[1].jit_stats()
        seen[program] = (stats["blocks_compiled"], stats["cold_steps"])
    assert seen == COMPILED[label]


def _minus(calls, base):
    """``{layer: calls}`` of a longer run over a shorter one's."""
    return {layer: n - base[layer] for layer, n in calls.items()}


def _port_storm_calls(label, writes, watched):
    hv, vm = _create(label, port_storm(writes))
    watchdog = None
    if watched:  # one that cannot trip: it beats, and changes nothing
        watchdog = GuestProgressWatchdog(MetricsRegistry().scope("watchdog"))
        watchdog.idle_beat_limit = 1 << 60
    calls, _instret = _run_vm(hv, vm, watchdog)
    assert vm.devices["console"].chars_written == writes
    return calls


@pytest.mark.parametrize("label, watched", [
    *((label, False) for label in VMM_ROWS), ("hw+nested", True)],
    ids=[*VMM_ROWS, "hw+nested-watched"])
def test_an_intercepted_port_write(label, watched):
    """One intercepted OUT in every three instructions (an OUT exit on
    the hardware-assist rows, a PRIV trap the monitor emulates on the
    deprivileged ones, a callout under the translator): what 200 more
    writes cost, per write, once both lengths have run."""
    for writes in (200, 400):
        _port_storm_calls(label, writes, watched)
    calls = _minus(_port_storm_calls(label, 400, watched),
                   _port_storm_calls(label, 200, watched))
    key = f"{label}/watched/port_write" if watched else f"{label}/port_write"
    within_budget(key, calls, 200)


def _vm(label, source):
    return _create(label, Assembler().assemble(
        f".org {GuestLayout.KERNEL_BASE:#x}\n" + source))


def test_bare_interpreter():
    """(a) The reference loop on a bare core, paging off: step, fetch,
    translate (real mode), execute, the row's ``fn``."""
    machine = Machine(memory_bytes=GUEST_MEMORY, jit=False)
    image = programs.cpu_bound(ITERATIONS)
    machine.load_program(image)
    machine.cpu.reset(image.entry)
    retire = 2 + 4 * ITERATIONS  # up to, not including, the exit syscall
    calls, result = count_calls(
        lambda: machine.cpu.run(max_instructions=retire))
    assert result.instructions == retire
    within_budget("bare/interp/cpu_bound", calls, retire)


def _port_loop(natives):
    """``port_storm``'s shape: one callout and ``natives`` native items
    (the last a branch) per translated block."""
    body = "\n".join("    add  s1, s1, s0" for _ in range(natives - 2))
    return f"""
    li   s0, {ITERATIONS}
loop:
    out  0x10, s0
{body}
    sub  s0, s0, 1
    bnez s0, loop
    li   t0, 1
    out  0xf0, t0
    hlt
"""


#: What growing ``_port_loop`` by eight native items adds to a run: its
#: retired instructions, all in the run's one entry.
ADDED = 8 * ITERATIONS


def _translator_loops(compiled):
    """(``{layer: calls}`` and instret of ``_port_loop(2)``, calls per
    instruction ``_port_loop(10)`` adds) under the translator, its
    native runs compiled or walked."""
    runs = []
    for natives in (2, 10):
        hv, vm = _vm("bin-transl", _port_loop(natives))
        vm.vcpus[0].cpu.jit_enabled = compiled
        runs.append(_run_vm(hv, vm))
    (calls, instret), (calls_wide, instret_wide) = runs
    assert instret_wide - instret == ADDED
    added = sum(_minus(calls_wide, calls).values())
    return calls, instret, added / (instret_wide - instret)


def test_translator_item_walk():
    """(c) Guest kernel mode under the translator, walked item by item
    (``jit_enabled = False``). A native item costs ``execute`` and the
    row's ``fn``: growing the block by eight native items grows the
    count by sixteen calls an iteration. On top comes their one
    translation: at most three calls an item, and less where the
    shorter loop decoded the same words first."""
    calls, instret, per_added_item = _translator_loops(compiled=False)
    within_budget("bin-transl/item_walk", calls, instret)
    assert abs(per_added_item - 2.0) < 3 * 8 / ADDED


def test_translator_compiled_runs():
    """(c) The same, compiled: the native run between the callout and
    the branch is one closure call however long it is, so the eight
    added items cost almost nothing but their one translation and
    compile (about 620 calls)."""
    calls, instret, per_added_item = _translator_loops(compiled=True)
    within_budget("bin-transl/compiled_runs", calls, instret)
    assert per_added_item < 640 / ADDED


def test_cold_code_under_hardware_assist():
    """(d) One pass over a straight-line body nothing has compiled: a
    cold block is probed once, then every instruction is one ``step()``
    behind the compiled loop's top."""
    lines = []
    for k in range(ITERATIONS // 4):
        lines += [f"    add  s1, s1, {k + 1}", "    xor  s2, s2, s1",
                  "    st   [t3+0], s2", "    ld   t0, [t3+0]"]
    hv, vm = _vm("hw+nested", "\n".join([
        "    li   t3, 0x100000", *lines,
        "    li   t0, 1", "    out  0xf0, t0", "    hlt"]))
    calls, instret = _run_vm(hv, vm)
    assert vm.vcpus[0].cpu.jit_stats()["blocks_compiled"] == 0
    within_budget("hw+nested/cold", calls, instret)


def _nanoos_calls(program):
    """Python calls of one hw-nested NanoOS run of ``program``."""
    hv, vm = _create("hw+nested")
    kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEMORY))
    hv.load_program(vm, kernel)
    hv.load_program(vm, program)
    hv.reset_vcpu(vm, kernel.entry)
    return _run_vm(hv, vm)[0]


@pytest.mark.parametrize("name, build, per_kick", [
    ("blk_write", programs.blk_write, 1),
    ("vblk_write", lambda kicks: programs.vblk_write(kicks, 4), 4),
], ids=["blk_write", "vblk_write"])
def test_a_device_request(name, build, per_kick, monkeypatch):
    """(f) One block write under hw-nested, through the emulated disk
    (five port exits, DMA out of guest memory) and through virtio-blk
    (four requests per kick, descriptors and status through guest
    memory): what 16 more requests cost, per request, once both lengths
    have run (boot and memos cancel out). Guest code is compiled on its
    first visit, so what is left is the exit path and the device model."""
    monkeypatch.setattr(jitmod, "HOT", 1)
    short, long_ = build(16 // per_kick), build(32 // per_kick)
    _nanoos_calls(short)
    _nanoos_calls(long_)
    calls = _minus(_nanoos_calls(long_), _nanoos_calls(short))
    within_budget(f"hw+nested/{name}", calls, 16)


def test_a_fuzz_case(monkeypatch):
    """(g) One differential fuzz case: six runs of up to 600 guest
    instructions, mostly cold code, and their comparison. Seed 1's
    cases 0-19, per case, counted on the second pass (the first fills
    the memos and this process's pooled hosts and native machine)."""
    monkeypatch.setattr(diff, "_HOSTS", {})
    monkeypatch.setattr(diff, "_NATIVE", None)

    def cases():
        for index in range(20):
            diff.run_case(1, index, diff.default_opts())

    cases()
    calls, _ = count_calls(cases)
    within_budget("fuzz/case", calls, 20)


def test_the_count_repeats_exactly():
    """What makes it a gate: once the process-wide memos are warm, two
    runs of one guest make the same number of calls."""
    runs = [_run_vm(*_vm("bin-transl", _port_loop(2))) for _ in range(3)]
    assert runs[1] == runs[2]


def test_the_record_splits_every_cell():
    """``benchmarks/host_layers.txt`` splits every cell once, in ``CALLS``
    order; its layers sum exactly to the cell's total, and that total is
    within the cell's ceiling."""
    record = read_record()
    assert list(record) == list(CALLS)
    for cell, (per, total, layers) in record.items():
        assert sum(layers.values()) == total, cell
        assert total / per <= CALLS[cell] * SLACK, cell


#: The cells split again under two hash seeds, in processes of their own:
#: a fuzz case (sets of written frames, pooled hosts), cold code, shadow
#: paging's spaces and fills, the translator's exits, and virtio's rings.
HASH_SEED_CELLS = [
    "test_a_fuzz_case",
    "test_cold_code_under_hardware_assist",
    "test_per_retired_instruction[hw+shadow-interp-memtouch]",
    "test_an_intercepted_port_write[bin-transl]",
    "test_a_device_request[vblk_write]",
]


def test_the_split_ignores_the_hash_seed(tmp_path):
    """What ``HASH_SEED_CELLS`` measure, layer by layer, is the same under
    ``PYTHONHASHSEED`` 0 and 1."""
    runs = []
    for seed in (0, 1):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   HOST_LAYERS_OUT=str(tmp_path / f"{seed}.txt"),
                   PYTHONPATH=os.path.join(ROOT, "src"))
        runs.append(subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *(f"{__file__}::{cell}" for cell in HASH_SEED_CELLS)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT))
    for run in runs:
        output = run.communicate()[0].decode()
        assert run.returncode == 0, output
    splits = [read_record(tmp_path / f"{seed}.txt") for seed in (0, 1)]
    assert len(splits[0]) == len(HASH_SEED_CELLS)
    assert splits[0] == splits[1]
