"""The five workloads: what they build in set-up and the ops of one pass.

Every workload measures pyvisor *from outside*: an op is one call (or
one short, fixed sequence of calls) into a public function, timed by
the harness.  An op has three phases:

``prepare``  untimed -- build what the call needs (a fresh machine or
             hypervisor + VM); guest runs therefore time *execution*,
             and construction cost is read from ``fuzz_campaign`` (whose
             ``run_case`` constructs six guests per case) and from the
             ``create_vm`` spans of the traced run;
``run``      timed -- the public call itself;
``check``    untimed -- the correctness oracle, the exact simulated
             counts that feed ``sim_fingerprint``, and the host-side
             facts the per-layer metrics are computed from.

Sizes are constants here (``FULL``, ``SMOKE``): one full pass is 2-4 s
of wall-clock at today's speed (``fuzz_campaign`` 10 s), and a run makes
``Workload.passes`` of them.
"""

import zlib
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from repro import (
    GuestConfig,
    Hypervisor,
    LiveMigrator,
    MMUVirtMode,
    RunOutcome,
    VirtMode,
    VMSnapshot,
    restore_vm,
    snapshot_vm,
)
from repro.bench.common import GUEST_MEMORY, MODE_MATRIX
from repro.cluster.coordinator import ClusterSimConfig, run_sharded_cluster
from repro.core import Machine
from repro.core.machine import MachineOutcome
from repro.cpu.assembler import Assembler
from repro.fuzz import diff, gen
from repro.guest import (
    KernelOptions,
    boot_native,
    boot_vm,
    build_kernel,
    read_diag,
)
from repro.guest import workloads as programs
from repro.guest.layout import GuestLayout
from repro.migration import PostCopyMigrator
from repro.overcommit import PageSharer
from repro.util.units import MIB, PAGE_SIZE

from harness import OpResult

#: Host RAM behind a single-guest hypervisor. Smaller than the 64 MiB
#: the experiments use because construction is untimed here and a
#: 64 MiB zeroed bytearray per op would only lengthen the pass.
HOST_MEMORY = 32 * MIB
#: Host RAM where a second or third guest (migration target, sharing
#: set) lives beside the first.
LIFECYCLE_HOST_MEMORY = 64 * MIB
SHARING_HOST_MEMORY = 96 * MIB


@dataclass(frozen=True)
class Sizes:
    """Every size constant of the benchmark, in one place."""

    cpu_bound: int                      # loop iterations
    memtouch: Tuple[int, int]           # pages, passes
    random_walk: Tuple[int, int]        # pages, accesses
    syscall_storm: int                  # syscalls
    pt_mix: Tuple[int, int, int]        # map/unmap cycles, reads, pages
    blk_write: int                      # requests
    vblk_write: Tuple[int, int]         # batches, requests per batch
    port_storm: int                     # port writes
    fuzz_cases: int
    lifecycle: Tuple[int, int]          # memtouch pages, passes
    lifecycle_template_instructions: int
    migrate_quantum: int
    migrate_rounds: int
    cluster_fleets: Tuple[int, ...]     # VMs
    cluster_epochs: int
    sim_kernel: Tuple[int, int]         # processes, Timeout hops each
    merge_shards: Tuple[int, int]       # partial manifests, hosts each


FULL = Sizes(
    cpu_bound=1800,
    memtouch=(48, 12),
    random_walk=(128, 500),
    syscall_storm=100,
    pt_mix=(24, 24, 16),
    blk_write=70,
    vblk_write=(8, 4),
    port_storm=9000,
    fuzz_cases=200,
    lifecycle=(1024, 4),
    lifecycle_template_instructions=98_000,
    migrate_quantum=3000,
    migrate_rounds=4,
    cluster_fleets=(1000, 2000, 4000),
    cluster_epochs=6,
    sim_kernel=(200, 500),
    merge_shards=(8, 40),
)

SMOKE = Sizes(
    cpu_bound=100,
    memtouch=(8, 2),
    random_walk=(16, 40),
    syscall_storm=8,
    pt_mix=(2, 16, 8),
    blk_write=2,
    vblk_write=(1, 2),
    port_storm=40,
    fuzz_cases=12,
    lifecycle=(32, 40),
    lifecycle_template_instructions=9_000,
    migrate_quantum=600,
    migrate_rounds=3,
    cluster_fleets=(40, 60, 80),
    cluster_epochs=2,
    sim_kernel=(10, 20),
    merge_shards=(2, 4),
)


class Op:
    """One timed call. ``ctx`` is a dict that lives for one pass, for
    ops that consume what an earlier op of the pass produced."""

    name = ""

    def prepare(self, ctx):
        return None

    def run(self, ctx, prepared):
        raise NotImplementedError

    def check(self, ctx, prepared, out) -> OpResult:
        raise NotImplementedError


class Workload:
    """Set-up happens in ``__init__``; ``ops`` is one pass."""

    name = ""
    unit = ""
    #: Timed passes in a run of the length BENCHMARK.json states
    #: (``harness.pass_count``), chosen with the size constants so that
    #: a run, its three set-ups included, ends in 10-20 s.
    passes = 4

    def __init__(self, seed, sizes, recorder):
        self.seed = seed
        self.sizes = sizes
        self.rec = recorder
        self.ops = []

    @property
    def warmup_ops(self):
        """The untimed slice run once before timing: enough to finish
        lazy imports and first-use set-up in every code path."""
        return self.ops

    def cross_check(self, results) -> Dict[int, str]:
        """Checks that span ops of one pass: {op index: failure}."""
        return {}


# -- guest_compute / guest_exits -------------------------------------------


class EngineConfig(NamedTuple):
    label: str
    virt_mode: Optional[VirtMode]
    mmu_mode: Optional[MMUVirtMode]
    pv: bool
    jit: Optional[bool]  # native rows only; None = the Machine default


#: The six VMM rows of ``repro.bench.common.MODE_MATRIX`` ('+' is not a
#: legal metric-name character).
VMM_CONFIGS = tuple(
    EngineConfig(label.replace("+", "-"), virt, mmu, pv, None)
    for label, virt, mmu, pv in MODE_MATRIX[1:]
)
NATIVE_INTERP = EngineConfig("native-interp", None, None, False, False)
NATIVE_JIT = EngineConfig("native-jit", None, None, False, True)
#: The rows of both guest workloads: MODE_MATRIX with its ``native`` row
#: (the JIT, the Machine default) joined by the bare interpreter, the
#: engine under five of the six VMM rows. A guest's time on it is what
#: the same guest costs with no VMM underneath.
ENGINE_ROWS = (NATIVE_INTERP, NATIVE_JIT) + VMM_CONFIGS


class GuestProgram(NamedTuple):
    name: str
    image: object          # assembled Program
    expected: int          # host oracle for the guest's exit value
    requests: int = 0      # I/O requests issued (device programs)
    bare: bool = False     # runs on the bare (virtual) machine, no NanoOS


def expected_random_walk(pages, accesses, seed):
    """Host oracle for ``random_walk``: phase 1 stores each page's index
    in it, phase 2 sums the word read at every LCG-chosen page."""
    state, total = seed, 0
    for _ in range(accesses):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        total += (state >> 12) & (pages - 1)
    return total & 0xFFFFFFFF


def compute_programs(sizes, seed):
    pages, passes = sizes.memtouch
    rw_pages, rw_accesses = sizes.random_walk
    return (
        GuestProgram("cpu_bound", programs.cpu_bound(sizes.cpu_bound),
                     programs.expected_cpu_bound(sizes.cpu_bound)),
        GuestProgram("memtouch", programs.memtouch(pages, passes),
                     programs.expected_memtouch(pages, passes)),
        GuestProgram("random_walk",
                     programs.random_walk(rw_pages, rw_accesses, seed),
                     expected_random_walk(rw_pages, rw_accesses, seed)),
    )


def port_storm(iterations, writes=True):
    """A guest without NanoOS: a kernel-mode loop that writes the console
    port ``iterations`` times and powers off -- one intercepted
    instruction in every three, where NanoOS's densest path (a block
    request) manages one in ten. ``writes=False`` is the same loop with
    an ``add`` for the ``out``: its exit-free twin. A guest kernel does
    ~50 instructions of its own around each syscall and the interpreter
    spends 5 us on each, against ~25 us for an exit, so no NanoOS
    program spends more than a third of its host time in exits; this one
    spends over half."""
    return Assembler().assemble(f"""
.org {GuestLayout.KERNEL_BASE:#x}
start:
    li   s0, {iterations}
loop:
    {"out  0x10, s0" if writes else "add  s1, s1, s0"}
    sub  s0, s0, 1
    bnez s0, loop
    li   t0, 1
    out  0xf0, t0            ; power off
""")


def exit_programs(sizes, seed):
    maps, reads, pages = sizes.pt_mix
    batches, batch = sizes.vblk_write
    return (
        GuestProgram("syscall_storm",
                     programs.syscall_storm(sizes.syscall_storm),
                     sizes.syscall_storm),
        GuestProgram("pt_mix", programs.pt_mix(maps, reads, pages, seed),
                     programs.expected_pt_mix(maps, reads, pages, seed)),
        GuestProgram("blk_write", programs.blk_write(sizes.blk_write),
                     sizes.blk_write, requests=sizes.blk_write),
        GuestProgram("vblk_write", programs.vblk_write(batches, batch),
                     batches * batch, requests=batches * batch),
        GuestProgram("port_storm", port_storm(sizes.port_storm),
                     sizes.port_storm, bare=True),
    )


class GuestRun(Op):
    """One guest to shutdown under one engine config: NanoOS booted with
    one user program, or a ``bare`` program on the (virtual) machine."""

    def __init__(self, workload, config, program):
        self.rec = workload.rec
        self.config = config
        self.program = program
        self.kernel = None if program.bare else workload.kernel(config.pv)
        self.name = f"{config.label}/{program.name}"

    def prepare(self, ctx):
        cfg, span = self.config, self.rec.span
        if cfg.virt_mode is None:
            with span("core.machine.create"):
                return Machine(memory_bytes=GUEST_MEMORY, jit=cfg.jit)
        with span("core.hypervisor.create"):
            hv = Hypervisor(memory_bytes=HOST_MEMORY)
        with span("core.hypervisor.create_vm"):
            vm = hv.create_vm(GuestConfig(
                name="bench", memory_bytes=GUEST_MEMORY,
                virt_mode=cfg.virt_mode, mmu_mode=cfg.mmu_mode))
        return hv, vm

    def run(self, ctx, prepared):
        image = self.program.image
        if self.config.virt_mode is None:
            if not self.program.bare:
                with self.rec.span("guest.loader.boot"):
                    return boot_native(prepared, self.kernel, image)
            with self.rec.span("core.machine.run"):
                prepared.load_program(image)
                prepared.cpu.reset(image.entry)
                return prepared.run(max_instructions=5_000_000)
        hv, vm = prepared
        if not self.program.bare:
            with self.rec.span("guest.loader.boot"):
                return boot_vm(hv, vm, self.kernel, image)
        with self.rec.span("core.hypervisor.run"):
            hv.load_program(vm, image)
            hv.reset_vcpu(vm, image.entry)
            return hv.run(vm, max_guest_instructions=5_000_000)

    def _verdict(self, prepared, out):
        """(the guest's result value, why it is unclean or "")."""
        if not self.program.bare:
            return out.user_result, "" if out.clean else f"guest unclean: {out}"
        if self.config.virt_mode is None:
            console, power = prepared.console, prepared.power
            off = out is MachineOutcome.SHUTDOWN
        else:
            devices = prepared[1].devices
            console, power = devices["console"], devices["power"]
            off = out is RunOutcome.SHUTDOWN
        return console.chars_written, (
            "" if off and power.code == 1 else f"guest did not power off: {out}")

    def check(self, ctx, prepared, out):
        if self.config.virt_mode is None:
            cpu, vm = prepared.cpu, None
            exits = {}
        else:
            vm = prepared[1]
            cpu = vm.vcpus[0].cpu
            exits = dict(sorted(vm.exit_stats.counts.items()))
        tlb = cpu.mmu.tlb.stats
        value, unclean = self._verdict(prepared, out)
        result = OpResult(
            work=cpu.instret,
            sim={"cycles": cpu.cycles, "instret": cpu.instret,
                 "exits": exits, "tlb_hits": tlb.hits,
                 "tlb_misses": tlb.misses, "result": value},
            info={"config": self.config.label, "program": self.program.name,
                  "instret": cpu.instret, "exits": sum(exits.values()),
                  "tlb_hits": tlb.hits, "tlb_misses": tlb.misses,
                  "requests": self.program.requests},
        )
        if vm is None:
            result.info["jit"] = cpu.jit_stats()
        else:
            stats = vm.stats
            result.info.update(
                shadow_fills=stats.shadow_fills,
                ept_violations=stats.ept_violations,
                bt_callouts=stats.bt_callouts,
                bt_block_hits=stats.bt_block_hits,
                bt_block_misses=stats.bt_block_misses)
        if unclean:
            result.failure = unclean
        elif value != self.program.expected:
            result.failure = (f"checksum {value:#x} != host oracle "
                              f"{self.program.expected:#x}")
        return result


class GuestWorkload(Workload):
    """``ENGINE_ROWS`` x the workload's programs."""

    unit = "guest-instr/s"

    def __init__(self, seed, sizes, recorder, guest_programs=()):
        super().__init__(seed, sizes, recorder)
        self._kernels = {}
        self.ops = [GuestRun(self, config, program)
                    for program in guest_programs
                    for config in ENGINE_ROWS]

    def kernel(self, pv):
        if pv not in self._kernels:
            with self.rec.span("guest.kernel.build"):
                self._kernels[pv] = build_kernel(KernelOptions(
                    pv=pv, memory_bytes=GUEST_MEMORY))
        return self._kernels[pv]

    #: The warm-up is this program under every engine config of the
    #: workload: each engine's code path runs once before timing starts.
    warmup_program = ""

    @property
    def warmup_ops(self):
        return [op for op in self.ops
                if op.program.name == self.warmup_program]

    def cross_check(self, results):
        # The JIT's contract is bit-identical simulated state.
        by_name = {op.name: (i, results[i]) for i, op in enumerate(self.ops)}
        failures = {}
        for program in {op.program.name for op in self.ops}:
            _i, interp = by_name[f"native-interp/{program}"]
            j, jit = by_name[f"native-jit/{program}"]
            for key in ("cycles", "instret"):
                if interp.sim.get(key) != jit.sim.get(key):
                    failures[j] = (f"native jit {key} {jit.sim.get(key)} != "
                                   f"interp {interp.sim.get(key)}")
        return failures


class GuestCompute(GuestWorkload):
    """Eight engine rows x three compute programs."""

    name = "guest_compute"
    warmup_program = "cpu_bound"

    def __init__(self, seed, sizes, recorder):
        super().__init__(seed, sizes, recorder,
                         compute_programs(sizes, seed))


class GuestExits(GuestWorkload):
    """Eight engine rows x five exit-heavy programs."""

    name = "guest_exits"
    warmup_program = "vblk_write"
    passes = 3

    def __init__(self, seed, sizes, recorder):
        super().__init__(seed, sizes, recorder, exit_programs(sizes, seed))


# -- fuzz_campaign -----------------------------------------------------------


class FuzzCase(Op):
    """One differential fuzz case: six engine-runs and their comparison.

    Untraced, this is ``fuzz.diff.run_case`` as users call it. Traced,
    the same steps are called one by one, in ``run_case_spec``'s order,
    so the per-engine split is visible; both produce the same verdict.
    """

    def __init__(self, workload, root_seed, index):
        self.rec = workload.rec
        self.root_seed = root_seed
        self.index = index
        self.name = f"case/{root_seed:#x}/{index}"

    def run(self, ctx, prepared):
        if not self.rec.enabled:
            return diff.run_case(self.root_seed, self.index,
                                 diff.default_opts())
        span = self.rec.span
        opts = diff.default_opts()
        with span("fuzz.gen.case"):
            spec = gen.generate_case(self.root_seed, self.index)
        with span("fuzz.gen.image"):
            segments = gen.build_image(spec)
        # Seed derivation as in fuzz.diff.run_case_spec.
        fault_seed = spec.root_seed ^ (spec.case_index * 2654435761)
        event_seed = fault_seed ^ 0x9E3779B9
        common = dict(max_instructions=opts["max_instructions"],
                      event_seed=event_seed, fault_rate=opts["fault_rate"],
                      fault_seed=fault_seed)
        with span("fuzz.diff.bare_interp"):
            interp = diff.run_bare(segments, jit=False, **common)
        with span("fuzz.diff.bare_jit"):
            jit = diff.run_bare(segments, jit=True, **common)
        vmm = []
        for name, _virt, _mmu in diff.VMM_CONFIGS:
            with span(f"fuzz.diff.vmm.{name}"):
                vmm.append(diff.run_vmm(segments, name, **common))
        with span("fuzz.diff.compare"):
            kind, group = "ok", None
            if "hang" in (interp["outcome"], jit["outcome"]):
                kind, group = "hang", "bare"
            elif diff.compare_bare(interp, jit):
                kind, group = "divergence", "bare"
            else:
                kind = diff.compare_vmm(vmm)[0] or "ok"
                group = None if kind == "ok" else "vmm"
        return {
            "ncells": len(spec.cells),
            "body_instructions": spec.body_instructions,
            "paging": spec.layout.paging,
            "verdict": {"kind": kind, "group": group},
            "outcomes": {r["name"]: r["outcome"] for r in [interp, jit] + vmm},
        }

    def check(self, ctx, prepared, case):
        verdict = case["verdict"]
        # The fuzzer doing its job: in 8000 cases over 40 root seeds one
        # (23/187) has bt-shadow abort where the hw rows run on. That the
        # VMM engines disagree on a generated guest is a finding, counted
        # and fingerprinted; the op -- run six engines, compare, give a
        # verdict -- did not fail, and the driver picks the seeds.
        finding = (verdict["kind"], verdict["group"]) == ("divergence", "vmm")
        result = OpResult(
            work=1,
            sim={"ncells": case["ncells"],
                 "body_instructions": case["body_instructions"],
                 "paging": case["paging"],
                 "verdict": verdict["kind"],
                 "vmm_divergences": int(finding),
                 "outcomes": dict(sorted(case["outcomes"].items()))},
            info={"halted": case["outcomes"]["interp"] == "halted"},
        )
        if verdict["kind"] != "ok" and not finding:
            result.failure = f"fuzz verdict {verdict}"
        return result


class FuzzCampaign(Workload):
    """Many short guests: construction, image build and compile dominate.

    A case costs 10-115 ms depending on what the generator drew, and the
    benchmark must read alike for every ``--seed``: the run's budget
    therefore goes into one pass of 200 cases (four of 40 left a 22 %
    interquartile spread between seeds, two of 100 left 11-20 %). That
    the simulated counts repeat is shown by the traced run, which runs
    every case twice, and by each case's own verdict, which compares
    six engines. The warm-up's cases come from a fixed root, so that
    ``setup_s`` does not vary with the seed; they are not timed.
    """

    name = "fuzz_campaign"
    unit = "cases/s"
    passes = 1
    WARMUP_ROOT = 0xF022

    def __init__(self, seed, sizes, recorder):
        super().__init__(seed, sizes, recorder)
        self.ops = [FuzzCase(self, seed, i) for i in range(sizes.fuzz_cases)]

    @property
    def warmup_ops(self):
        return [FuzzCase(self, self.WARMUP_ROOT, i) for i in range(6)]


# -- vm_lifecycle ------------------------------------------------------------

LIFECYCLE_MODES = (("shadow", MMUVirtMode.SHADOW),
                   ("nested", MMUVirtMode.NESTED),
                   ("hmode", MMUVirtMode.HMODE))


def _mib(nbytes):
    return nbytes / MIB


def _halted_with(vm, outcome, expected):
    """Failure text unless ``vm`` shut down cleanly with the checksum."""
    diag = read_diag(vm.guest_mem)
    if outcome is not RunOutcome.SHUTDOWN:
        return f"guest did not shut down: {outcome}"
    if not diag.clean:
        return f"guest unclean: {diag}"
    if diag.user_result != expected:
        return (f"checksum {diag.user_result:#x} != host oracle "
                f"{expected:#x}")
    return ""


def _run_counts(vm):
    cpu = vm.vcpus[0].cpu
    return {"cycles": cpu.cycles, "instret": cpu.instret,
            "exits": dict(sorted(vm.exit_stats.counts.items())),
            "result": read_diag(vm.guest_mem).user_result}


class LifecycleOp(Op):
    def __init__(self, workload, mode=None):
        self.wl = workload
        self.rec = workload.rec
        self.mode = mode
        self.name = f"{self.step}/{mode}" if mode else self.step


class Restore(LifecycleOp):
    step = "restore"

    def prepare(self, ctx):
        ctx["src"] = Hypervisor(memory_bytes=LIFECYCLE_HOST_MEMORY)
        ctx["dst"] = Hypervisor(memory_bytes=LIFECYCLE_HOST_MEMORY)

    def run(self, ctx, prepared):
        with self.rec.span("core.snapshot.restore"):
            return restore_vm(ctx["src"], self.wl.templates[self.mode],
                              name="vm")

    def check(self, ctx, prepared, vm):
        ctx["vm"] = vm
        template = self.wl.templates[self.mode]
        cpu = vm.vcpus[0].cpu
        result = OpResult(work=_mib(template.stored_bytes),
                          sim={"cycles": cpu.cycles, "instret": cpu.instret,
                               "pages": len(template.pages)})
        if (cpu.cycles, cpu.instret) != (template.cycles, template.instret):
            result.failure = "restored vCPU counters differ from the template"
        return result


class Snapshot(LifecycleOp):
    step = "snapshot"

    def run(self, ctx, prepared):
        with self.rec.span("core.snapshot.snapshot"):
            return snapshot_vm(ctx["vm"])

    def check(self, ctx, prepared, snap):
        ctx["snap"] = snap
        result = OpResult(work=_mib(ctx["vm"].guest_mem.size),
                          sim={"pages": len(snap.pages),
                               "mapped": len(snap.mapped_gfns)})
        if snap.pages != self.wl.templates[self.mode].pages:
            result.failure = "snapshot of the restored VM differs from the template"
        return result


class ToBytes(LifecycleOp):
    step = "to_bytes"

    def run(self, ctx, prepared):
        with self.rec.span("core.snapshot.to_bytes"):
            return ctx["snap"].to_bytes()

    def check(self, ctx, prepared, blob):
        ctx["blob"] = blob
        return OpResult(work=_mib(len(blob)),
                        sim={"bytes": len(blob), "crc32": zlib.crc32(blob)})


class FromBytes(LifecycleOp):
    step = "from_bytes"

    def run(self, ctx, prepared):
        with self.rec.span("core.snapshot.from_bytes"):
            return VMSnapshot.from_bytes(ctx["blob"])

    def check(self, ctx, prepared, snap):
        result = OpResult(work=_mib(len(ctx["blob"])),
                          sim={"pages": len(snap.pages)})
        if snap != ctx["snap"]:
            result.failure = "from_bytes(to_bytes(s)) != s"
        return result


class Migrate(LifecycleOp):
    step = "migrate"

    def run(self, ctx, prepared):
        migrator = LiveMigrator(ctx["src"], ctx["dst"], bytes_per_cycle=4.0)
        with self.rec.span("migration.live.migrate"):
            return migrator.migrate(
                ctx["vm"],
                quantum_instructions=self.wl.sizes.migrate_quantum,
                max_rounds=self.wl.sizes.migrate_rounds, threshold_pages=8)

    def check(self, ctx, prepared, moved):
        ctx["moved"] = moved
        result = OpResult(
            work=_mib(moved.pages_copied * PAGE_SIZE),
            sim={"rounds": moved.rounds, "pages_copied": moved.pages_copied,
                 "round_sizes": list(moved.round_sizes),
                 "downtime_cycles": moved.downtime_cycles,
                 "instructions_during": moved.guest_instructions_during},
            info={"rounds": moved.rounds,
                  "pages_copied": moved.pages_copied})
        if moved.source_outcome in (RunOutcome.SHUTDOWN, RunOutcome.HALTED):
            result.failure = ("guest finished on the source; the "
                              "destination has nothing left to run")
        return result


class Resume(LifecycleOp):
    """Run the migrated guest to shutdown on the destination host."""

    step = "resume"

    def run(self, ctx, prepared):
        with self.rec.span("core.hypervisor.run"):
            return ctx["dst"].run(ctx["moved"].dest_vm,
                                  max_guest_instructions=5_000_000)

    def check(self, ctx, prepared, outcome):
        vm = ctx["moved"].dest_vm
        return OpResult(sim=_run_counts(vm),
                        info={"guest_run": True},
                        failure=_halted_with(vm, outcome, self.wl.expected))


class PostCopy(LifecycleOp):
    step = "postcopy"

    def prepare(self, ctx):
        src = Hypervisor(memory_bytes=LIFECYCLE_HOST_MEMORY)
        dst = Hypervisor(memory_bytes=LIFECYCLE_HOST_MEMORY)
        return src, dst, restore_vm(src, self.wl.templates["nested"],
                                    name="vm")

    def run(self, ctx, prepared):
        src, dst, vm = prepared
        migrator = PostCopyMigrator(src, dst, bytes_per_cycle=4.0)
        with self.rec.span("migration.postcopy.migrate_and_run"):
            return migrator.migrate_and_run(vm)

    def check(self, ctx, prepared, moved):
        counts = _run_counts(moved.dest_vm)
        counts.update(remote_faults=moved.remote_faults,
                      pushed_pages=moved.pushed_pages,
                      downtime_cycles=moved.downtime_cycles,
                      degraded_cycles=moved.degraded_cycles)
        result = OpResult(
            work=_mib(moved.total_pages * PAGE_SIZE), sim=counts,
            info={"remote_faults": moved.remote_faults},
            failure=_halted_with(moved.dest_vm, moved.outcome,
                                 self.wl.expected))
        if (not result.failure and moved.remote_faults + moved.pushed_pages
                != moved.total_pages):
            result.failure = "a page arrived twice or never"
        return result


class ShareScan(LifecycleOp):
    step = "share_scan"
    GUESTS = 3

    def prepare(self, ctx):
        hv = Hypervisor(memory_bytes=SHARING_HOST_MEMORY)
        ctx["share_hv"] = hv
        ctx["share_vms"] = [
            restore_vm(hv, self.wl.templates["nested"], name=f"vm{i}")
            for i in range(self.GUESTS)]
        ctx["sharer"] = PageSharer(hv)

    def run(self, ctx, prepared):
        with self.rec.span("overcommit.sharing.scan"):
            return ctx["sharer"].scan()

    def check(self, ctx, prepared, scan):
        result = OpResult(
            work=_mib(scan.frames_scanned * PAGE_SIZE),
            sim={"frames_scanned": scan.frames_scanned,
                 "pages_merged": scan.pages_merged,
                 "frames_freed": scan.frames_freed},
            info={"frames_scanned": scan.frames_scanned,
                  "pages_merged": scan.pages_merged})
        if scan.pages_merged == 0:
            result.failure = "identical guests shared nothing"
        return result


class ShareResume(LifecycleOp):
    """Run the sharing guests to shutdown: every store breaks a share."""

    step = "share_resume"

    def run(self, ctx, prepared):
        hv = ctx["share_hv"]
        with self.rec.span("core.hypervisor.run"):
            return [hv.run(vm, max_guest_instructions=5_000_000)
                    for vm in ctx["share_vms"]]

    def check(self, ctx, prepared, outcomes):
        cow_breaks = ctx["sharer"].cow_breaks
        result = OpResult(
            sim={"guests": [_run_counts(vm) for vm in ctx["share_vms"]],
                 "cow_breaks": cow_breaks},
            info={"cow_breaks": cow_breaks, "guest_run": True})
        for vm, outcome in zip(ctx["share_vms"], outcomes):
            result.failure = result.failure or _halted_with(
                vm, outcome, self.wl.expected)
        if not result.failure and cow_breaks == 0:
            result.failure = "no copy-on-write break after sharing"
        return result


class VMLifecycle(Workload):
    """Memory moved by the host: snapshot, restore, migrate, share.

    Set-up boots one ``memtouch`` guest per MMU mode and stops it once
    every heap page is dirty; each pass restores from that template.
    """

    name = "vm_lifecycle"
    unit = "MiB/s"
    passes = 3  # three set-ups of 2.5 s are half of its run

    def __init__(self, seed, sizes, recorder):
        super().__init__(seed, sizes, recorder)
        pages, passes = sizes.lifecycle
        self.expected = programs.expected_memtouch(pages, passes)
        kernel = build_kernel(KernelOptions(memory_bytes=GUEST_MEMORY))
        program = programs.memtouch(pages, passes)
        self.templates = {}
        for mode, mmu in LIFECYCLE_MODES:
            hv = Hypervisor(memory_bytes=HOST_MEMORY)
            vm = hv.create_vm(GuestConfig(
                name="template", memory_bytes=GUEST_MEMORY,
                virt_mode=VirtMode.HW_ASSIST, mmu_mode=mmu))
            hv.load_program(vm, kernel)
            hv.load_program(vm, program)
            hv.reset_vcpu(vm, kernel.entry)
            hv.run(vm, max_guest_instructions=(
                sizes.lifecycle_template_instructions))
            if read_diag(vm.guest_mem).demand_faults < pages:
                raise RuntimeError(
                    f"{mode} template stopped before all {pages} heap "
                    f"pages were dirty")
            self.templates[mode] = snapshot_vm(vm)
        self.ops = [step(self, mode)
                    for mode, _mmu in LIFECYCLE_MODES
                    for step in (Restore, Snapshot, ToBytes, FromBytes,
                                 Migrate, Resume)]
        self.ops += [PostCopy(self), ShareScan(self), ShareResume(self)]

    @property
    def warmup_ops(self):
        # One mode's chain: restore, snapshot, both codecs, migrate, run.
        return self.ops[:6]


# -- cluster_sweep -----------------------------------------------------------


class ClusterRun(Op):
    def __init__(self, workload, fleet, seed, jobs=1):
        self.rec = workload.rec
        self.jobs = jobs
        self.config = ClusterSimConfig(
            fleet_size=fleet, shards=8, epochs=workload.sizes.cluster_epochs,
            seed=seed, crash_rate=0.01, arrivals_per_epoch=4)
        self.name = f"fleet/{fleet}"

    def run(self, ctx, prepared):
        with self.rec.span("cluster.coordinator.run"):
            return run_sharded_cluster(self.config, jobs=self.jobs)

    def check(self, ctx, prepared, report):
        stats = report.stats
        result = OpResult(
            work=self.config.fleet_size * self.config.epochs,
            sim={"manifest_sha256": report.sha256,
                 "messages": stats["messages"], "hosts": stats["hosts"],
                 "hosts_alive": stats["hosts_alive"],
                 "vms_resident": stats["vms_resident"]},
            # ``Hypervisor.create_vm`` counts in ``core.vms_created``; a
            # run whose manifest leaves it at 0 built no execution engine.
            info={"messages": stats["messages"],
                  "fleet": self.config.fleet_size,
                  "engine_vms_created": report.manifest["metrics"][
                      "core.vms_created"]["value"]})
        if not 0 < stats["vms_resident"]:
            result.failure = "no VM left resident"
        elif result.info["engine_vms_created"]:
            result.failure = "a cluster run created a guest VM"
        return result


class ClusterSweep(Workload):
    """No guest instruction executes: placement, barriers, merges."""

    name = "cluster_sweep"
    unit = "VM-epochs/s"

    def __init__(self, seed, sizes, recorder):
        super().__init__(seed, sizes, recorder)
        self.ops = [ClusterRun(self, fleet, seed)
                    for fleet in sizes.cluster_fleets]

    @property
    def warmup_ops(self):
        return self.ops[:1]


WORKLOADS = {cls.name: cls for cls in (
    GuestCompute, GuestExits, FuzzCampaign, VMLifecycle, ClusterSweep)}
