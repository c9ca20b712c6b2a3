"""Per-layer metrics: their names, and how the traced run derives them.

``PER_LAYER`` is the single list of names (BENCHMARK.json repeats it;
the smoke test holds the two equal). Each value comes from the traced
pass of the workload that exercises the layer -- an op's time in
reference-host seconds, a span's duration, or a counter read through a
public attribute -- or from ``LayerProbes``, the handful of calls no
workload makes on its own (kernel assembly, a bare ``hello`` boot,
``port_storm``'s exit-free twin, the DES kernel, fleet generation,
placement, manifest merge, a one-job and a two-job cluster run). Counts are exact and repeat on every run of one seed.
"""

import math
import statistics

from repro.cluster import placement
from repro.cluster.coordinator import DEFAULT_HOST_SPEC
from repro.cluster.host import Host
from repro.cluster.workgen import generate_fleet
from repro.guest import KernelOptions, build_kernel
from repro.guest import workloads as programs
from repro.obs import ManualClock, MetricsRegistry, build_manifest
from repro.obs.manifest import (
    finalize_manifest,
    merge_manifests,
    register_baseline,
)
from repro.sim.kernel import Simulator, Timeout

import harness
import spans
import workloads as wl
from harness import OpResult
from workloads import GUEST_MEMORY, Op

COMPUTE_PROGRAMS = ("cpu_bound", "memtouch", "random_walk")
EXIT_PROGRAMS = ("syscall_storm", "pt_mix", "blk_write", "vblk_write",
                 "port_storm")
VMM_LABELS = tuple(c.label for c in wl.VMM_CONFIGS)
MMU_MODES = tuple(mode for mode, _mmu in wl.LIFECYCLE_MODES)
FUZZ_VMM = ("hw-shadow", "hw-nested", "hw-hmode", "bt-shadow")
WORKLOAD_NAMES = tuple(wl.WORKLOADS)


def _table():
    up, down = "higher", "lower"
    rows = []
    for prog in COMPUTE_PROGRAMS:
        rows.append((f"cpu.interp.mips.{prog}", "MIPS", up))
        rows.append((f"cpu.jit.mips.{prog}", "MIPS", up))
    rows += [
        ("cpu.jit.blocks_compiled", "count", down),
        ("cpu.jit.fallback_steps", "count", down),
        ("cpu.jit.ic_hits", "count", up),
        ("mem.tlb.hit_ratio.memtouch", "ratio", up),
        ("mem.tlb.hit_ratio.random_walk", "ratio", up),
    ]
    for cfg in VMM_LABELS:
        for prog in COMPUTE_PROGRAMS + EXIT_PROGRAMS:
            rows.append((f"engine.{cfg}.mips.{prog}", "MIPS", up))
        rows.append((f"engine.{cfg}.exits_total", "count", down))
    for cfg in VMM_LABELS:
        rows.append((f"core.hypervisor.us_per_exit.{cfg}", "us", down))
    rows += [
        ("devices.block.exits_per_request", "ratio", down),
        ("devices.virtio.exits_per_request", "ratio", down),
        ("core.bt.block_hit_ratio", "ratio", up),
        ("core.bt.callouts", "count", down),
        ("core.shadow.fills", "count", down),
        ("core.nested.ept_violations", "count", down),
    ]
    for mmu in MMU_MODES:
        rows.append((f"core.hypervisor.create_vm_ms.{mmu}", "ms", down))
    for mmu in MMU_MODES:
        rows.append((f"guest.loader.boot_ms.{mmu}", "ms", down))
    rows += [
        ("guest.kernel.build_ms", "ms", down),
        ("fuzz.gen.case_ms", "ms", down),
        ("fuzz.gen.image_ms", "ms", down),
        ("fuzz.diff.bare_interp_ms", "ms", down),
        ("fuzz.diff.bare_jit_ms", "ms", down),
    ]
    for cfg in FUZZ_VMM:
        rows.append((f"fuzz.diff.vmm_ms.{cfg}", "ms", down))
    rows += [
        ("fuzz.case_tail_ms", "ms", down),
        ("fuzz.outcome.halted_frac", "fraction", up),
        ("core.snapshot.snapshot_ms", "ms", down),
        ("core.snapshot.restore_ms", "ms", down),
        ("core.snapshot.to_bytes_mb_per_s", "MiB/s", up),
        ("core.snapshot.from_bytes_mb_per_s", "MiB/s", up),
        ("migration.live.migrate_ms", "ms", down),
        ("migration.live.mb_per_s", "MiB/s", up),
        ("migration.live.rounds", "count", down),
        ("migration.live.pages_copied", "count", down),
        ("migration.postcopy.run_ms", "ms", down),
        ("migration.postcopy.remote_faults", "count", down),
        ("overcommit.sharing.scan_pages_per_s", "pages/s", up),
        ("overcommit.sharing.pages_merged", "count", up),
        ("overcommit.sharing.cow_breaks", "count", down),
        ("sim.kernel.events_per_s", "1/s", up),
        ("cluster.workgen.fleet_ms", "ms", down),
        ("cluster.placement.place_ms", "ms", down),
        ("cluster.coordinator.run_s", "s", down),
        ("cluster.coordinator.messages", "count", down),
        ("cluster.coordinator.jobs2_speedup", "ratio", up),
        ("obs.manifest.merge_ms", "ms", down),
    ]
    for name in WORKLOAD_NAMES:
        rows.append((f"{name}.op_tail_ms", "ms", down))
        rows.append((f"{name}.trace_overhead_frac", "fraction", down))
    return tuple(rows)


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = _table()


# -- probes ------------------------------------------------------------------


class KernelBuild(Op):
    def __init__(self, index):
        self.name = f"kernel_build/{index}"

    def run(self, ctx, prepared):
        return build_kernel(KernelOptions(memory_bytes=GUEST_MEMORY))

    def check(self, ctx, prepared, kernel):
        return OpResult(work=1, sim={"bytes": kernel.size},
                        failure="" if kernel.size else "empty kernel image")


class SimKernel(Op):
    """``processes`` generators each yielding ``hops`` unit Timeouts."""

    name = "sim_kernel"

    def __init__(self, processes, hops):
        self.processes, self.hops = processes, hops

    def prepare(self, ctx):
        sim = Simulator()

        def hopper():
            for _ in range(self.hops):
                yield Timeout(1)

        for _ in range(self.processes):
            sim.spawn(hopper())
        return sim

    def run(self, ctx, sim):
        return sim.run()

    def check(self, ctx, sim, now):
        return OpResult(work=self.processes * self.hops, sim={"now": now},
                        failure="" if now == self.hops
                        else f"simulation ended at {now}, not {self.hops}")


class FleetGen(Op):
    name = "fleet_gen"

    def __init__(self, fleet, seed):
        self.fleet, self.seed = fleet, seed

    def run(self, ctx, prepared):
        return generate_fleet(self.fleet, seed=self.seed)

    def check(self, ctx, prepared, fleet):
        ctx["fleet"] = fleet
        return OpResult(work=len(fleet), sim={
            "memory_gib": sum(vm.memory_bytes for vm in fleet) >> 30})


class Place(Op):
    """First-fit of the generated fleet onto hosts provisioned the way
    ``run_sharded_cluster`` provisions them (1.35x memory headroom)."""

    name = "place"

    def prepare(self, ctx):
        total = sum(vm.memory_bytes for vm in ctx["fleet"])
        count = math.ceil(total * 1.35 / DEFAULT_HOST_SPEC.memory_bytes)
        return [Host(DEFAULT_HOST_SPEC, i) for i in range(count)]

    def run(self, ctx, hosts):
        return placement.place(ctx["fleet"], hosts,
                               placement.PlacementPolicy.FIRST_FIT)

    def check(self, ctx, hosts, placed):
        resident = sum(len(h.vms) for h in placed.hosts)
        return OpResult(work=resident,
                        sim={"hosts_used": sum(1 for h in hosts if h.vms)},
                        failure="" if resident == len(ctx["fleet"])
                        else f"{resident} of {len(ctx['fleet'])} placed")


class Merge(Op):
    """Reduce per-shard partial manifests shaped like a cluster run's."""

    name = "manifest_merge"

    def __init__(self, shards, hosts):
        self.shards, self.hosts = shards, hosts

    def prepare(self, ctx):
        partials = []
        for shard in range(self.shards):
            registry = register_baseline(
                MetricsRegistry(clock=ManualClock(timebase="us")))
            for host in range(self.hosts):
                scope = registry.scope(
                    f"cluster.shard.{shard:03d}.host.blade-{host}")
                scope.counter("placements").inc(host + 1)
                scope.counter("crashes").inc()
                for sample in range(6):
                    scope.observe("utilization", (host + sample) % 7 / 7.0)
            partials.append(build_manifest(registry, experiment="perf",
                                           samples=True))
        return partials

    def run(self, ctx, partials):
        return finalize_manifest(merge_manifests(partials))

    def check(self, ctx, partials, merged):
        crashes = sum(snap.get("value", 0)
                      for name, snap in merged["metrics"].items()
                      if name.endswith(".crashes"))
        return OpResult(work=len(partials),
                        sim={"metrics": len(merged["metrics"])},
                        failure="" if crashes == self.shards * self.hosts
                        else f"merged crash counters sum to {crashes}")


class JobsCluster(wl.ClusterRun):
    """The largest fleet with ``jobs`` worker processes; run with 1 and
    then 2, the manifests must be the same to the byte."""

    def __init__(self, workload, fleet, seed, jobs):
        super().__init__(workload, fleet, seed, jobs=jobs)
        self.name = f"fleet/{fleet}/jobs{jobs}"

    def check(self, ctx, prepared, report):
        result = super().check(ctx, prepared, report)
        if report.sha256 != ctx.setdefault("manifest_sha256", report.sha256):
            result.failure = result.failure or (
                f"jobs={self.jobs} manifest differs from the first run's")
        return result


class LayerProbes(wl.GuestWorkload):
    name = "layer_probes"
    unit = "calls/s"

    def __init__(self, seed, sizes, recorder):
        super().__init__(seed, sizes, recorder)
        hello = wl.GuestProgram("hello", programs.hello(), 42)
        fleet = sizes.cluster_fleets[-1]
        self.ops = [KernelBuild(i) for i in range(3)]
        self.ops += [wl.GuestRun(self, config, hello)
                     for config in wl.VMM_CONFIGS
                     if config.label.startswith("hw-")]
        # ``port_storm`` without its port writes (``seconds_per_exit``).
        plain = wl.GuestProgram(
            "plain_loop", wl.port_storm(sizes.port_storm, writes=False), 0,
            bare=True)
        self.ops += [wl.GuestRun(self, config, plain)
                     for config in wl.VMM_CONFIGS]
        self.ops += [
            SimKernel(*sizes.sim_kernel),
            FleetGen(fleet, seed),
            Place(),
            Merge(*sizes.merge_shards),
            JobsCluster(self, fleet, seed, jobs=1),
            JobsCluster(self, fleet, seed, jobs=2),
        ]

    def cross_check(self, results):
        return {}


# -- derivation --------------------------------------------------------------


def _median_ms(seconds):
    return statistics.median(seconds) * 1000.0 if seconds else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def seconds_per_exit(traced, untraced, probes, config):
    """What one intercepted port write costs the host under ``config``
    (exit, dispatch, emulation, the console model, re-entry; under
    bin-transl, the translator's call-out): ``port_storm``'s time beyond
    its exit-free twin's, per write. On a guest that does little else
    the difference is over half of the time measured, where differences
    between NanoOS runs (the issue's time - instret / ``cpu_bound``
    MIPS) drown in a host whose single op times scatter by 10 %."""
    storms = [op for record in (traced, untraced)
              for op in record["guest_exits"].ops
              if op.name == f"{config}/port_storm"]
    plain = next(op for op in probes.ops
                 if op.name == f"{config}/plain_loop")
    writes = storms[0].result.sim["result"]  # console characters written
    return _ratio(statistics.fmean(op.norm for op in storms) - plain.norm,
                  writes)


def derive(traced, untraced, probes, recorder):
    """Per-layer values from one traced pass per workload.

    ``traced`` / ``untraced`` map workload name to its PassRecord with
    spans on / off; ``probes`` is the LayerProbes pass.
    """
    out = {}
    guest = {}
    for name in ("guest_compute", "guest_exits"):
        for op in traced[name].ops:
            guest[(op.result.info.get("config"),
                   op.result.info.get("program"))] = op

    def mips(op):
        return _ratio(op.result.info.get("instret", 0), op.norm) / 1e6

    jit_ops = [guest[("native-jit", prog)] for prog in COMPUTE_PROGRAMS]
    for prog in COMPUTE_PROGRAMS:
        out[f"cpu.interp.mips.{prog}"] = mips(guest[("native-interp", prog)])
        out[f"cpu.jit.mips.{prog}"] = mips(guest[("native-jit", prog)])
    for counter in ("blocks_compiled", "fallback_steps", "ic_hits"):
        out[f"cpu.jit.{counter}"] = sum(
            op.result.info.get("jit", {}).get(counter, 0) for op in jit_ops)
    for prog in ("memtouch", "random_walk"):
        info = guest[("native-jit", prog)].result.info
        out[f"mem.tlb.hit_ratio.{prog}"] = _ratio(
            info.get("tlb_hits", 0),
            info.get("tlb_hits", 0) + info.get("tlb_misses", 0))

    def info_sum(key, config=None):
        return sum(op.result.info.get(key, 0) for (cfg, _p), op
                   in guest.items() if config in (None, cfg))

    for cfg in VMM_LABELS:
        for prog in COMPUTE_PROGRAMS + EXIT_PROGRAMS:
            out[f"engine.{cfg}.mips.{prog}"] = mips(guest[(cfg, prog)])
        out[f"engine.{cfg}.exits_total"] = info_sum("exits", cfg)
        out[f"core.hypervisor.us_per_exit.{cfg}"] = seconds_per_exit(
            traced, untraced, probes, cfg) * 1e6
    for device, prog in (("block", "blk_write"), ("virtio", "vblk_write")):
        info = guest[("hw-nested", prog)].result.info
        out[f"devices.{device}.exits_per_request"] = _ratio(
            info["exits"], info["requests"])
    hits = info_sum("bt_block_hits")
    out["core.bt.block_hit_ratio"] = _ratio(
        hits, hits + info_sum("bt_block_misses"))
    out["core.bt.callouts"] = info_sum("bt_callouts")
    out["core.shadow.fills"] = info_sum("shadow_fills")
    out["core.nested.ept_violations"] = info_sum("ept_violations")

    factor_of = {}
    for record in list(traced.values()) + [probes]:
        for i, _op in enumerate(record.ops):
            factor_of[f"{record.workload}:{record.index}:{i}"] = record.factor
    op_config = {f"{traced[name].workload}:{traced[name].index}:{i}":
                 op.result.info.get("config")
                 for name in ("guest_compute", "guest_exits")
                 for i, op in enumerate(traced[name].ops)}

    def span_seconds(name, keep=None):
        return [(s[spans.END] - s[spans.START]) / factor_of[s[spans.OP]]
                for s in recorder.spans
                if s[spans.NAME] == name and s[spans.OP] in factor_of
                and (keep is None or keep(s[spans.OP]))]

    for mmu in MMU_MODES:
        out[f"core.hypervisor.create_vm_ms.{mmu}"] = _median_ms(span_seconds(
            "core.hypervisor.create_vm",
            lambda op, want=f"hw-{mmu}": op_config.get(op) == want))
    probe = {op.name: op for op in probes.ops}
    for mmu in MMU_MODES:
        out[f"guest.loader.boot_ms.{mmu}"] = (
            probe[f"hw-{mmu}/hello"].norm * 1000.0)
    out["guest.kernel.build_ms"] = _median_ms(
        [op.norm for op in probes.ops if op.name.startswith("kernel_build/")])

    for metric, span in (("fuzz.gen.case_ms", "fuzz.gen.case"),
                         ("fuzz.gen.image_ms", "fuzz.gen.image"),
                         ("fuzz.diff.bare_interp_ms", "fuzz.diff.bare_interp"),
                         ("fuzz.diff.bare_jit_ms", "fuzz.diff.bare_jit")):
        out[metric] = _median_ms(span_seconds(span))
    for cfg in FUZZ_VMM:
        out[f"fuzz.diff.vmm_ms.{cfg}"] = _median_ms(
            span_seconds(f"fuzz.diff.vmm.{cfg}"))
    cases = traced["fuzz_campaign"].ops
    out["fuzz.case_tail_ms"] = harness.tail(
        [op.norm for op in cases])[0] * 1000.0
    out["fuzz.outcome.halted_frac"] = _ratio(
        sum(1 for op in cases if op.result.info.get("halted")), len(cases))

    life = traced["vm_lifecycle"].ops

    def step(prefix):
        return [op for op in life if op.name.split("/")[0] == prefix]

    def rate(ops):
        return _ratio(sum(op.result.work for op in ops),
                      sum(op.norm for op in ops))

    out["core.snapshot.snapshot_ms"] = _median_ms(
        [op.norm for op in step("snapshot")])
    out["core.snapshot.restore_ms"] = _median_ms(
        [op.norm for op in step("restore")])
    out["core.snapshot.to_bytes_mb_per_s"] = rate(step("to_bytes"))
    out["core.snapshot.from_bytes_mb_per_s"] = rate(step("from_bytes"))
    out["migration.live.migrate_ms"] = _median_ms(
        [op.norm for op in step("migrate")])
    out["migration.live.mb_per_s"] = rate(step("migrate"))
    for key in ("rounds", "pages_copied"):
        out[f"migration.live.{key}"] = sum(
            op.result.info.get(key, 0) for op in step("migrate"))
    postcopy, = step("postcopy")
    out["migration.postcopy.run_ms"] = postcopy.norm * 1000.0
    out["migration.postcopy.remote_faults"] = postcopy.result.info.get(
        "remote_faults", 0)
    scan, = step("share_scan")
    out["overcommit.sharing.scan_pages_per_s"] = _ratio(
        scan.result.info.get("frames_scanned", 0), scan.norm)
    out["overcommit.sharing.pages_merged"] = scan.result.info.get(
        "pages_merged", 0)
    out["overcommit.sharing.cow_breaks"] = step(
        "share_resume")[0].result.info.get("cow_breaks", 0)

    out["sim.kernel.events_per_s"] = _ratio(
        probe["sim_kernel"].result.work, probe["sim_kernel"].norm)
    out["cluster.workgen.fleet_ms"] = probe["fleet_gen"].norm * 1000.0
    out["cluster.placement.place_ms"] = probe["place"].norm * 1000.0
    sweep = traced["cluster_sweep"].ops
    out["cluster.coordinator.run_s"] = sweep[-1].norm
    out["cluster.coordinator.messages"] = sum(
        op.result.info.get("messages", 0) for op in sweep)
    # Wall-clock both: worker processes are not what the host-speed
    # samples of this one saw.
    one_job, two_jobs = (next(op for op in probes.ops
                              if op.name.endswith(f"/jobs{jobs}"))
                         for jobs in (1, 2))
    out["cluster.coordinator.jobs2_speedup"] = _ratio(
        one_job.wall, two_jobs.wall)
    out["obs.manifest.merge_ms"] = probe["manifest_merge"].norm * 1000.0

    for name in WORKLOAD_NAMES:
        on, off = traced[name].ops, untraced[name].ops
        out[f"{name}.op_tail_ms"] = harness.tail(
            [op.norm for op in on + off])[0] * 1000.0
        ratios = [a.norm / b.norm for a, b in zip(on, off) if b.norm > 0]
        out[f"{name}.trace_overhead_frac"] = (
            statistics.median(ratios) - 1.0 if ratios else 0.0)

    names = [name for name, _unit, _better in PER_LAYER]
    if sorted(out) != sorted(names):
        raise AssertionError(
            f"per-layer names drifted: {set(out) ^ set(names)}")
    return {name: out[name] for name in names}


def character(traced, layer):
    """What each workload turned out to be made of -- the check that it
    is about what its rationale claims (printed with a traced run)."""
    row_sets = (
        ([c for c in VMM_LABELS if c != "bin-transl"],
         "the five interpreter VMM rows"),
        (["trap-emulate", "paravirt", "hw-shadow"],
         "trap-emulate + paravirt + hw-shadow"),
    )
    lines = []
    for name in ("guest_compute", "guest_exits"):
        for rows, label in row_sets:
            ops = [op for op in traced[name].ops
                   if op.result.info.get("config") in rows]
            exit_s = sum(
                max(0.0, layer["core.hypervisor.us_per_exit."
                          + op.result.info["config"]])
                * 1e-6 * op.result.info["exits"] for op in ops)
            share = _ratio(exit_s, sum(op.norm for op in ops))
            lines.append(f"{name}: estimated exit+device share of host "
                         f"time, {label} = {share:.3f}")
    life = traced["vm_lifecycle"].ops
    calls = sum(op.norm for op in life
                if not op.result.info.get("guest_run"))
    lines.append("vm_lifecycle: lifecycle-call share of host time = "
                 f"{_ratio(calls, sum(op.norm for op in life)):.3f}")
    built = sum(op.result.info.get("engine_vms_created", 0)
                for op in traced["cluster_sweep"].ops)
    lines.append("cluster_sweep: core.vms_created over the runs' manifests "
                 f"= {built} (0: no execution engine was built, so no "
                 "guest instruction retired)")
    return lines
