"""Differential execution of one fuzz case across every backend.

Two comparison groups run the same guest image:

* **bare** -- the reference interpreter vs. the block JIT on a raw
  :class:`~repro.cpu.mmu.BareMMU` machine. The JIT's contract is
  bit-identical state *including* cycles, instret, TLB statistics and
  the full memory image, so everything is compared exactly.
* **vmm** -- four full-virtualization configs under the hypervisor:
  hardware-assist with shadow paging, hardware-assist with nested
  paging, hardware-assist with H-mode two-stage paging (delegated
  traps deliver natively, with no VM exit in between), and
  binary translation (shadow). Only *guest-visible* state is
  compared: registers, pc, the guest CSR view, halt state, pending
  interrupt causes, console output, and guest memory with the
  page-table span masked (the walker sets accessed/dirty bits at
  TLB-miss time, which legitimately differs between shadow fills,
  nested walks and the hardware two-stage walker). Cycle counts are
  never compared across configs -- cost models differ by design.
  instret *is* comparable everywhere (BT monitor callouts retire,
  mirroring intercepted-and-emulated instructions under hardware
  assist), though against BT only on clean halts: at an instruction
  limit BT overshoots to a block boundary.

Each case also carries a seeded :class:`~repro.devices.schedule.
EventSchedule` (``opts["events"]``, on by default): timer, virtio and
console interrupts fire at fixed retire counts, so asynchronous
delivery itself is differentially tested -- a pending, unmasked IRQ
latched at retire edge N must be delivered before the fetch of
instruction N+1 in *every* engine, and with a nonzero fault rate the
``irq.*`` sites perturb that schedule identically across backends.

Outcomes are normalized to classes first; a cycle-guard trip is a
``hang`` (always a failure: some backend stopped making progress), and
aborts (guest triple faults, runaway accesses past RAM) must at least
be symmetric across a group.

TRAP_EMULATE is deliberately excluded: VISA's sensitive-but-
unprivileged instructions make it architecturally *wrong* (that is the
paper's point), so differential equality cannot hold there.
"""

from typing import Dict, List, Optional, Tuple

from repro.core import (
    GuestConfig, Hypervisor, MMUVirtMode, VirtMode, VirtualMachine,
)
from repro.cpu.interp import CPUCore, StopReason
from repro.cpu.isa import CSR, DecodeError
from repro.cpu.mmu import BareMMU
from repro.devices.irq import InterruptController
from repro.devices.schedule import EventSchedule
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.fuzz import gen
from repro.mem.costs import CostModel
from repro.mem.paging import PageFault
from repro.mem.physmem import PhysicalMemory
from repro.util.errors import ReproError

DEFAULT_MAX_INSTRUCTIONS = 600

#: IRQ-path fault sites armed (with the virtio site) when a case runs
#: with a nonzero fault rate. All are keyed to architected points --
#: line raises and retire-count edges -- so the same plan replays
#: identically in every backend.
IRQ_FAULT_SITES = ("irq.lost", "irq.spurious", "irq.storm", "irq.delayed")

#: H-mode fault sites armed in *every* config's plan. Per-site forked
#: streams mean the extra specs perturb nothing: configs without an
#: H-mode vCPU never evaluate these sites, and where they do fire the
#: effects are host-timing-only (``gstage_stall``) or re-injected
#: bit-identically (``delegation_miss``), so guest state still agrees.
HMODE_FAULT_SITES = ("hmode.delegation_miss", "hmode.gstage_stall")

#: CSRs that form the guest-visible control state (counters excluded).
#: HEDELEG/HIDELEG are plain storage to a guest in every engine --
#: native CSR-file slots under hardware assist (H-mode included: the
#: host's delegation masks live in the core's controls), vcsr under
#: the software monitors -- so their values are comparable across all
#: four configs.
GUEST_CSRS = (CSR.MODE, CSR.PTBR, CSR.VBAR, CSR.IE, CSR.EPC, CSR.ECAUSE,
              CSR.EVAL, CSR.SCRATCH, CSR.ESTATUS, CSR.HEDELEG, CSR.HIDELEG)

VMM_CONFIGS: Tuple[Tuple[str, VirtMode, MMUVirtMode], ...] = (
    ("hw-shadow", VirtMode.HW_ASSIST, MMUVirtMode.SHADOW),
    ("hw-nested", VirtMode.HW_ASSIST, MMUVirtMode.NESTED),
    ("hw-hmode", VirtMode.HW_ASSIST, MMUVirtMode.HMODE),
    ("bt-shadow", VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW),
)

_CONFIG_NAMES = {(v, m): n for n, v, m in VMM_CONFIGS}

_ABORTS = (ReproError, PageFault, DecodeError)


def bare_cycle_guard(max_instructions: int) -> int:
    """Generous ceiling: ~400 cycles/instruction plus slack. Tripping
    it means some engine stopped retiring (a hang), not a tight run."""
    return max_instructions * 400 + 50_000


def vmm_cycle_guard(max_instructions: int) -> int:
    """VMM runs pay world switches (1200c) and shadow fills (500c) per
    instruction in the worst case; still a hang detector, not a race."""
    return max_instructions * 4_000 + 400_000


def _irq_injector(fault_rate: float, fault_seed: int) -> Optional[FaultInjector]:
    if fault_rate <= 0.0:
        return None
    return FaultInjector(FaultPlan(
        seed=fault_seed,
        specs=[FaultSpec(site, rate=fault_rate) for site in IRQ_FAULT_SITES],
    ))


# -- bare group -------------------------------------------------------------


def run_bare(segments: Dict[int, bytes], jit: bool,
             max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
             event_seed: Optional[int] = None,
             fault_rate: float = 0.0, fault_seed: int = 0) -> Dict:
    costs = CostModel()
    pm = PhysicalMemory(gen.MEM_BYTES)
    for addr in sorted(segments):
        pm.write_bytes(addr, segments[addr])
    mmu = BareMMU(pm, costs)
    cpu = CPUCore(mmu, port_bus=None, jit=jit)
    cpu.reset(gen.PRE_BASE)
    if event_seed is not None:
        # A bare machine still has a PIC in front of the core: the
        # schedule raises lines on it and the sink latches causes. No
        # port bus, so lines stay pending -- irrelevant to comparison,
        # which sees only the latched causes.
        injector = _irq_injector(fault_rate, fault_seed)
        pic = InterruptController(sink=cpu, injector=injector)
        cpu.events = EventSchedule.seeded(
            event_seed, horizon=max_instructions, controller=pic,
            injector=injector,
        )

    outcome, abort = None, None
    try:
        result = cpu.run(max_instructions=max_instructions,
                         max_cycles=bare_cycle_guard(max_instructions))
        outcome = {
            StopReason.HALT: "halted",
            StopReason.INSTR_LIMIT: "instr_limit",
            StopReason.CYCLE_LIMIT: "hang",  # only the guard stops on cycles
        }[result.stop]
    except _ABORTS as exc:
        outcome = "abort"
        abort = f"{type(exc).__name__}: {exc}"

    return {
        "name": "jit" if jit else "interp",
        "outcome": outcome,
        "abort": abort,
        "pc": cpu.pc,
        "halted": cpu.halted,
        "regs": list(cpu.regs),
        "csr": list(cpu.csr),
        "pending": sorted(c.name for c in cpu.pending_irqs),
        "cycles": cpu.cycles,
        "instret": cpu.instret,
        "tlb": {
            "hits": mmu.tlb.stats.hits,
            "misses": mmu.tlb.stats.misses,
            "flushes": mmu.tlb.stats.flushes,
            "invalidations": mmu.tlb.stats.invalidations,
            "evictions": mmu.tlb.stats.evictions,
        },
        "walker": {"walks": mmu.walker.walks, "faults": mmu.walker.faults},
        "mem": pm.read_bytes(0, gen.MEM_BYTES),
    }


#: fields compared exactly between the interpreter and the JIT.
_BARE_FIELDS = ("pc", "halted", "regs", "csr", "pending", "cycles",
                "instret", "tlb", "walker", "mem")


def compare_bare(a: Dict, b: Dict) -> List[str]:
    if a["outcome"] != b["outcome"]:
        return ["outcome"]
    if a["outcome"] == "abort":
        # Abort points are not microarchitecturally aligned (a compiled
        # block may die mid-block); the abort itself must match.
        return [] if a["abort"] == b["abort"] else ["abort"]
    return [f for f in _BARE_FIELDS if a[f] != b[f]]


# -- vmm group --------------------------------------------------------------


def build_machine(config_name: str) -> Tuple[Hypervisor, VirtualMachine]:
    """A new host with the one VM (``"fuzz"``) a case of this config
    runs on, at power-on."""
    modes = {n: (v, m) for n, v, m in VMM_CONFIGS}
    if config_name not in modes:
        raise ValueError(
            f"unknown VMM config {config_name!r}; known: {list(modes)}"
        )
    virt_mode, mmu_mode = modes[config_name]
    hv = Hypervisor(memory_bytes=8 * gen.MEM_BYTES, costs=CostModel())
    return hv, hv.create_vm(GuestConfig(
        name="fuzz", memory_bytes=gen.MEM_BYTES, virt_mode=virt_mode,
        mmu_mode=mmu_mode, prealloc=True,
        with_virtio=True, with_emulated_io=False,
    ))


#: Config name -> the host its cases run on, built on first use and kept
#: for the life of the process (and of each campaign worker, which
#: inherits or fills its own). Between cases only the guest's frames
#: and G-stage survive (``Hypervisor.recycle_vm``); every object above
#: them is rebuilt, so what the bug shims patch -- classes, never
#: instances -- reaches a pooled machine like any other.
_HOSTS: Dict[str, Hypervisor] = {}


def pooled_machine(config_name: str) -> Tuple[Hypervisor, VirtualMachine]:
    """This process's machine for ``config_name``, at power-on."""
    hv = _HOSTS.get(config_name)
    if hv is None:
        hv, vm = build_machine(config_name)
        _HOSTS[config_name] = hv
        return hv, vm
    return hv, hv.recycle_vm(hv.vms["fuzz"])


def run_vmm(segments: Dict[int, bytes], config_name: str,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
            fault_rate: float = 0.0, fault_seed: int = 0,
            event_seed: Optional[int] = None) -> Dict:
    hv, vm = pooled_machine(config_name)
    return run_on(hv, vm, segments, max_instructions=max_instructions,
                  fault_rate=fault_rate, fault_seed=fault_seed,
                  event_seed=event_seed)


def run_on(hv: Hypervisor, vm: VirtualMachine, segments: Dict[int, bytes],
           max_instructions: int,
           fault_rate: float = 0.0, fault_seed: int = 0,
           event_seed: Optional[int] = None) -> Dict:
    """Run one case on ``vm``, a power-on machine of ``hv`` from
    :func:`build_machine` or :func:`pooled_machine`."""
    virt_mode = vm.config.virt_mode
    injector = None
    if fault_rate > 0.0:
        # All sites key to architected points (virtio kicks are
        # synchronous, IRQ faults draw per line raise / retire edge,
        # hmode sites per trap delivery / two-stage fill), so the same
        # plan fires identically in every config.
        injector = FaultInjector(FaultPlan(
            seed=fault_seed,
            specs=[FaultSpec("virtio.ring_stuck", rate=fault_rate)]
            + [FaultSpec(site, rate=fault_rate) for site in IRQ_FAULT_SITES]
            + [FaultSpec(site, rate=fault_rate) for site in HMODE_FAULT_SITES],
        ))
    vm.devices["virtio_blk"].injector = injector
    vm.pic.injector = injector
    # The host outlives the case: None must replace the last plan too.
    hv.injector = injector
    for addr in sorted(segments):
        vm.guest_mem.write_bytes(addr, segments[addr])
    hv.reset_vcpu(vm, gen.PRE_BASE)

    vcpu = vm.vcpus[0]
    cpu = vcpu.cpu
    if event_seed is not None:
        # Hardware-assist delivers natively from cpu.pending_irqs; the
        # other modes must bounce to the pump so the monitor can inject
        # the virtual interrupt at the exact retire edge.
        cpu.events = EventSchedule.seeded(
            event_seed, horizon=max_instructions, controller=vm.pic,
            console=vm.devices["console"], injector=injector,
            exit_on_fire=virt_mode is not VirtMode.HW_ASSIST,
        )
    hw = virt_mode is VirtMode.HW_ASSIST
    outcome, abort = None, None
    try:
        res = hv.run(vm, max_guest_instructions=max_instructions,
                     max_cycles=vmm_cycle_guard(max_instructions))
        outcome = {
            "halted": "halted",
            "shutdown": "shutdown",
            "instr_limit": "instr_limit",
            "cycle_limit": "hang",
            "hung": "hang",
        }[res.value]
    except _ABORTS as exc:
        outcome = "abort"
        abort = f"{type(exc).__name__}: {exc}"

    pending = cpu.pending_irqs if hw else vm.pending_virqs
    return {
        "name": _CONFIG_NAMES[virt_mode, vm.config.mmu_mode],
        "outcome": outcome,
        "abort": abort,
        "pc": cpu.pc,
        "halted": bool(cpu.halted or vcpu.halted),
        "regs": list(cpu.regs),
        "csr_view": {c.name: vcpu.csr[c] for c in GUEST_CSRS},
        "pending": sorted(c.name for c in pending),
        "console": vm.devices["console"].text,
        "instret": cpu.instret,
        "mem": vm.guest_mem.read_bytes(0, gen.MEM_BYTES),
    }


#: guest-visible fields compared across VMM configs ("mem" is masked).
_VMM_FIELDS = ("pc", "halted", "regs", "csr_view", "pending", "console")


def compare_vmm(results: List[Dict]) -> Tuple[Optional[str], List[str],
                                              Optional[Tuple[str, str]]]:
    """Return (failure_kind, differing_fields, (name_a, name_b)).

    failure_kind is None (agreement), "hang" (any backend tripped the
    cycle guard), or "divergence".
    """
    by_name = {r["name"]: r for r in results}
    if any(r["outcome"] == "hang" for r in results):
        hung = [r["name"] for r in results if r["outcome"] == "hang"]
        return "hang", ["outcome"], (hung[0], hung[0])

    base = results[0]
    for other in results[1:]:
        if other["outcome"] != base["outcome"]:
            return "divergence", ["outcome"], (base["name"], other["name"])

    outcome = base["outcome"]
    if outcome in ("abort", "shutdown"):
        # Abort details and shutdown points are backend-timed; symmetric
        # classes are all we require.
        return None, [], None

    lo, hi = gen.PT_SPAN

    def diff_state(a: Dict, b: Dict, with_instret: bool) -> List[str]:
        fields = [f for f in _VMM_FIELDS if a[f] != b[f]]
        # Equal images are equal masked; else the bytes around the page-table
        # span are compared in place, to tell A/D-bit noise from a difference.
        mem, other = a["mem"], memoryview(b["mem"])
        if mem != b["mem"] and not (mem.startswith(other[:lo])
                                    and mem.endswith(other[hi:])):
            fields.append("mem")
        if with_instret and a["instret"] != b["instret"]:
            fields.append("instret")
        return fields

    hw_s, bt = by_name["hw-shadow"], by_name["bt-shadow"]
    for other_name in ("hw-nested", "hw-hmode"):
        fields = diff_state(hw_s, by_name[other_name], with_instret=True)
        if fields:
            return "divergence", fields, ("hw-shadow", other_name)
    if outcome == "halted":
        # BT stops at the same architectural point on a halt; at an
        # instruction limit it legitimately overshoots (its run loop is
        # cycle-bounded), so BT state is only checked on clean exits.
        # instret is compared too: monitor callouts retire exactly like
        # their intercepted-and-emulated hardware-assist counterparts.
        fields = diff_state(hw_s, bt, with_instret=True)
        if fields:
            return "divergence", fields, ("hw-shadow", "bt-shadow")
    return None, [], None


# -- one full case ----------------------------------------------------------


def default_opts() -> Dict:
    return {"max_instructions": DEFAULT_MAX_INSTRUCTIONS,
            "fault_rate": 0.0, "bug": None, "events": True}


def run_case_spec(spec: gen.CaseSpec, opts: Dict) -> Dict:
    """Execute one generated (or shrunk) case everywhere and compare;
    ``opts`` over :func:`default_opts`."""
    opts = {**default_opts(), **opts}
    segments = gen.build_image(spec)
    max_instructions = opts["max_instructions"]
    fault_seed = spec.root_seed ^ (spec.case_index * 2654435761)
    # A distinct stream from the fault plan: the schedule's shape must
    # not correlate with which faults fire on it.
    event_seed = (fault_seed ^ 0x9E3779B9) if opts["events"] else None

    from repro.fuzz.bugs import apply_bug

    with apply_bug(opts.get("bug")):
        interp = run_bare(segments, jit=False, max_instructions=max_instructions,
                          event_seed=event_seed,
                          fault_rate=opts["fault_rate"], fault_seed=fault_seed)
        jit = run_bare(segments, jit=True, max_instructions=max_instructions,
                       event_seed=event_seed,
                       fault_rate=opts["fault_rate"], fault_seed=fault_seed)
        vmm = [
            run_vmm(segments, name, max_instructions=max_instructions,
                    fault_rate=opts["fault_rate"], fault_seed=fault_seed,
                    event_seed=event_seed)
            for name, _v, _m in VMM_CONFIGS
        ]

    verdict = {"kind": "ok", "group": None, "fields": [], "pair": None}
    bare_fields = compare_bare(interp, jit)
    if interp["outcome"] == "hang" or jit["outcome"] == "hang":
        verdict = {"kind": "hang", "group": "bare", "fields": ["outcome"],
                   "pair": ("interp", "jit")}
    elif bare_fields:
        verdict = {"kind": "divergence", "group": "bare",
                   "fields": bare_fields, "pair": ("interp", "jit")}
    else:
        kind, fields, pair = compare_vmm(vmm)
        if kind is not None:
            verdict = {"kind": kind, "group": "vmm", "fields": fields,
                       "pair": pair}

    return {
        "index": spec.case_index,
        "root_seed": spec.root_seed,
        "ncells": len(spec.cells),
        "body_instructions": spec.body_instructions,
        "paging": spec.layout.paging,
        "template_counts": spec.template_counts,
        "verdict": verdict,
        "outcomes": {r["name"]: r["outcome"]
                     for r in [interp, jit] + vmm},
        "aborts": {r["name"]: r["abort"]
                   for r in [interp, jit] + vmm if r["abort"]},
    }


def run_case(root_seed: int, case_index: int, opts: Dict) -> Dict:
    """Generate + execute case ``case_index``; pure in its arguments."""
    return run_case_spec(gen.generate_case(root_seed, case_index), opts)
