"""Differential execution of one fuzz case across every backend.

Two comparison groups run the same guest image:

* **bare** -- the reference interpreter vs. the block JIT on a raw
  :class:`~repro.cpu.mmu.BareMMU` machine. The JIT's contract is
  bit-identical state *including* cycles, instret, TLB statistics and
  the memory image, so everything is compared exactly. Memory is
  compared by page: ``mem`` maps each page a run wrote that is not all
  zero to its bytes, which are equal exactly when the images are.
* **vmm** -- four full-virtualization configs under the hypervisor:
  hardware-assist with shadow paging, hardware-assist with nested
  paging, hardware-assist with H-mode two-stage paging (delegated
  traps deliver natively, with no VM exit in between; each case draws
  the host's delegation masks, so the causes it leaves out exit and
  the VMM re-injects them), and binary translation (shadow). The
  other three rows deliver every trap as full delegation would, so
  they are the H-mode row's oracle. Only *guest-visible* state is
  compared: registers, pc, the guest CSR view, halt state, pending
  interrupt causes, console output, and guest memory less the pages
  of the page-table span (the walker sets accessed/dirty bits at
  TLB-miss time, which legitimately differs between shadow fills,
  nested walks and the hardware two-stage walker). Cycle counts are
  never compared across configs -- cost models differ by design.
  instret *is* comparable everywhere (BT monitor callouts retire,
  mirroring intercepted-and-emulated instructions under hardware
  assist), on every outcome: the translator, like the core, stops on
  exactly the retire edge its instruction budget ends at.

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

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core import (
    GuestConfig, Hypervisor, MMUVirtMode, VirtMode, VirtualMachine,
)
from repro.core.policies import hmode_controls
from repro.cpu.disasm import disassemble_one
from repro.cpu.interp import CPUCore, StopReason
from repro.cpu.isa import CSR, HEDELEG_ALL, HIDELEG_ALL, DecodeError
from repro.cpu.mmu import BareMMU
from repro.devices.irq import InterruptController
from repro.devices.schedule import EventSchedule
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.fuzz import gen
from repro.mem.costs import CostModel
from repro.mem.paging import PageFault
from repro.mem.physmem import PhysicalMemory, WriteLog
from repro.util.errors import ReproError
from repro.util.rng import DeterministicRNG

DEFAULT_MAX_INSTRUCTIONS = 600

#: IRQ-path fault sites armed (with the virtio site) when a case runs
#: with a nonzero fault rate. All are keyed to architected points --
#: line raises and retire-count edges -- so the same plan replays
#: identically in every backend.
IRQ_FAULT_SITES = ("irq.lost", "irq.spurious", "irq.storm", "irq.delayed")

#: H-mode fault sites armed in *every* config's plan. Per-site forked
#: streams mean the extra spec perturbs nothing: configs without an
#: H-mode vCPU never evaluate it, and where it fires the effect is
#: host timing only, so guest state still agrees.
HMODE_FAULT_SITES = ("hmode.gstage_stall",)

#: Salt of the stream a case's H-mode delegation masks are drawn from:
#: a fork of its fault seed, uncorrelated with the faults it plans.
_DELEG_SALT = 0xDE1E6A7E

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


def _injector(sites: Tuple[str, ...], fault_rate: float,
              fault_seed: int) -> Optional[FaultInjector]:
    if fault_rate <= 0.0:
        return None
    return FaultInjector(FaultPlan(
        seed=fault_seed,
        specs=[FaultSpec(site, rate=fault_rate) for site in sites],
    ))


# -- bare group -------------------------------------------------------------

#: The bare group's one memory, kept for the life of the process like
#: ``_HOSTS``; each run starts by zeroing what the last one wrote.
_BARE: Optional[WriteLog] = None


def _bare_memory() -> WriteLog:
    global _BARE
    if _BARE is None:
        pm = PhysicalMemory(gen.MEM_BYTES)
        _BARE = WriteLog(pm, {pfn: pfn for pfn in range(pm.num_frames)})
    _BARE.zero_written()
    return _BARE


def run_bare(segments: Dict[int, bytes], jit: bool,
             max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
             event_seed: Optional[int] = None,
             fault_rate: float = 0.0, fault_seed: int = 0,
             budget: Optional[int] = None) -> Dict:
    """Run one case on a bare core; a ``budget`` below
    ``max_instructions`` stops it at that retire edge of the full run."""
    log = _bare_memory()
    pm = log.physmem
    for addr in sorted(segments):
        pm.write_bytes(addr, segments[addr])
    mmu = BareMMU(pm, CostModel())
    cpu = CPUCore(mmu, port_bus=None, jit=jit)
    cpu.reset(gen.PRE_BASE)
    if event_seed is not None:
        # A bare machine still has a PIC in front of the core: the
        # schedule raises lines on it and the sink latches causes. No
        # port bus, so lines stay pending -- irrelevant to comparison,
        # which sees only the latched causes.
        injector = _injector(IRQ_FAULT_SITES, fault_rate, fault_seed)
        pic = InterruptController(sink=cpu, injector=injector)
        cpu.events = EventSchedule.seeded(
            event_seed, horizon=max_instructions, controller=pic,
            injector=injector,
        )

    outcome, abort = None, None
    try:
        result = cpu.run(
            max_instructions=max_instructions if budget is None else budget,
            max_cycles=bare_cycle_guard(max_instructions))
        outcome = {
            StopReason.HALT: "halted",
            StopReason.INSTR_LIMIT: "instr_limit",
            StopReason.CYCLE_LIMIT: "hang",  # only the guard stops on cycles
        }[result.stop]
    except _ABORTS as exc:
        outcome = "abort"
        abort = f"{type(exc).__name__}: {exc}"
    pm.unwatch_writes(cpu._on_code_write)  # the memory outlives the core

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
        "tlb": dict(vars(mmu.tlb.stats)),
        "walker": {"walks": mmu.walker.walks, "faults": mmu.walker.faults},
        "mem": log.nonzero(log.frames.items()),
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
    runs on, at power-on: recycled once, as a pooled one per case."""
    modes = {n: (v, m) for n, v, m in VMM_CONFIGS}
    if config_name not in modes:
        raise ValueError(
            f"unknown VMM config {config_name!r}; known: {list(modes)}"
        )
    virt_mode, mmu_mode = modes[config_name]
    hv = Hypervisor(memory_bytes=8 * gen.MEM_BYTES, costs=CostModel())
    return hv, hv.recycle_vm(hv.create_vm(GuestConfig(
        name="fuzz", memory_bytes=gen.MEM_BYTES, virt_mode=virt_mode,
        mmu_mode=mmu_mode, prealloc=True,
        with_virtio=True, with_emulated_io=False,
    )))


#: Config name -> the host its cases run on, built on first use and kept
#: for the life of the process (and of each campaign worker, which
#: inherits or fills its own). Between cases only the guest's frames
#: and G-stage survive (``Hypervisor.recycle_vm``); every object above
#: them is rebuilt, so what the bug shims patch -- classes, never
#: instances -- reaches a pooled machine like any other.
_HOSTS: Dict[str, Hypervisor] = {}


def pooled_machine(config_name: str) -> Tuple[Hypervisor, VirtualMachine]:
    """This process's machine for ``config_name``, at power-on."""
    if config_name not in _HOSTS:
        _HOSTS[config_name] = build_machine(config_name)[0]
    hv = _HOSTS[config_name]
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
           event_seed: Optional[int] = None,
           budget: Optional[int] = None) -> Dict:
    """Run one case on ``vm``, a power-on machine of ``hv`` from
    :func:`build_machine` or :func:`pooled_machine`; ``budget`` as in
    :func:`run_bare`."""
    hw = vm.config.virt_mode is VirtMode.HW_ASSIST
    # All sites key to architected points (virtio kicks are synchronous,
    # IRQ faults draw per line raise / retire edge, hmode sites per trap
    # delivery / two-stage fill), so the same plan fires identically in
    # every config.
    injector = _injector(("virtio.ring_stuck",) + IRQ_FAULT_SITES
                         + HMODE_FAULT_SITES, fault_rate, fault_seed)
    vm.devices["virtio_blk"].injector = injector
    vm.pic.injector = injector
    # The host outlives the case: None must replace the last plan too.
    hv.injector = injector
    for addr in sorted(segments):
        vm.guest_mem.write_bytes(addr, segments[addr])
    hv.reset_vcpu(vm, gen.PRE_BASE)

    vcpu = vm.vcpus[0]
    cpu = vcpu.cpu
    if vm.config.mmu_mode is MMUVirtMode.HMODE:
        # The host's delegation masks: each cause kept with probability
        # 1/2. The causes left out exit and the VMM re-injects them.
        rng = DeterministicRNG(fault_seed).fork(_DELEG_SALT)
        cpu.controls = hmode_controls(HEDELEG_ALL & rng.next_u64(),
                                      HIDELEG_ALL & rng.next_u64())
    if event_seed is not None:
        # Hardware-assist delivers natively from cpu.pending_irqs; the
        # other modes must bounce to the pump so the monitor can inject
        # the virtual interrupt at the exact retire edge.
        cpu.events = EventSchedule.seeded(
            event_seed, horizon=max_instructions, controller=vm.pic,
            console=vm.devices["console"], injector=injector,
            exit_on_fire=not hw,
        )
    outcome, abort = None, None
    try:
        res = hv.run(
            vm, max_guest_instructions=max_instructions if budget is None else budget,
            max_cycles=vmm_cycle_guard(max_instructions))
        # The cycle guard tripped or the watchdog fired: either is a hang.
        outcome = {"cycle_limit": "hang", "hung": "hang"}.get(res.value, res.value)
    except _ABORTS as exc:
        outcome = "abort"
        abort = f"{type(exc).__name__}: {exc}"

    pending = cpu.pending_irqs if hw else vm.pending_virqs
    return {
        "name": _CONFIG_NAMES[vm.config.virt_mode, vm.config.mmu_mode],
        "outcome": outcome,
        "abort": abort,
        "pc": cpu.pc,
        "halted": bool(cpu.halted or vcpu.halted),
        "regs": list(cpu.regs),
        "csr_view": {c.name: vcpu.csr[c] for c in GUEST_CSRS},
        "pending": sorted(c.name for c in pending),
        "console": vm.devices["console"].text,
        "instret": cpu.instret,
        "mem": vm.guest_mem.write_log.nonzero(vm.guest_mem.map.items()),
    }


#: guest-visible fields compared across VMM configs ("mem" is masked).
_VMM_FIELDS = ("pc", "halted", "regs", "csr_view", "pending", "console")


def compare_vmm(results: List[Dict]) -> Tuple[Optional[str], List[str],
                                              Optional[Tuple[str, str]]]:
    """Return (failure_kind, differing_fields, (name_a, name_b)).

    failure_kind is None (agreement), "hang" (any backend tripped the
    cycle guard), or "divergence".
    """
    if any(r["outcome"] == "hang" for r in results):
        hung = [r["name"] for r in results if r["outcome"] == "hang"]
        return "hang", ["outcome"], (hung[0], hung[0])

    base = results[0]
    for other in results[1:]:
        if other["outcome"] != base["outcome"]:
            return "divergence", ["outcome"], (base["name"], other["name"])

    if base["outcome"] in ("abort", "shutdown"):
        # Abort details and shutdown points are backend-timed; symmetric
        # classes are all we require.
        return None, [], None

    pt_pages = range(gen.PT_SPAN[0] // gen.PAGE, gen.PT_SPAN[1] // gen.PAGE)
    # The page-table span's pages are dropped: A/D-bit noise.
    mem = [{gfn: page for gfn, page in r["mem"].items() if gfn not in pt_pages}
           for r in results]
    # Every engine stops on the same retire edge, at a halt and at the
    # instruction limit alike, so instret is compared too: monitor
    # callouts retire exactly like their intercepted-and-emulated
    # hardware-assist counterparts.
    for other, other_mem in zip(results[1:], mem[1:]):
        fields = [f for f in _VMM_FIELDS if base[f] != other[f]]
        if mem[0] != other_mem:
            fields.append("mem")
        if base["instret"] != other["instret"]:
            fields.append("instret")
        if fields:
            return "divergence", fields, (base["name"], other["name"])
    return None, [], None


# -- one full case ----------------------------------------------------------


_DEFAULTS = {"max_instructions": DEFAULT_MAX_INSTRUCTIONS,
             "fault_rate": 0.0, "bug": None, "events": True}


def default_opts() -> Dict:
    return dict(_DEFAULTS)


def _inputs(spec: gen.CaseSpec, opts: Dict) -> Tuple[Dict[int, bytes], Dict]:
    """The image and the run arguments every row of a case shares."""
    fault_seed = spec.root_seed ^ (spec.case_index * 2654435761)
    # A distinct stream from the fault plan: the schedule's shape must
    # not correlate with which faults fire on it.
    event_seed = (fault_seed ^ 0x9E3779B9) if opts["events"] else None
    return gen.build_image(spec), dict(
        max_instructions=opts["max_instructions"], event_seed=event_seed,
        fault_rate=opts["fault_rate"], fault_seed=fault_seed)


def run_case_spec(spec: gen.CaseSpec, opts: Dict) -> Dict:
    """Execute one generated (or shrunk) case everywhere and compare;
    ``opts`` over :func:`default_opts`."""
    opts = {**_DEFAULTS, **opts}
    segments, common = _inputs(spec, opts)

    from repro.fuzz.bugs import apply_bug

    with apply_bug(opts.get("bug")):
        interp, jit = [run_bare(segments, jit=j, **common) for j in (False, True)]
        vmm = [run_vmm(segments, name, **common) for name, _v, _m in VMM_CONFIGS]

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


# -- locating a failure -----------------------------------------------------

#: Exits of each VMM row a located failure keeps (the row's trace ring).
EXIT_TAIL = 8


def _row(name: str, segments: Dict[int, bytes], common: Dict,
         budget: int) -> Dict:
    """Run row ``name`` of a case to ``budget``; a VMM row's host has its
    ``trace`` armed for this run only, and the row carries its tail as
    ``exits``."""
    if name in ("interp", "jit"):
        return run_bare(segments, jit=name == "jit", budget=budget, **common)
    hv, vm = pooled_machine(name)
    hv.trace = deque(maxlen=EXIT_TAIL)
    try:
        row = run_on(hv, vm, segments, budget=budget, **common)
        return {**row, "exits": list(map(list, hv.trace))}
    finally:
        hv.trace = None  # the pooled host outlives this run


def _parts(a: Dict, b: Dict) -> List[str]:
    """The fields in which two rows of one group differ."""
    if a["name"] in ("interp", "jit"):
        return compare_bare(a, b)
    return compare_vmm([a, b])[1]


def _ins_at(row: Dict) -> str:
    """The instruction at the row's pc, read from its memory image."""
    pc, empty = row["pc"], bytes(gen.PAGE)
    code = row["mem"].get(pc >> 12, empty) + row["mem"].get((pc >> 12) + 1, empty)
    try:
        return disassemble_one(code, pc & 0xFFF)[0]
    except DecodeError:
        return "(undecodable)"


def locate(spec: gen.CaseSpec, opts: Dict, verdict: Dict) -> Optional[Dict]:
    """The retire edge where a failing case's pair first parts.

    A divergence is bisected: the smallest budget N after which the
    verdict's pair differs, over whole ``run(N)``s (stepping would stop
    the JIT compiling blocks) that keep the full run's event schedule,
    fault plan and cycle guard. The low end only ever moves to a budget
    the pair agrees at, so the pair agrees at N - 1. A hang's edge is
    its hung row's instret when the guard tripped. Returns ``{"n",
    "fields", "rows"}``, ``rows`` giving each row's pc, the instruction
    there and, for a VMM row, its last :data:`EXIT_TAIL` exits; None
    when there is nothing to locate.
    """
    if verdict["kind"] == "ok":
        return None
    opts = {**_DEFAULTS, **opts}
    segments, common = _inputs(spec, opts)
    names = list(dict.fromkeys(verdict["pair"]))
    lo, hi = -1, common["max_instructions"]

    from repro.fuzz.bugs import apply_bug

    with apply_bug(opts["bug"]):
        if verdict["kind"] == "hang":
            rows = [r for r in (_row(name, segments, common, hi) for name in names)
                    if r["outcome"] == "hang"][:1]
            n, fields = (rows[0]["instret"], ["outcome"]) if rows else (0, [])
        else:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _parts(*(_row(name, segments, common, mid) for name in names)):
                    hi = mid
                else:
                    lo = mid
            n, rows = hi, [_row(name, segments, common, hi) for name in names]
            fields = _parts(*rows)
    if not fields:
        return None
    return {"n": n, "fields": fields, "rows": {
        r["name"]: {"pc": r["pc"], "ins": _ins_at(r),
                    **({"exits": r["exits"]} if "exits" in r else {})}
        for r in rows}}
