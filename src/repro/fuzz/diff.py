"""Differential execution of one fuzz case on every engine.

The same guest image runs six times: natively, on this process's one
recycled :class:`~repro.core.machine.Machine` -- the reference
interpreter, then the block JIT -- and under the hypervisor on four
full-virtualization rows: hardware assist with shadow, nested and
H-mode two-stage paging (each case draws the H-mode host's delegation
masks; the causes left out exit and the VMM re-injects them), and
binary translation over shadow paging. The machine and the VMs have
one device board (``core.machine.attach_board``); the one difference is
that the fuzz VM has no emulated disk or NIC (``with_emulated_io=False``),
and no template addresses their ports.

Two comparisons, one oracle:

* :func:`compare_bare` holds the JIT to the interpreter exactly --
  cycles, TLB and walker counts and the memory image included (``mem``:
  each written page that is not all zero).
* :func:`compare_vmm` holds every VMM row to the interpreter (Popek and
  Goldberg's equivalence): outcome, pc, registers, the guest CSR view,
  halt state, pending interrupt causes, console output, instret, and
  memory less the page-table span (the walkers set accessed/dirty bits
  at TLB-miss time, which legitimately differs). Cycles differ by
  design and are never compared; aborts must match as a class.

Each case carries a seeded :class:`~repro.devices.schedule.EventSchedule`
(``opts["events"]``, on by default) and, with a nonzero fault rate, one
fault plan over the ``irq.*``, virtio and H-mode sites; every site keys
to an architected point, so both replay identically on every row. A
cycle-guard trip is a ``hang``. CI runs seeds 1, 17 and 23 x 300 cases
clean; ``tests/test_fuzz.py::TestLocate`` catches, locates and shrinks
``vm-console-rx-ready`` (``fuzz.bugs``), which only the native oracle sees.

TRAP_EMULATE is excluded: VISA's sensitive-but-unprivileged
instructions make it architecturally *wrong* (the paper's point).
"""

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core import (
    GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode, VirtualMachine,
)
from repro.core.policies import hmode_controls
from repro.cpu.disasm import disassemble_one
from repro.cpu.interp import StopReason
from repro.cpu.isa import CSR, HEDELEG_ALL, HIDELEG_ALL, DecodeError
from repro.devices.schedule import EventSchedule
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.fuzz import gen
from repro.mem.costs import CostModel
from repro.mem.paging import PageFault
from repro.util.errors import ReproError
from repro.util.rng import DeterministicRNG

DEFAULT_MAX_INSTRUCTIONS = 600

#: The fault sites a case with a nonzero fault rate arms, on every row.
#: All are keyed to architected points -- virtio kicks, line raises,
#: retire-count edges, H-mode trap deliveries and two-stage fills -- so
#: the same plan fires identically everywhere; per-site forked streams
#: mean a site a row never evaluates perturbs nothing.
FAULT_SITES = ("virtio.ring_stuck", "irq.lost", "irq.spurious", "irq.storm",
               "irq.delayed", "hmode.gstage_stall")

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


def _arm(cpu, pic, devices, max_instructions: int, fault_rate: float,
         fault_seed: int, event_seed: Optional[int]) -> Optional[FaultInjector]:
    """Bind a case's fault plan to a power-on board and its event
    schedule to the core; returns the plan's injector (None at rate 0)."""
    injector = None
    if fault_rate > 0.0:
        injector = FaultInjector(FaultPlan(
            seed=fault_seed,
            specs=[FaultSpec(site, rate=fault_rate) for site in FAULT_SITES],
        ))
    devices["virtio_blk"].injector = pic.injector = injector
    if event_seed is not None:
        cpu.events = EventSchedule.seeded(
            event_seed, horizon=max_instructions, controller=pic,
            console=devices["console"], injector=injector,
        )
    return injector


# -- native rows -----------------------------------------------------------

#: The native rows' machine, kept for the life of the process like
#: ``_HOSTS`` and recycled for every run.
_NATIVE: Optional[Machine] = None


def native_machine() -> Machine:
    """This process's native machine, at power-on."""
    global _NATIVE
    if _NATIVE is None:
        _NATIVE = Machine(memory_bytes=gen.MEM_BYTES)
    return _NATIVE.recycle()


def run_bare(segments: Dict[int, bytes], jit: bool,
             max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
             event_seed: Optional[int] = None,
             fault_rate: float = 0.0, fault_seed: int = 0,
             budget: Optional[int] = None) -> Dict:
    """Run one case natively, on :func:`native_machine`; a ``budget``
    below ``max_instructions`` stops it at that retire edge of the full
    run."""
    machine = native_machine()
    cpu = machine.cpu
    cpu.jit_enabled = jit
    for addr in sorted(segments):
        machine.physmem.write_bytes(addr, segments[addr])
    cpu.reset(gen.PRE_BASE)
    _arm(cpu, machine.pic, machine.devices, max_instructions, fault_rate,
         fault_seed, event_seed)

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

    return {
        "name": "jit" if jit else "interp",
        "outcome": outcome,
        "abort": abort,
        "pc": cpu.pc,
        "halted": cpu.halted,
        "regs": list(cpu.regs),
        "csr": list(cpu.csr),
        "csr_view": {c.name: cpu.csr[c] for c in GUEST_CSRS},
        "pending": sorted(c.name for c in cpu.pending_irqs),
        "console": machine.console.text,
        "cycles": cpu.cycles,
        "instret": cpu.instret,
        "tlb": dict(vars(machine.mmu.tlb.stats)),
        "walker": {"walks": machine.mmu.walker.walks,
                   "faults": machine.mmu.walker.faults},
        "mem": machine.write_log.nonzero(),
    }


#: fields compared exactly between the interpreter and the JIT.
_BARE_FIELDS = ("pc", "halted", "regs", "csr", "pending", "console",
                "cycles", "instret", "tlb", "walker", "mem")


def compare_bare(a: Dict, b: Dict) -> List[str]:
    if a["outcome"] != b["outcome"]:
        return ["outcome"]
    if a["outcome"] == "abort":
        # Abort points are not microarchitecturally aligned (a compiled
        # block may die mid-block); the abort itself must match.
        return [] if a["abort"] == b["abort"] else ["abort"]
    return [f for f in _BARE_FIELDS if a[f] != b[f]]


# -- VMM rows ---------------------------------------------------------------


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
    # Hardware assist delivers natively from cpu.pending_irqs; on the
    # other modes a fire that leaves a virq pending returns to the pump,
    # so the monitor injects it at the exact retire edge. The host
    # outlives the case: None must replace the last plan too.
    hv.injector = _arm(cpu, vm.pic, vm.devices, max_instructions,
                       fault_rate, fault_seed, event_seed)
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
        "mem": vm.guest_mem.write_log.nonzero(),
    }


#: guest-visible fields compared across VMM configs ("mem" is masked).
_VMM_FIELDS = ("pc", "halted", "regs", "csr_view", "pending", "console")


def compare_vmm(results: List[Dict]) -> Tuple[Optional[str], List[str],
                                              Optional[Tuple[str, str]]]:
    """Hold every row to ``results[0]`` (the native interpreter, in a
    full case); return (failure_kind, differing_fields, (name_a, name_b)).

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
        kind, fields, pair = compare_vmm([interp] + vmm)
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

_NATIVE_ROWS = ("interp", "jit")


def _row(name: str, segments: Dict[int, bytes], common: Dict,
         budget: int) -> Dict:
    """Run row ``name`` of a case to ``budget``; a VMM row's host has its
    ``trace`` armed for this run only, and the row carries its tail as
    ``exits``."""
    if name in _NATIVE_ROWS:
        return run_bare(segments, jit=name == "jit", budget=budget, **common)
    hv, vm = pooled_machine(name)
    hv.trace = deque(maxlen=EXIT_TAIL)
    try:
        row = run_on(hv, vm, segments, budget=budget, **common)
        return {**row, "exits": list(map(list, hv.trace))}
    finally:
        hv.trace = None  # the pooled host outlives this run


def _parts(a: Dict, b: Dict) -> List[str]:
    """The fields in which two rows differ: exactly when both are native,
    by :func:`compare_vmm` when a VMM row is one of them."""
    if a["name"] in _NATIVE_ROWS and b["name"] in _NATIVE_ROWS:
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
