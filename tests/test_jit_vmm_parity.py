"""Compiled execution under a VMM is bit-identical to the reference loop.

``CPUCore.run`` executes compiled blocks under every MMU and every
controls record; the interpreter (``cpu.jit_enabled = False``) stays
the oracle. Every test here builds the same guest twice -- reference
and compiled -- and compares everything the simulation can observe:
cycles, instret, registers and CSRs, exit counts by reason and detail,
all TLB statistics, the VMM-side counters, console output and guest
memory.

The compiler is tiered (a head the process has never compiled is
interpreted until it has been dispatched ``jit.HOT`` times), so to pin
the *compiled* semantics these tests compile every block on its first
visit (``HOT = 1``); one test keeps the production value so the
interpreted-to-compiled hand-over is compared too.
"""

import hashlib

import pytest

from repro.bench.common import GUEST_MEMORY, MODE_MATRIX
from repro.core import GuestConfig, Hypervisor
from repro.core.emulate import emulate_guest_store
from repro.core.hypervisor import RunOutcome
from repro.core.snapshot import restore_vm, snapshot_vm
from repro.cpu import jit as jitmod
from repro.cpu.assembler import Assembler
from repro.cpu.isa import CSR, Op, encode
from repro.fuzz import diff, gen
from repro.guest import KernelOptions, build_kernel
from repro.guest import workloads as programs
from repro.guest.layout import GuestLayout
from repro.migration import LiveMigrator
from repro.overcommit import HostSwap, PageSharer
from repro.util.units import MIB
from tests.conftest import round_robin
from tests.test_core_bt import BASIC, TWO_PAGE

#: Host RAM per guest: its 16 MiB, the translation tables, some slack.
HOST_PER_GUEST = GUEST_MEMORY + 4 * MIB

VMM_ROWS = MODE_MATRIX[1:]
ROW_IDS = [row[0] for row in VMM_ROWS]
BY_LABEL = {row[0]: row for row in VMM_ROWS}


@pytest.fixture(autouse=True)
def compile_on_first_visit(monkeypatch):
    monkeypatch.setattr(jitmod, "HOT", 1)


_KERNELS = {}


def _kernel(pv):
    if pv not in _KERNELS:
        _KERNELS[pv] = build_kernel(
            KernelOptions(pv=pv, memory_bytes=GUEST_MEMORY))
    return _KERNELS[pv]


PORT_LOOP_WRITES = 40


def port_loop_source():
    """A guest without NanoOS: a kernel-mode loop writing the console
    port, then power-off -- an intercepted instruction in every three."""
    return f"""
.org {GuestLayout.KERNEL_BASE:#x}
start:
    li   s0, {PORT_LOOP_WRITES}
loop:
    out  0x10, s0
    sub  s0, s0, 1
    bnez s0, loop
    li   t0, 1
    out  0xf0, t0
"""


def port_loop():
    return Assembler().assemble(port_loop_source())


#: The trap leaves a block whose load and store have already armed its
#: fault bookkeeping. Under deprivileged controls ``_trap`` raises
#: ``VMExit(GUEST_TRAP)`` from inside the closure: it must not be rolled
#: back to the last memory op's boundary by the block's own handler.
DIV0_IN_GUARDED = """
    li a0, vec
    csrw VBAR, a0
    li a1, 40
    li a2, 0x800
    st [a2+0], a1        ; memory op arms the closure's fault bookkeeping
    ld a3, [a2+0]
    li t0, 0
    remu t1, a1, t0      ; DIV0 trap *after* the guarded accesses
    li a3, 0xbeef        ; must not run before the trap
    hlt
vec:
    csrr a2, ECAUSE
    li a0, 1
    out 0xf0, a0
    hlt
"""


#: The intercepted OUT is the last item of a block it does not start.
#: The exit handlers resume from ``vcpu.cpu.pc``, not from the exit's
#: ``guest_pc``: a terminator that left ``pc`` at the block's head would
#: re-run the ALU ops after every exit -- same console bytes, twice the
#: ``instret``.
ALU_THEN_OUT_LOOP = f"""
    li s0, {PORT_LOOP_WRITES}
loop:
    add s1, s1, s0
    xor s2, s1, s0
    out 0x10, s2
    sub s0, s0, 1
    bnez s0, loop
    li t0, 1
    out 0xf0, t0
"""


def _kernel_mode(source):
    return lambda: Assembler().assemble(".org 0x1000\n" + source)


#: Guests without NanoOS: kernel mode from reset to power-off. (The
#: translator runs guest kernel mode itself, so under it these never
#: reach cpu.run: its compiled runs are what is compared.)
BARE = {
    "port_loop": port_loop,
    "kernel_basic": _kernel_mode(BASIC),
    "kernel_two_page": _kernel_mode(TWO_PAGE),
    "kernel_div0_guarded": _kernel_mode(DIV0_IN_GUARDED),
    "alu_then_out_loop": _kernel_mode(ALU_THEN_OUT_LOOP),
}

PROGRAMS = {
    "cpu_bound": lambda: programs.cpu_bound(700),
    "memtouch": lambda: programs.memtouch(24, 2),
    "random_walk": lambda: programs.random_walk(16, 300, 7),
    "syscall_storm": lambda: programs.syscall_storm(30),
    "pt_mix": lambda: programs.pt_mix(12, 80, 8, 3),
    "blk_write": lambda: programs.blk_write(4),
    "vblk_write": lambda: programs.vblk_write(2, 3),
    **BARE,
}


def _create(label, jit, name="vm", hv=None):
    _label, virt, mmu, _pv = BY_LABEL[label]
    hv = hv or Hypervisor(memory_bytes=HOST_PER_GUEST)
    vm = hv.create_vm(GuestConfig(
        name=name, memory_bytes=GUEST_MEMORY, virt_mode=virt, mmu_mode=mmu))
    vm.vcpus[0].cpu.jit_enabled = jit
    return hv, vm


def _load(hv, vm, label, program):
    """Load ``program`` -- a name in PROGRAMS or an assembled user image
    -- over NanoOS (a BARE one: alone) and reset the vCPU to boot."""
    named = isinstance(program, str)
    image = PROGRAMS[program]() if named else program
    boot = image
    if not (named and program in BARE):
        boot = _kernel(BY_LABEL[label][3])
        hv.load_program(vm, boot)
    hv.load_program(vm, image)
    hv.reset_vcpu(vm, boot.entry)


def _state(vm):
    vcpu = vm.vcpus[0]
    cpu = vcpu.cpu
    tlb = cpu.mmu.tlb.stats
    memory = hashlib.sha256()
    for gfn in sorted(vm.guest_mem.map):
        memory.update(gfn.to_bytes(4, "little"))
        memory.update(vm.guest_mem.read_gfn(gfn))
    stats = vm.stats
    return {
        "cycles": cpu.cycles,
        "instret": cpu.instret,
        "pc": cpu.pc,
        "regs": tuple(cpu.regs),
        "csr": tuple(cpu.csr),
        "vcsr": tuple(vcpu.vcsr),
        "halted": (cpu.halted, vcpu.halted),
        "exits": dict(vm.exit_stats.counts),
        "tlb": (tlb.hits, tlb.misses, tlb.flushes, tlb.invalidations,
                tlb.evictions),
        "vmm_cycles": stats.vmm_cycles,
        "shadow_fills": stats.shadow_fills,
        "ept_violations": stats.ept_violations,
        "injected_irqs": stats.injected_irqs,
        "console": vm.devices["console"].text,
        "memory": memory.hexdigest(),
    }


def _assert_same(reference, compiled, what=""):
    differing = [k for k in reference if reference[k] != compiled[k]]
    assert not differing, (
        f"{what}: compiled run differs from the interpreter in "
        + ", ".join(f"{k} ({reference[k]!r} != {compiled[k]!r})"
                    for k in differing if k != "memory")
        + (" memory" if "memory" in differing else ""))


def _compiled_blocks(vm):
    """Blocks the core compiled, and the translator's compiled runs."""
    runs = vm.bt.runs_compiled if vm.bt is not None else 0
    return vm.vcpus[0].cpu.jit_stats()["blocks_compiled"] + runs


# -- whole guests ------------------------------------------------------------


@pytest.mark.parametrize("program", list(PROGRAMS))
@pytest.mark.parametrize("label", ROW_IDS)
def test_guest_run_matches_interpreter(label, program):
    states = []
    for jit in (False, True):
        hv, vm = _create(label, jit)
        _load(hv, vm, label, program)
        outcome = hv.run(vm, max_guest_instructions=2_000_000)
        assert outcome is RunOutcome.SHUTDOWN
        states.append(_state(vm))
    assert _compiled_blocks(vm) > 0
    assert vm.bt is None or vm.bt.runs_compiled > 0
    _assert_same(*states, what=f"{label}/{program}")


@pytest.mark.parametrize("label", ROW_IDS)
def test_hand_over_from_cold_to_compiled(label, monkeypatch):
    # Production tier, in a process that has compiled nothing yet: boot
    # paths stay interpreted, loops compile after HOT interpreted laps
    # -- the same state either way.
    monkeypatch.undo()
    monkeypatch.setattr(jitmod, "_CODE", {})
    monkeypatch.setattr(jitmod, "_HEADS", set())
    states = []
    for jit in (False, True):
        hv, vm = _create(label, jit)
        _load(hv, vm, label, "memtouch")
        assert hv.run(vm, max_guest_instructions=2_000_000) is RunOutcome.SHUTDOWN
        states.append(_state(vm))
    stats = vm.vcpus[0].cpu.jit_stats()
    assert stats["blocks_compiled"] > 0 and stats["cold_steps"] > 0
    _assert_same(*states, what=label)


# -- generated guests with seeded events and faults --------------------------

FUZZ_ROOT = 0x51D
FUZZ_CASES = 60


def _run_fuzz_vmm(segments, config, jit, **common):
    """A fuzz case on a machine built here, with the vCPU's engine
    chosen; returns its guest-visible result and the full simulated
    state."""
    hv, vm = diff.build_machine(config)
    vm.vcpus[0].cpu.jit_enabled = jit
    result = diff.run_on(hv, vm, segments, **common)
    return result, _state(vm), vm


@pytest.mark.parametrize("config", [name for name, _v, _m in diff.VMM_CONFIGS])
def test_generated_cases_match_interpreter(config):
    compiled = 0
    for index in range(FUZZ_CASES):
        spec = gen.generate_case(FUZZ_ROOT, index)
        segments = gen.build_image(spec)
        fault_seed = FUZZ_ROOT ^ (index * 2654435761)
        common = dict(max_instructions=diff.DEFAULT_MAX_INSTRUCTIONS,
                      fault_rate=0.05, fault_seed=fault_seed,
                      event_seed=fault_seed ^ 0x9E3779B9)
        runs = [_run_fuzz_vmm(segments, config, jit, **common)
                for jit in (False, True)]
        (ref_result, ref_state, _), (jit_result, jit_state, vm) = runs
        assert ref_result == jit_result, f"{config} case {index}"
        _assert_same(ref_state, jit_state, what=f"{config} case {index}")
        compiled += _compiled_blocks(vm)
    # The comparison was not vacuous.
    assert compiled > FUZZ_CASES


# -- cycle budgets -----------------------------------------------------------


@pytest.mark.parametrize("quantum", [3001, 4517, 9973])
@pytest.mark.parametrize("label", ["hw+nested", "hw+shadow", "trap-emulate"])
def test_cycle_budget_stops_at_the_same_retire_edge(label, quantum):
    # A budget ends a run at the first retire edge at or past it. A
    # block is entered only when its worst-case charge fits, so the
    # compiled run must stop exactly where the reference does -- six
    # times in a row, each call starting where the last one stopped.
    trails = []
    for jit in (False, True):
        hv, vm = _create(label, jit)
        _load(hv, vm, label, programs.memtouch(96, 8))
        hv.run(vm, max_guest_instructions=8_000)  # into the store loop
        cpu = vm.vcpus[0].cpu
        trail = []
        for _ in range(6):
            outcome = hv.run(vm, max_cycles=quantum)
            trail.append((outcome, cpu.cycles, cpu.instret, cpu.pc,
                          vm.stats.vmm_cycles))
        trails.append(trail)
    assert _compiled_blocks(vm) > 0
    assert trails[0] == trails[1]
    assert trails[0][-1][0] is RunOutcome.CYCLE_LIMIT


def test_scheduler_report_matches_interpreter():
    # Three VMs on one host, interleaved in cycle quanta (every run ends
    # on its budget mid-block, unwinding at its first serviced exit).
    reports = []
    for jit in (False, True):
        hv = Hypervisor(memory_bytes=3 * HOST_PER_GUEST)
        vms = []
        for k, (label, program) in enumerate([("hw+nested", "cpu_bound"),
                                               ("hw+shadow", "memtouch"),
                                               ("trap-emulate", "syscall_storm")]):
            _hv, vm = _create(label, jit, name=f"vm{k}", hv=hv)
            _load(hv, vm, label, program)
            vms.append(vm)
        outcomes, dispatches, finished = round_robin(hv, vms, 20_011)
        reports.append((outcomes, dispatches, finished,
                        [_state(vm) for vm in vms]))
    assert reports[0] == reports[1]
    assert len(reports[0][2]) == 3


# -- invalidation sources that do not exist on bare metal --------------------
#
# Each runs a guest part-way (so blocks and inline caches are hot), lets
# the host do something to the guest's memory or translation state, and
# runs on; the reference run does exactly the same.

TOUCH_PAGES = 40
#: Past NanoOS's boot under every row: the store loop is running out of
#: compiled blocks, part-way through its first (demand-faulting) pass.
MID_LOOP = 6_500


def _touch(addend="t0"):
    """``memtouch(TOUCH_PAGES, 6)``, with the checksum's addend open."""
    return programs._assemble(f"""
    li   s0, 6
    li   s2, 0
pass_loop:
    li   s1, 0
    li   t3, HEAP_BASE
page_loop:
    st   [t3+0], s1
    ld   t0, [t3+0]
    add  s2, s2, {addend}
    add  t3, t3, 4096
    add  s1, s1, 1
    li   t0, {TOUCH_PAGES}
    bltu s1, t0, page_loop
    sub  s0, s0, 1
    bnez s0, pass_loop
    mov  a0, s2
    syscall 0
""")


def _patch(before, after):
    """``(address, bytes)`` turning image ``before`` into ``after``."""
    assert before.base == after.base and len(before.data) == len(after.data)
    differing = [k for k, (x, y) in enumerate(zip(before.data, after.data))
                 if x != y]
    lo, hi = differing[0] & ~3, (differing[-1] | 3) + 1
    return before.base + lo, after.data[lo:hi]


def _mid_loop(label, jit, hv=None, name="vm"):
    hv, vm = _create(label, jit, name=name, hv=hv)
    _load(hv, vm, label, _touch())
    assert hv.run(vm, max_guest_instructions=MID_LOOP) \
        is RunOutcome.INSTR_LIMIT
    return hv, vm


def _finish(hv, vm):
    assert hv.run(vm, max_guest_instructions=2_000_000) is RunOutcome.SHUTDOWN
    return _state(vm)


def _gfn_of(vm, va):
    """Walk the guest's own page tables (None if ``va`` is unmapped)."""
    vcpu = vm.vcpus[0]
    root = vcpu.csr[CSR.PTBR] & ~0xFFF
    read = vm.guest_mem.read_u32
    pde = read(root + (va >> 22) * 4)
    if not pde & 1:
        return None
    pte = read((pde & ~0xFFF) + ((va >> 12) & 0x3FF) * 4)
    return pte >> 12 if pte & 1 else None


LIFECYCLE_ROWS = ["trap-emulate", "hw+shadow", "hw+nested", "hw+hmode"]


class _OrderedLog(set):
    """A ``vm.dirty_log`` that also records the order of its adds."""

    def __init__(self):
        super().__init__()
        self.order = []

    def add(self, gfn):
        self.order.append(gfn)
        super().add(gfn)


@pytest.mark.parametrize("label", LIFECYCLE_ROWS)
def test_write_protect_round_under_a_store_inline_cache(label):
    # A pre-copy round write-protects pages the guest is storing to; the
    # store site's inline cache must miss and take the dirty-log exit.
    states = []
    for jit in (False, True):
        hv, vm = _mid_loop(label, jit)
        vm.dirty_log = _OrderedLog()
        mmu = vm.vcpus[0].cpu.mmu
        mmu.write_protect_gfns(set(vm.guest_mem.map))
        state = _finish(hv, vm)
        state["dirtied"] = vm.dirty_log.order
        states.append(state)
    assert len(states[0]["dirtied"]) > 8
    _assert_same(*states, what=label)


@pytest.mark.parametrize("victim", ["code", "data"])
@pytest.mark.parametrize("label", ["hw+shadow", "hw+nested", "hw+hmode"])
def test_swap_out_of_a_frame_in_use(label, victim):
    # drop_gfns (swap, balloon, COW break) takes a frame away: the one
    # holding the hot block, or the ones behind the load and store
    # inline caches. They come back at other host frames.
    states = []
    for jit in (False, True):
        hv, vm = _mid_loop(label, jit)
        swap = HostSwap(hv)
        swap.install(vm)
        if victim == "code":
            gfns = [_gfn_of(vm, GuestLayout.USER_BASE)]
        else:
            gfns = [_gfn_of(vm, GuestLayout.HEAP_BASE + 4096 * page)
                    for page in range(TOUCH_PAGES)]
            gfns = [gfn for gfn in gfns if gfn is not None]  # touched so far
        assert gfns
        before = [vm.guest_mem.map[g] for g in gfns]
        for gfn in gfns:
            swap.swap_out(vm, gfn)
        hv.allocator.alloc()  # so no frame is handed straight back
        state = _finish(hv, vm)
        state["swap_ins"] = swap.swap_ins
        assert [vm.guest_mem.map[g] for g in gfns] != before
        states.append(state)
    assert states[0]["swap_ins"] == len(gfns)
    _assert_same(*states, what=f"{label}/{victim}")


@pytest.mark.parametrize("label", ["hw+nested", "hw+hmode"])
def test_page_sharing_and_cow_break_mid_loop(label):
    # (Shadow paging's drop_gfns is the swap test's: a whole-guest scan
    # under it sweeps every shadow space once per merged page.)
    states = []
    for jit in (False, True):
        hv = Hypervisor(memory_bytes=2 * HOST_PER_GUEST)
        _hv, vm = _mid_loop(label, jit, hv=hv)
        _hv, twin = _mid_loop(label, jit, hv=hv, name="twin")
        sharer = PageSharer(hv)
        merged = sharer.scan().pages_merged
        state = _finish(hv, vm)
        state["twin"] = _finish(hv, twin)
        state["merged"], state["cow"] = merged, sharer.cow_breaks
        states.append(state)
    assert states[0]["merged"] > 0 and states[0]["cow"] > 0
    _assert_same(*states, what=label)


@pytest.mark.parametrize("label", LIFECYCLE_ROWS)
def test_snapshot_restore_mid_loop(label):
    states = []
    for jit in (False, True):
        hv, vm = _mid_loop(label, jit)
        snap = snapshot_vm(vm)
        hv.run(vm, max_guest_instructions=1_000)  # the original runs on a bit
        hv.destroy_vm(vm)
        restored = restore_vm(hv, snap)
        restored.vcpus[0].cpu.jit_enabled = jit
        states.append(_finish(hv, restored))
    _assert_same(*states, what=label)


@pytest.mark.parametrize("label", ["hw+shadow", "hw+nested", "hw+hmode"])
def test_live_migration_mid_loop(label):
    states = []
    for jit in (False, True):
        src, vm = _mid_loop(label, jit)
        dst = Hypervisor(memory_bytes=HOST_PER_GUEST)
        create_vm = dst.create_vm

        def create(config, _create_vm=create_vm, _jit=jit):
            made = _create_vm(config)
            made.vcpus[0].cpu.jit_enabled = _jit
            return made

        dst.create_vm = create
        result = LiveMigrator(src, dst).migrate(
            vm, quantum_instructions=400, max_rounds=5, threshold_pages=2)
        state = _finish(dst, result.dest_vm)
        state["rounds"] = (result.rounds, result.round_sizes,
                           result.pages_copied, result.downtime_cycles)
        state["source"] = _state(vm)
        states.append(state)
    assert states[0]["rounds"][0] > 1
    _assert_same(*states, what=label)


# Code overwritten behind the vCPU's back, each time under a hot block.


def _port_loop_patch():
    """Make the port loop count down by two: it ends sooner."""
    return _patch(port_loop(), Assembler().assemble(
        port_loop_source().replace("sub  s0, s0, 1", "sub  s0, s0, 2")))


@pytest.mark.parametrize("label", ROW_IDS)
def test_code_overwritten_by_device_dma(label):
    # What a virtio-blk read completion does: the device model writes
    # guest memory through GuestMemory, not through the vCPU.
    gpa, new_bytes = _port_loop_patch()
    states = []
    for jit in (False, True):
        hv, vm = _create(label, jit)
        _load(hv, vm, label, "port_loop")
        assert hv.run(vm, max_guest_instructions=31) is RunOutcome.INSTR_LIMIT
        vm.guest_mem.write_bytes(gpa, new_bytes)
        states.append(_finish(hv, vm))
    assert 10 < len(states[0]["console"]) < PORT_LOOP_WRITES
    _assert_same(*states, what=label)


@pytest.mark.parametrize("edge", [31, 32, 38])
def test_code_overwritten_between_runs_is_fetched_next(edge):
    # A run stopped before a loop iteration, or after its OUT (the
    # translator then carries the rest of the block into the next run),
    # and the loop's decrement patched while the count is even: the new
    # code runs from the next fetch on, as on hw-nested, which fetches
    # every instruction.
    gpa, new_bytes = _port_loop_patch()
    states = []
    for label in ("hw+nested", "bin-transl"):
        hv, vm = _create(label, True)
        _load(hv, vm, label, "port_loop")
        assert hv.run(vm, max_guest_instructions=edge) is RunOutcome.INSTR_LIMIT
        vm.guest_mem.write_bytes(gpa, new_bytes)
        state = _finish(hv, vm)
        states.append({k: state[k] for k in ("instret", "pc", "regs", "console")})
    assert states[0] == states[1]


@pytest.mark.parametrize("label", ["trap-emulate", "bin-transl", "hw+shadow"])
def test_code_overwritten_by_an_emulated_store(label):
    # emulate_guest_store finishes a trapped guest store in the monitor
    # (normally one to a write-protected page-table page). Point one at
    # the running loop: the checksum changes its addend mid-run.
    va, new_bytes = _patch(_touch(), _touch(addend="s1"))
    assert len(new_bytes) == 4
    store = jitmod.decode(
        int.from_bytes(encode(Op.ST, ra=1, rb=2, simm12=0), "little"))
    states = []
    for jit in (False, True):
        hv, vm = _mid_loop(label, jit)
        vcpu = vm.vcpus[0]
        cpu = vcpu.cpu
        saved = list(cpu.regs), cpu.pc
        cpu.regs[1], cpu.regs[2] = va, int.from_bytes(new_bytes, "little")
        emulate_guest_store(vcpu, store, vm.guest_mem, cpu.mmu)
        cpu.regs[:], cpu.pc = saved
        states.append(_finish(hv, vm))
    _assert_same(*states, what=label)
    hv, vm = _mid_loop(label, True)
    assert _finish(hv, vm)["memory"] != states[1]["memory"]  # it took effect


@pytest.mark.parametrize("label", ROW_IDS)
def test_code_overwritten_by_mmu_batch(label):
    # MMU_BATCH applies (gpa, value) pairs from guest memory. A guest
    # that lists its own hot loop rewrites it through the monitor.
    def source(step):
        return f"""
.org {GuestLayout.KERNEL_BASE:#x}
start:
    li   s0, 90
    li   s1, 0
    li   s2, 30
loop:
    add  s1, s1, {step}
    sub  s0, s0, 1
    bne  s0, s2, next
    li   a0, batch
    li   a1, 2
    vmcall 3
next:
    bnez s0, loop
    out  0x10, s1
    li   t0, 1
    out  0xf0, t0
batch:
    .word 0, 0, 0, 0
"""
    asm = Assembler()
    image = asm.assemble(source(1))
    target, new_bytes = _patch(image, asm.assemble(source(5)))
    assert len(new_bytes) <= 8
    new_bytes = new_bytes.ljust(8, b"\0")
    words = [int.from_bytes(new_bytes[k:k + 4], "little") for k in (0, 4)]
    if words[1] == 0:  # keep what follows a one-word patch
        off = target + 4 - image.base
        words[1] = int.from_bytes(image.data[off:off + 4], "little")
    batch = image.base + len(image.data) - 16
    states = []
    for jit in (False, True):
        hv, vm = _create(label, jit)
        hv.load_program(vm, image)
        for k, word in enumerate((target, words[0], target + 4, words[1])):
            vm.guest_mem.write_u32(batch + 4 * k, word)
        hv.reset_vcpu(vm, image.entry)
        states.append(_finish(hv, vm))
    assert states[0]["console"] == chr((60 * 1 + 30 * 5) & 0xFF)
    _assert_same(*states, what=label)


# -- teardown ----------------------------------------------------------------


def test_destroyed_vms_leave_no_write_watchers():
    hv = Hypervisor(memory_bytes=2 * HOST_PER_GUEST)
    _hv, keeper = _create("hw+nested", True, name="keeper", hv=hv)
    baseline = len(hv.physmem._watchers)
    assert baseline == 1
    for k in range(50):
        label = ROW_IDS[k % len(ROW_IDS)]
        _hv, vm = _create(label, True, name=f"vm{k}", hv=hv)
        _load(hv, vm, label, "port_loop")
        hv.run(vm, max_guest_instructions=50)
        hv.destroy_vm(vm)
        assert len(hv.physmem._watchers) == baseline
    assert list(hv.vms) == ["keeper"]
