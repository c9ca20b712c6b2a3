"""System-instruction conformance: tiny kernels x the eight engines.

What SYSCALL, BRK, IRET, CSRR/CSRW, STI/CLI, HLT, INVLPG and IN/OUT do
is written once (``CPUCore.system`` / ``enter_trap`` / ``leave_trap``)
and run against whichever register file holds the guest's privileged
state. This matrix holds every engine to the reference interpreter on
the corners the differential fuzzer cannot reach: CSR numbers outside
the architected sixteen, writes to read-only CSRs, a BRK with a nonzero
low field, and the two deprivileged engines the fuzzer excludes.

Each kernel runs in kernel mode with paging off, VBAR set, and one of
two vectors: ``POWEROFF`` saves ECAUSE/EVAL/EPC/ESTATUS into s0/s1/s2/fp
and powers the machine off; ``SKIP`` counts the trap in k0, steps EPC
over the (4-byte) trapping instruction and IRETs. Compared against
bare-interp: outcome, registers, the fuzzer's guest CSR view, console.

Trap-and-emulate and paravirt are *expected* to differ on the two
kernels that touch the sensitive-but-unprivileged instructions (CSRR of
MODE/IE, STI/CLI): the deprivileged guest kernel reads hardware state
and loses the write. That is the measured Popek-Goldberg violation,
asserted here as what it is rather than hidden.
"""

import pytest

from repro.core import (
    GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode,
)
from repro.cpu.assembler import Assembler
from repro.cpu.isa import CSR, Cause, MODE_USER, Op, REG_NAMES, encode
from repro.fuzz.diff import GUEST_CSRS
from repro.util.units import MIB

ENTRY = 0x1000
LIMIT = 400

#: engine -> (virt mode, mmu mode); None = a bare Machine.
ENGINES = {
    "bare-interp": None,
    "bare-compiled": None,
    "trap-emulate": (VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW),
    "paravirt": (VirtMode.PARAVIRT, MMUVirtMode.SHADOW),
    "bin-transl": (VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW),
    "hw-shadow": (VirtMode.HW_ASSIST, MMUVirtMode.SHADOW),
    "hw-nested": (VirtMode.HW_ASSIST, MMUVirtMode.NESTED),
    "hw-hmode": (VirtMode.HW_ASSIST, MMUVirtMode.HMODE),
}
DEPRIVILEGED_DIRECT = ("trap-emulate", "paravirt")

PRELUDE = """
    li a0, vec
    csrw VBAR, a0
    li a0, 0
"""
POWEROFF = """
vec:
    csrr s0, ECAUSE
    csrr s1, EVAL
    csrr s2, EPC
    csrr fp, ESTATUS
    li t3, 1
    out 0xf0, t3
    hlt
"""
SKIP = """
vec:
    add k0, k0, 1
    csrr t3, EPC
    add t3, t3, 4
    csrw EPC, t3
    iret
"""
TAIL = "    li a2, 77\n    li a3, 88\n    hlt\n"


def _word(op, **fields):
    """An encoding the assembler has no spelling for, as a ``.word``."""
    return f"    .word {int.from_bytes(encode(op, **fields), 'little'):#x}\n"


def _pad(n):
    return "    nop\n" * n


#: name -> (body, vector). PRELUDE is three instructions (five words).
KERNELS = {
    "brk-field": (_word(Op.BRK, simm12=5) + TAIL, POWEROFF),
    "csrr-range-midblock": ("    csrr a2, 100\n" + TAIL, POWEROFF),
    # 32 instructions fill a translated block: the probe is its last item.
    "csrr-range-blockend": (_pad(28) + "    csrr a2, 100\n" + TAIL, POWEROFF),
    "csrw-range-midblock": ("    li a1, 9\n    csrw 100, a1\n" + TAIL, POWEROFF),
    "csrw-range-blockend": (
        # CSR 0xFFF: the all-ones field, past the assembler's signed range.
        _pad(27) + "    li a1, 9\n" + _word(Op.CSRW, ra=2, simm12=-1) + TAIL,
        POWEROFF),
    "csrw-readonly-mode": ("    li a1, 1\n    csrw MODE, a1\n" + TAIL, POWEROFF),
    "csrw-readonly-cycles": ("    csrw CYCLES, a1\n" + TAIL, POWEROFF),
    "csrw-readonly-instret": ("    csrw INSTRET, a1\n" + TAIL, POWEROFF),
    "csrw-readonly-cpuid": ("    li a1, 3\n    csrw CPUID, a1\n" + TAIL, POWEROFF),
    "resume-after-skip": (
        "    csrr a2, 100\n    li a2, 77\n    csrw 200, a2\n"
        + _word(Op.BRK, simm12=9) + "    nop\n    li a3, 88\n    hlt\n", SKIP),
    "syscall-from-kernel": ("    syscall 7\n" + TAIL, POWEROFF),
    "iret-to-kernel-ie": ("""
    li a0, target
    csrw EPC, a0
    li a0, 2            ; prior mode kernel, IE set
    csrw ESTATUS, a0
    iret
    li a1, 66           ; skipped
target:
    li a2, 77
    hlt
""", POWEROFF),
    "csr-plain-storage": ("""
    li a0, 0x1234
    csrw SCRATCH, a0
    csrw HEDELEG, a0
    csrw 14, a0
    csrw 15, a0
    csrr a1, SCRATCH
    csrr a2, HEDELEG
    csrr a3, 14
    csrr t0, 15
    csrr t1, CPUID
    csrr t2, HIDELEG
    hlt
""", POWEROFF),
    "io-unclaimed-port": ("""
    li a0, 75           ; 'K'
    out 0x10, a0
    out 0x300, a0
    li a1, 5
    in a1, 0x300
    in a2, 0x11         ; console status
    hlt
""", POWEROFF),
    "invlpg-paging-off": (
        "    li a0, 0x5000\n    invlpg a0\n    li a1, 1\n    hlt\n", POWEROFF),
    "hlt-ie-clear": ("    li a1, 3\n    hlt\n    li a1, 4\n", POWEROFF),
    "csrr-instret": ("    nop\n    nop\n    csrr a1, INSTRET\n    hlt\n", POWEROFF),
    # The two Popek-Goldberg kernels.
    "pg-sensitive-reads": ("""
    li a0, 1
    csrw IE, a0
    csrr a1, MODE
    csrr a2, IE
    hlt
""", POWEROFF),
    "pg-sti-cli": ("""
    li a0, 0xfffffff0
    csrw IE, a0
    csrr a1, IE
    sti
    csrr a2, IE
    cli
    csrr a3, IE
    hlt
""", POWEROFF),
}
PG_KERNELS = ("pg-sensitive-reads", "pg-sti-cli")

_IMAGES = {}


def _image(kernel):
    if kernel not in _IMAGES:
        body, vector = KERNELS[kernel]
        _IMAGES[kernel] = Assembler().assemble(
            f".org {ENTRY:#x}\n" + PRELUDE + body + vector)
    return _IMAGES[kernel]


def run(engine, kernel):
    image = _image(kernel)
    modes = ENGINES[engine]
    if modes is None:
        machine = Machine(memory_bytes=1 * MIB, jit=engine == "bare-compiled")
        machine.load_program(image)
        cpu = machine.cpu
        cpu.reset(ENTRY)
        outcome = machine.run(max_instructions=LIMIT).value
        csr, console = cpu.csr, machine.console
    else:
        hv = Hypervisor(memory_bytes=4 * MIB)
        vm = hv.create_vm(GuestConfig(
            name="conf", memory_bytes=1 * MIB,
            virt_mode=modes[0], mmu_mode=modes[1]))
        hv.load_program(vm, image)
        hv.reset_vcpu(vm, ENTRY)
        outcome = hv.run(vm, max_guest_instructions=LIMIT).value
        vcpu = vm.vcpus[0]
        cpu, csr, console = vcpu.cpu, vcpu.csr, vm.devices["console"]
        assert not vcpu.incorrectness_observed  # declared, raised nowhere
    return {
        "outcome": outcome,
        "regs": list(cpu.regs),
        "csr": {c.name: csr[c] for c in GUEST_CSRS},
        "console": console.text,
    }


_REFERENCE = {}


def reference(kernel):
    if kernel not in _REFERENCE:
        _REFERENCE[kernel] = run("bare-interp", kernel)
    return _REFERENCE[kernel]


def _reg(result, name):
    return result["regs"][REG_NAMES[name]]


@pytest.mark.parametrize("engine", [e for e in ENGINES if e != "bare-interp"])
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_engine_matches_reference(kernel, engine):
    if kernel in PG_KERNELS and engine in DEPRIVILEGED_DIRECT:
        pytest.skip("Popek-Goldberg violation: see TestPopekGoldberg")
    assert run(engine, kernel) == reference(kernel)


class TestReference:
    """The oracle's own answers, so agreement cannot be agreement on
    nonsense."""

    def test_brk_delivers_zero_eval_and_epc_past_it(self):
        ref = reference("brk-field")
        assert ref["outcome"] == "shutdown"
        assert _reg(ref, "s0") == int(Cause.BREAK)
        assert _reg(ref, "s1") == 0  # not the instruction's low field
        assert _reg(ref, "s2") == ENTRY + 20 + 4
        assert (_reg(ref, "a2"), _reg(ref, "a3")) == (0, 0)

    @pytest.mark.parametrize("kernel, number", [
        ("csrr-range-midblock", 100), ("csrr-range-blockend", 100),
        ("csrw-range-midblock", 100), ("csrw-range-blockend", 4095),
        ("csrw-readonly-mode", int(CSR.MODE)),
        ("csrw-readonly-cycles", int(CSR.CYCLES)),
        ("csrw-readonly-instret", int(CSR.INSTRET)),
        ("csrw-readonly-cpuid", int(CSR.CPUID)),
    ])
    def test_illegal_csr_vectors_and_nothing_after_it_runs(self, kernel, number):
        ref = reference(kernel)
        assert ref["outcome"] == "shutdown"
        assert _reg(ref, "s0") == int(Cause.ILLEGAL)
        assert _reg(ref, "s1") == number
        assert (_reg(ref, "a2"), _reg(ref, "a3")) == (0, 0)  # TAIL never ran
        assert ref["csr"]["EPC"] == _reg(ref, "s2")  # at the probe itself

    def test_skip_vector_resumes_after_each_trap(self):
        ref = reference("resume-after-skip")
        assert ref["outcome"] == "halted"
        # BRK's EPC is already past it: that skip jumps the nop instead.
        assert (_reg(ref, "k0"), _reg(ref, "a2"), _reg(ref, "a3")) == (3, 77, 88)

    def test_syscall_and_iret(self):
        ref = reference("syscall-from-kernel")
        assert (_reg(ref, "s0"), _reg(ref, "s1")) == (int(Cause.SYSCALL), 7)
        assert _reg(ref, "s2") == ENTRY + 20 + 4
        ref = reference("iret-to-kernel-ie")
        assert ref["outcome"] == "halted"
        assert (_reg(ref, "a1"), _reg(ref, "a2")) == (0, 77)
        assert (ref["csr"]["IE"], ref["csr"]["MODE"]) == (1, 0)

    def test_storage_io_and_counters(self):
        ref = reference("csr-plain-storage")
        assert [_reg(ref, r) for r in ("a1", "a2", "a3", "t0", "t1", "t2")] \
            == [0x1234, 0x1234, 0x1234, 0x1234, 0, 0]
        ref = reference("io-unclaimed-port")
        assert ref["console"] == "K"
        assert (_reg(ref, "a1"), _reg(ref, "a2")) == (0, 1)
        assert _reg(reference("hlt-ie-clear"), "a1") == 3
        assert _reg(reference("csrr-instret"), "a1") == 6


class TestPopekGoldberg:
    """Where direct execution of a deprivileged kernel is architecturally
    wrong: VISA's sensitive instructions do not trap in user mode."""

    @pytest.mark.parametrize("engine", DEPRIVILEGED_DIRECT)
    def test_csrr_of_mode_and_ie_reads_hardware_state(self, engine):
        ref = reference("pg-sensitive-reads")
        assert (_reg(ref, "a1"), _reg(ref, "a2")) == (0, 1)
        got = run(engine, "pg-sensitive-reads")
        # Real user mode, host IE: not the kernel mode / IE = 1 the guest
        # set up -- though its *virtual* state is right.
        assert (_reg(got, "a1"), _reg(got, "a2")) == (MODE_USER, 0)
        assert got["csr"] == ref["csr"]
        assert got["outcome"] == ref["outcome"] == "halted"

    @pytest.mark.parametrize("engine", DEPRIVILEGED_DIRECT)
    def test_sti_and_cli_are_lost(self, engine):
        ref = reference("pg-sti-cli")
        # IE is plain storage to CSRW; STI/CLI set it to exactly 1 / 0.
        assert [_reg(ref, r) for r in ("a1", "a2", "a3")] == [0xFFFFFFF0, 1, 0]
        assert ref["csr"]["IE"] == 0
        got = run(engine, "pg-sti-cli")
        assert [_reg(got, r) for r in ("a1", "a2", "a3")] == [0, 0, 0]
        assert got["csr"]["IE"] == 0xFFFFFFF0  # the CLI never happened
        assert got["outcome"] == ref["outcome"] == "halted"
