"""A system instruction in a compiled block: parity with ``step()``.

A system instruction is a block's last item, or, for OUT and IN, an
item the block goes on after (``tests/test_port_continuation.py`` holds
each test that stops it). The block commits the boundary (cycles,
``instret``, the fetch's TLB hit and LRU touch, ``pc`` at the
instruction's own address) and then calls the same
``CPUCore.system`` / ``CPUCore.trap`` the interpreter calls. This matrix
holds that to the reference loop for every system instruction x kernel /
user mode x the controls records the hypervisor programs
(``repro.core.policies``) x what the block did before the instruction.

The machine is a bare core with paging on (so the TLB columns mean
something) and the controls installed by hand; the exit service below
stands in for a VMM. The core calls it once it has run the intercepted
instruction, so it only re-injects guest traps and lets the guest resume
where the core left it: a terminator that left ``pc`` at its block's
head would show in ``instret``.
"""

import pytest

from repro.core.policies import (
    DEPRIVILEGED,
    HW_ASSIST_NESTED,
    HW_ASSIST_SHADOW,
    hmode_controls,
)
from repro.cpu import jit as jitmod
from repro.cpu.assembler import Assembler
from repro.cpu.exits import ExitReason
from repro.cpu.interp import CPUCore
from repro.cpu.isa import (
    CSR,
    Cause,
    HEDELEG_ALL,
    HIDELEG_ALL,
    MODE_KERNEL,
    MODE_USER,
    Op,
)
from repro.cpu.mmu import BareMMU
from repro.devices.bus import PortBus
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AccessType,
    AddressSpace,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.mem.tlb import TLB
from repro.util.errors import DeviceError
from repro.util.units import MIB, PAGE_SIZE
from tests.test_system_conformance import _word

CODE = 0x1000
VEC = 0x3000
DATA = 0x8000
#: Where IRET resumes (user mode): inside the code page, past the body.
AFTER_IRET = CODE + 0x100


@pytest.fixture(autouse=True)
def compile_on_first_visit(monkeypatch):
    monkeypatch.setattr(jitmod, "HOT", 1)


#: name -> the instruction under test. a0 = 0x5A (a value to write),
#: a1 = the data page, a3 = the live page-table root.
SYSTEM_OPS = {
    "syscall": "    syscall 7\n",
    "brk": "    brk\n",
    "iret-to-user": "    iret\n",
    "hlt": "    hlt\n",
    "csrr-cycles": "    csrr a2, CYCLES\n",     # public; reads mid-block state
    "csrr-instret": "    csrr a2, INSTRET\n",
    "csrr-mode": "    csrr a2, MODE\n",         # public and sensitive
    "csrr-vbar": "    csrr a2, VBAR\n",         # private
    "csrr-range": "    csrr a2, 100\n",         # past the CSR file
    "csrw-scratch": "    csrw SCRATCH, a0\n",
    "csrw-readonly": "    csrw MODE, a0\n",
    "csrw-ptbr": "    csrw PTBR, a3\n",         # flushes the TLB, or exits
    "out": "    out 0x10, a0\n",
    "out-imm-word": _word(Op.OUT, ra=1, simm12=0x10, imm32=0),  # 8 bytes long
    "in": "    in a2, 0x20\n",
    "vmcall": "    vmcall 3\n",
    "invlpg-data": "    invlpg a1\n",
    "invlpg-own-code-page": "    invlpg s2\n",  # s2 = CODE
    "sti": "    sti\n",
    "cli": "    cli\n",
}

#: The port instructions of SYSTEM_OPS: they do not end a block.
PORT_OPS = {"out", "out-imm-word", "in"}

#: What the block does before the instruction: nothing (it is the head),
#: an ALU op, a load (the block is guarded), a store.
PRECEDED_BY = {
    "nothing": "",
    "alu": "    add s1, s1, 5\n    xor s0, s1, a0\n",
    "load": "    add s1, s1, 5\n    ld s0, [a1+8]\n",
    "store": "    st [a1+12], a0\n    add s1, s1, 5\n",
}


def _asm(org, source):
    return Assembler().assemble(f".org {org:#x}\n{source}")


#: The vector counts the trap in k0 and stops; IRET lands on the other.
FIXED = (_asm(VEC, "    add k0, k0, 1\n    hlt\n"),
         _asm(AFTER_IRET, "    li t2, 99\n    hlt\n"))


def _image(pre, body):
    return _asm(CODE, f"{pre}{body}    li t0, 77\n    add t1, t0, 1\n    hlt\n")


#: name -> the controls record a row runs under.
CONTROLS = {
    "bare": None,
    "hw-shadow": HW_ASSIST_SHADOW,
    "hw-nested": HW_ASSIST_NESTED,
    # ILLEGAL is not delegated (it exits); the rest deliver natively.
    "hmode": hmode_controls(HEDELEG_ALL & ~(1 << Cause.ILLEGAL), HIDELEG_ALL),
    "deprivileged": DEPRIVILEGED,
}


def _machine(jit, controls, mode, image, bus=None):
    pm = PhysicalMemory(1 * MIB)
    cpu = CPUCore(BareMMU(pm, CostModel()), jit=jit,
                  port_bus=bus if bus is not None else PortBus())
    cpu.mmu.tlb = TLB(8)
    cpu.reset(CODE)
    for program in (image,) + FIXED:
        program.load(pm)
    space = AddressSpace(pm, FrameAllocator(pm, reserved_frames=64))
    for page in range(16):
        space.map(page * PAGE_SIZE, page * PAGE_SIZE,
                  PTE_PRESENT | PTE_WRITABLE | PTE_USER)
    cpu.mmu.set_root(space.root_pa)
    cpu.csr[CSR.PTBR] = space.root_pa
    cpu.csr[CSR.VBAR] = VEC
    cpu.csr[CSR.EPC] = AFTER_IRET
    cpu.csr[CSR.ESTATUS] = MODE_USER | (1 << 1)  # IRET: to user, IE on
    cpu.csr[CSR.MODE] = mode
    cpu.regs[1], cpu.regs[2], cpu.regs[4] = 0x5A, DATA, space.root_pa
    cpu.regs[11] = CODE
    cpu.controls = controls
    # Warm translations, so the first fetch is a TLB hit and the block
    # at CODE is entered (a miss would hand its head to step()).
    for va, access in ((VEC, AccessType.EXEC), (DATA, AccessType.WRITE),
                       (CODE, AccessType.EXEC)):
        cpu.mmu.translate(va, access, False)
    return cpu, pm


def _run(cpu):
    """Run to a stop with a stand-in VMM; return everything observable."""
    exits = []

    def service(reason, ins, pc, arg):
        exits.append((reason, pc, ins.length if ins is not None else 0,
                      repr(arg)))
        if reason is ExitReason.TRIPLE_FAULT:
            return False
        if reason is ExitReason.GUEST_TRAP:
            cpu.deliver_trap(arg)  # re-inject
        # Anything else the core has run (a hypercall: skipped past).
        return True

    error = None
    stop = None
    try:
        stop = cpu.run(max_instructions=64, on_exit=service).stop
    except DeviceError as exc:
        error = str(exc)
    tlb = cpu.mmu.tlb
    return {
        "stop": stop,
        "error": error,
        "regs": tuple(cpu.regs),
        "csr": tuple(cpu.csr),
        "pc": cpu.pc,
        "cycles": cpu.cycles,
        "instret": cpu.instret,
        "halted": cpu.halted,
        "tlb_stats": vars(tlb.stats).copy(),
        "tlb_lru": tuple(tlb._entries.items()),
        "exits": exits,
        "bus": (cpu.port_bus.reads, cpu.port_bus.writes),
    }


def _assert_parity(controls, mode, pre, body, what, bus=None):
    image = _image(pre, body)
    outcomes = []
    for jit in (False, True):
        cpu, _pm = _machine(jit, CONTROLS[controls], mode, image,
                            bus=bus() if bus else None)
        outcomes.append(_run(cpu))
    reference, compiled = outcomes
    for key in reference:
        assert reference[key] == compiled[key], (
            f"{what}: {key} {compiled[key]!r} != interpreter's "
            f"{reference[key]!r}")
    return cpu, compiled


@pytest.mark.parametrize("mode", [MODE_KERNEL, MODE_USER], ids=["kernel", "user"])
@pytest.mark.parametrize("pre", list(PRECEDED_BY))
@pytest.mark.parametrize("controls", list(CONTROLS))
def test_terminator_matches_step(controls, pre, mode):
    for name, body in SYSTEM_OPS.items():
        cpu, out = _assert_parity(
            controls, mode, PRECEDED_BY[pre], body,
            f"{name} after {pre} under {controls}")
        # The instruction ran as the last item of the block at CODE, or,
        # port I/O, as an item the block's tail (li, add, hlt) follows
        # (was the last item too, before OUT/IN stopped ending blocks).
        n_before = PRECEDED_BY[pre].count("\n")
        tail = 3 if name in PORT_OPS else 0
        assert cpu._jit._blocks[(CODE, CODE, True)][1] == n_before + 1 + tail, name
        assert out["error"] is None


def test_the_matrix_reaches_every_outcome():
    # Not vacuous: across the rows an instruction is seen to retire
    # natively, to trap (PRIV, ILLEGAL, SYSCALL, BREAK), to be silently
    # ignored, and to leave through every exit reason a system
    # instruction can raise.
    reasons = set()
    causes = set()
    for controls in CONTROLS:
        for mode in (MODE_KERNEL, MODE_USER):
            for name, body in SYSTEM_OPS.items():
                cpu, out = _assert_parity(controls, mode, "", body, name)
                reasons.update(reason for reason, *_ in out["exits"])
                if out["csr"][CSR.ECAUSE]:
                    causes.add(Cause(out["csr"][CSR.ECAUSE]))
                if name == "sti" and controls == "bare":
                    # Kernel: IE set. User: ignored, and nothing trapped.
                    assert out["csr"][CSR.IE] == (mode == MODE_KERNEL)
                    assert out["regs"][15] == (mode == MODE_USER)  # one HLT trap
    assert reasons >= {
        ExitReason.IO_OUT, ExitReason.IO_IN, ExitReason.HLT, ExitReason.VMCALL,
        ExitReason.CSR_WRITE, ExitReason.PRIV_INSTR, ExitReason.GUEST_TRAP,
    }
    assert causes >= {Cause.PRIV, Cause.ILLEGAL, Cause.SYSCALL, Cause.BREAK}


class _RefusingBus(PortBus):
    """A bus whose every port access raises, as a failing device would."""

    def io_in(self, port):
        raise DeviceError(f"IN from unclaimed port {port:#x}")

    def io_out(self, port, value):
        raise DeviceError(f"OUT to unclaimed port {port:#x}")


@pytest.mark.parametrize("pre", list(PRECEDED_BY))
def test_exception_out_of_system_leaves_the_step_boundary(pre):
    # The bus refuses the port: DeviceError (not a VMExit) unwinds
    # out of system(), through the block and out of run(). The core is
    # left exactly where step() leaves it: the OUT fetched, charged and
    # counted, pc at it.
    for body in ("    out 0x10, a0\n", "    in a2, 0x20\n"):
        cpu, out = _assert_parity(
            "bare", MODE_KERNEL, PRECEDED_BY[pre], body, f"strict {body.strip()}",
            bus=_RefusingBus)
        assert out["error"] and "unclaimed port" in out["error"]
        assert cpu.jit_stats()["blocks_compiled"] == 1
        before = PRECEDED_BY[pre]
        assert out["pc"] == CODE + (len(_asm(CODE, before).data) if before else 0)
        assert out["instret"] == before.count("\n") + 1
