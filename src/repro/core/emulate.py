"""In-monitor emulation of guest privileged instructions.

Shared by the trap-and-emulate exit handler (after a PRIV exit) and the
binary translator (as inline callouts): decode-and-execute one guest
privileged instruction against the vCPU's *virtual* state.
"""

from repro.cpu.interp import TrapInfo
from repro.cpu.isa import CSR, Cause, Instruction, Op, READONLY_CSRS
from repro.mem.paging import AccessType
from repro.util.errors import GuestError
from repro.util.units import PAGE_SHIFT

#: Virtual CSRs an emulated CSRR/CSRW accesses (everything else reads
#: through to the core: CYCLES, INSTRET, CPUID are shared with the host).
_VIRTUAL_CSRS = frozenset(
    {
        int(CSR.MODE),
        int(CSR.IE),
        int(CSR.PTBR),
        int(CSR.VBAR),
        int(CSR.EPC),
        int(CSR.ECAUSE),
        int(CSR.EVAL),
        int(CSR.SCRATCH),
        int(CSR.ESTATUS),
    }
)


def emulate_privileged(vcpu, ins: Instruction, port_bus=None) -> str:
    """Apply one privileged/sensitive guest instruction to virtual state.

    Returns a short mnemonic for exit accounting. Advances the guest pc
    unless the instruction is itself a control transfer (IRET).
    """
    cpu = vcpu.cpu
    vcsr = vcpu.vcsr
    op = ins.op

    if op is Op.CSRR:
        csr = ins.simm12 & 0xFFF
        if csr in _VIRTUAL_CSRS:
            value = vcsr[csr]
        elif csr == CSR.CYCLES:
            value = cpu.cycles & 0xFFFFFFFF
        elif csr == CSR.INSTRET:
            value = cpu.instret & 0xFFFFFFFF
        elif csr == CSR.CPUID:
            value = cpu.csr[CSR.CPUID]
        elif csr < len(vcsr):
            # Architecturally-unassigned-but-in-range CSRs are guest
            # scratch on bare hardware; keep them in virtual state.
            value = vcsr[csr]
        else:
            # Native semantics: ILLEGAL trap into the *guest*, not a
            # host error -- guests probing CSR space must behave the
            # same under every virtualization mode.
            vcpu.reflect_trap(TrapInfo(Cause.ILLEGAL, csr, epc=cpu.pc))
            return "illegal_csr"
        cpu.write_reg(ins.rd, value)
        cpu.pc = (cpu.pc + ins.length) & 0xFFFFFFFF
        return "csrr"

    if op is Op.CSRW:
        csr = ins.simm12 & 0xFFF
        value = cpu.regs[ins.ra]
        if csr in READONLY_CSRS or csr >= len(vcsr):
            vcpu.reflect_trap(TrapInfo(Cause.ILLEGAL, csr, epc=cpu.pc))
            return "illegal_csr"
        vcsr[csr] = value & 0xFFFFFFFF
        if csr == CSR.PTBR:
            cpu.mmu.set_root(value)
        cpu.pc = (cpu.pc + ins.length) & 0xFFFFFFFF
        return "csrw"

    if op is Op.IRET:
        vcpu.emulate_iret()
        return "iret"

    if op is Op.HLT:
        vcpu.halted = True
        cpu.pc = (cpu.pc + ins.length) & 0xFFFFFFFF
        return "hlt"

    if op is Op.STI or op is Op.CLI:
        vcsr[CSR.IE] = 1 if op is Op.STI else 0
        cpu.pc = (cpu.pc + ins.length) & 0xFFFFFFFF
        return "sti" if op is Op.STI else "cli"

    if op is Op.INVLPG:
        cpu.mmu.invlpg(cpu.regs[ins.ra])
        cpu.pc = (cpu.pc + ins.length) & 0xFFFFFFFF
        return "invlpg"

    if op is Op.OUT:
        if port_bus is None:
            raise GuestError("guest OUT with no virtual port bus")
        port_bus.io_out(ins.simm12 & 0xFFF, cpu.regs[ins.ra])
        cpu.pc = (cpu.pc + ins.length) & 0xFFFFFFFF
        return "out"

    if op is Op.IN:
        if port_bus is None:
            raise GuestError("guest IN with no virtual port bus")
        cpu.write_reg(ins.rd, port_bus.io_in(ins.simm12 & 0xFFF))
        cpu.pc = (cpu.pc + ins.length) & 0xFFFFFFFF
        return "in"

    raise GuestError(f"cannot emulate {op.name} (pc={cpu.pc:#x})")


def emulate_guest_store(vcpu, ins: Instruction, guest_mem, shadow) -> int:
    """Emulate a trapped guest store to a write-protected PT page.

    Performs the store in guest-physical memory, tells the shadow MMU to
    invalidate the affected entries, and advances the pc. Returns the
    written guest-physical address.
    """
    cpu = vcpu.cpu
    if ins.op not in (Op.ST, Op.STB):
        raise GuestError(
            f"PT write trap on non-store instruction {ins.op.name} "
            f"at pc={cpu.pc:#x}"
        )
    va = (cpu.regs[ins.ra] + ins.simm12) & 0xFFFFFFFF
    walk = shadow._guest_walk(va, AccessType.WRITE)
    gpa = (walk.gfn << PAGE_SHIFT) | (va & 0xFFF)
    if ins.op is Op.ST:
        guest_mem.write_u32(gpa, cpu.regs[ins.rb])
    else:
        guest_mem.write_u8(gpa, cpu.regs[ins.rb] & 0xFF)
    shadow.handle_guest_pt_write(gpa)
    cpu.pc = (cpu.pc + ins.length) & 0xFFFFFFFF
    # The trapped store retires here (the faulting attempt rolled its
    # increment back before exiting), keeping instret honest vs. a
    # config where the same store runs unintercepted.
    cpu.instret += 1
    return gpa
