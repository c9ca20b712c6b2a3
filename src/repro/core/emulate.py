"""In-monitor emulation of trapped guest instructions.

A deprivileged guest kernel's privileged instruction traps PRIV to the
monitor, which then does to the vCPU's *virtual* state exactly what the
hardware would have done to real state -- by running the hardware's own
routine, :meth:`~repro.cpu.interp.CPUCore.system`, with the vCPU as the
privileged-state holder and nothing intercepted. (The binary translator
calls the same routine from its callouts.) A trapped store to a
write-protected page-table page is completed here too.
"""

from repro.cpu.isa import Instruction, LAST_BRANCH_OP, OPS, Op
from repro.mem.paging import AccessType
from repro.util.errors import GuestError
from repro.util.units import PAGE_SHIFT

_ST, _WRITE = Op.ST, AccessType.WRITE  # bound once: each is an enum lookup


def emulate_privileged(vcpu, ins: Instruction) -> str:
    """Apply one privileged/sensitive guest instruction to virtual state.

    Returns the detail for exit accounting: the mnemonic, or
    ``"illegal_csr"`` when the instruction itself trapped into the guest
    (an unknown or read-only CSR; native semantics, not a host error --
    guests probing CSR space behave the same under every mode).
    """
    cpu = vcpu.cpu
    op = ins.op
    if op <= LAST_BRANCH_OP:
        raise GuestError(f"cannot emulate {op.name} (pc={cpu.pc:#x})")
    pc = cpu.pc
    if cpu.system(vcpu, None, ins, op, pc, (pc + ins.length) & 0xFFFFFFFF):
        return "illegal_csr"
    return OPS[op].mnemonic


def emulate_guest_store(vcpu, ins: Instruction, guest_mem, shadow) -> int:
    """Emulate a trapped guest store to a write-protected PT page.

    Performs the store in guest-physical memory (whose table route
    invalidates the affected shadow entries) and advances the pc.
    Returns the written guest-physical address.
    """
    cpu = vcpu.cpu
    if not ins.stores:
        raise GuestError(
            f"PT write trap on non-store instruction {ins.op.name} "
            f"at pc={cpu.pc:#x}"
        )
    va = (cpu.regs[ins.ra] + ins.simm12) & 0xFFFFFFFF
    pte = shadow.guest_walker.walk(shadow.guest_root, va, _WRITE,
                                   shadow.guest_user_mode, False)[1]
    gpa = (pte >> PAGE_SHIFT << PAGE_SHIFT) | (va & 0xFFF)
    if ins.op is _ST:
        guest_mem.write_u32(gpa, cpu.regs[ins.rb])
    else:
        guest_mem.write_u8(gpa, cpu.regs[ins.rb] & 0xFF)
    cpu.pc = (cpu.pc + ins.length) & 0xFFFFFFFF
    # The trapped store retires here (the faulting attempt rolled its
    # increment back before exiting), keeping instret honest vs. a
    # config where the same store runs unintercepted.
    cpu.instret += 1
    return gpa
