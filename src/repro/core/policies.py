"""The execution-control programmings the hypervisor installs on guest cores.

Which guest events become VM exits is an immutable
:class:`~repro.cpu.exits.ExecControls` record on the core;
``Hypervisor.create_vm`` picks one of three programmings from
``(virt_mode, mmu_mode)``:

* hardware assist (:data:`HW_ASSIST_SHADOW`, :data:`HW_ASSIST_NESTED`)
  -- VT-x style. Guest privilege is tracked by the hardware; only I/O,
  VMCALL, HLT and (under shadow paging, so the VMM can maintain
  shadows) PTBR writes and INVLPG exit. Guest traps deliver natively.
* H-mode (:func:`hmode_controls`) -- hardware assist plus trap
  *delegation*. Causes whose ``hedeleg``/``hideleg`` bit is set vector
  straight into the guest kernel through the core's own
  ``deliver_trap``, so the guest-visible CSR/cycle effects are
  bit-identical to a bare machine; only non-delegated causes exit, and
  the VMM re-injects them through the same ``deliver_trap``. The masks
  are the *host's*: they live in the record (``create_vm`` delegates
  everything; the fuzzer draws narrower masks per case), while the
  guest's own HEDELEG/HIDELEG CSRs are plain storage in the core's CSR
  file as on every other engine, so a guest cannot grant itself
  delegation. Paging is never intercepted (the G-stage MMU handles
  memory virtualization in hardware).
* deprivileged (:data:`DEPRIVILEGED`) -- trap-and-emulate, binary
  translation and paravirt. The guest runs entirely in real user mode,
  so *every* trap exits to the VMM (which reflects or emulates), and
  VMCALL exits as a hypercall. Crucially, the sensitive non-trapping
  instructions (user-mode STI/CLI, CSRR of MODE/IE) have no control bit
  and silently observe host state -- the measured Popek-Goldberg
  violation. Binary translation avoids this not through the controls
  but by never executing those instructions directly (the translator
  rewrites them).
"""

from dataclasses import replace

from repro.cpu.exits import ExecControls

HW_ASSIST_NESTED = ExecControls(io=True, vmcall=True, hlt=True)
HW_ASSIST_SHADOW = replace(HW_ASSIST_NESTED, paging=True)
DEPRIVILEGED = ExecControls(vmcall=True, trap_exits=0xFFFFFFFF)


def hmode_controls(hedeleg: int, hideleg: int) -> ExecControls:
    """Hardware assist with every cause outside the two masks exiting."""
    return replace(HW_ASSIST_NESTED,
                   trap_exits=~(hedeleg | hideleg) & 0xFFFFFFFF)
