"""The hypervisor (the paper's primary contribution).

Execution modes (experiment E1 compares all of them):

* ``NATIVE`` -- no VMM; the baseline.
* ``TRAP_EMULATE`` -- classic deprivileged trap-and-emulate. Complete
  for trapping instructions, but VISA (like x86) has sensitive
  *non-trapping* instructions, so pure T&E is not a faithful virtual
  machine (Popek-Goldberg); the platform measures both the cost and the
  correctness violation.
* ``BINARY_TRANSLATION`` -- guest kernel code is translated: sensitive
  and privileged instructions become inline callouts against virtual
  CPU state (no world switch); user code runs directly. Restores
  correctness and slashes exit counts (VMware-style software VMM).
* ``PARAVIRT`` -- the guest is modified to use hypercalls and a shared
  info page; page-table updates are batched (Xen-style).
* ``HW_ASSIST`` -- the CPU tracks guest privilege natively (VT-x-style);
  only configured events exit. Combine with ``MMUVirtMode.SHADOW`` or
  ``MMUVirtMode.NESTED`` for experiment E2/E3.

Memory virtualization:

* ``SHADOW`` -- the VMM maintains shadow page tables translating guest
  VA directly to host PA, kept coherent by write-protecting guest page
  tables (or by PV hypercalls).
* ``NESTED`` -- two-dimensional walks through guest tables and an
  EPT-style second level, with the classic walk-amplification cost.
* ``HMODE`` -- the H-mode extension: an architected hardware guest mode
  with HEDELEG/HIDELEG trap delegation over the same two-stage
  translation (:class:`repro.cpu.mmu.TwoStageMMU` serves both modes).
  Combine with ``HW_ASSIST`` for the sixth engine configuration.
"""

from repro.core.modes import VirtMode, MMUVirtMode
from repro.core.stats import ExitStats, VMStats
from repro.core.vm import GuestConfig, GuestMemory, VirtualMachine
from repro.core.vcpu import VCPU
from repro.core.shadow import ShadowMMU
from repro.core.hypervisor import Hypervisor, HypercallNumbers
from repro.core.nestedvirt import (
    AliasedPhysicalMemory,
    NestedHost,
    build_nested_host,
    create_l2_vm,
    guest_ram_window,
)
from repro.core.machine import Machine
from repro.core.snapshot import VMSnapshot, restore_vm, snapshot_vm
from repro.core.schedule import ScheduleReport, VMScheduler

__all__ = [
    "VirtMode",
    "MMUVirtMode",
    "ExitStats",
    "VMStats",
    "GuestConfig",
    "GuestMemory",
    "VirtualMachine",
    "VCPU",
    "ShadowMMU",
    "Hypervisor",
    "HypercallNumbers",
    "AliasedPhysicalMemory",
    "NestedHost",
    "build_nested_host",
    "create_l2_vm",
    "guest_ram_window",
    "Machine",
    "VMSnapshot",
    "snapshot_vm",
    "restore_vm",
    "VMScheduler",
    "ScheduleReport",
]
