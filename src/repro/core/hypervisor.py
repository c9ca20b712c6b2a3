"""The hypervisor: VM construction, the run loop, exit handling.

One :class:`Hypervisor` owns host physical memory and any number of
VMs. :meth:`Hypervisor.run` executes a VM until it halts, shuts down,
or exhausts a budget, servicing VM exits as they arise:

* world-switch cycles are charged per exit (``vmexit_cycles``, or
  ``hypercall_cycles`` for VMCALL, or ``bt_reflect_cycles`` when the
  resident binary-translation monitor intercepts without a hardware
  world switch);
* every exit is recorded in the VM's :class:`~repro.core.stats.ExitStats`
  with its reason and handler detail -- the raw table behind E1.

The hypercall ABI (VMCALL with the number in the instruction, arguments
in a0..a3, result in a0) serves both paravirtual guests and PV drivers
inside HVM guests.
"""

import enum
from functools import lru_cache, partial
from typing import Dict, Optional, Tuple

from repro.core.bt import BTEngine
from repro.core.emulate import emulate_guest_store, emulate_privileged
from repro.core.machine import attach_board
from repro.core.modes import MMUVirtMode, VirtMode
from repro.core.policies import (
    DEPRIVILEGED, HW_ASSIST_NESTED, HW_ASSIST_SHADOW, hmode_controls,
)
from repro.core.shadow import ShadowMMU
from repro.core.stats import VMStats
from repro.core.vcpu import VCPU
from repro.core.vm import GuestConfig, GuestMemory, VirtualMachine
from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.interp import CPUCore, TrapInfo
from repro.cpu.isa import (
    CSR, Cause, HEDELEG_ALL, HIDELEG_ALL, MODE_KERNEL, MODE_USER, Instruction, Op,
)
from repro.cpu.mmu import GSTAGE_BACKED, GSTAGE_STALL_REFS, TwoStageMMU
from repro.devices.block import DiskImage
from repro.devices.console import CONSOLE_BASE
from repro.mem.costs import CostModel
from repro.mem.paging import AccessType, AddressSpace
from repro.mem.physmem import FrameAllocator, PhysicalMemory, WriteLog
from repro.obs.registry import MetricsRegistry
from repro.util.errors import ConfigError, GuestError
from repro.util.units import MIB, PAGE_SHIFT, bytes_to_pages

#: VM cycles from one beat of the pump to the next, on a grid of VM
#: time: when a watchdog or a planned ``vcpu.stall`` needs beats, each
#: grid point is a cycle stop of the core's run.
BEAT_CYCLES = 10_000

#: Without a watchdog attached, a stalled vCPU still ends the run after
#: this many consecutive beats (safety net so an instruction budget --
#: which a stalled vCPU can never spend -- does not spin forever).
STALL_HUNG_BEATS = 64


class HypercallNumbers(enum.IntEnum):
    """The hypercall ABI."""

    SET_VBAR = 1
    SET_PTBR = 2
    #: a0 = gPA of an array of (gpa, value) u32 pairs, a1 = pair count.
    #: Applies all page-table updates in one exit (Xen-style multicall).
    MMU_BATCH = 3
    SET_IE = 4
    IRET = 5
    CONSOLE_PUTC = 6
    YIELD = 7
    HALT = 8
    INVLPG = 9
    #: a0 = gfn the guest's balloon driver surrenders.
    BALLOON_GIVE = 10
    #: a0 = gfn to re-populate (balloon deflate).
    BALLOON_TAKE = 11


#: Hypercall number -> name: the exit-table detail, and what dispatch compares.
_HYPERCALL_NAMES = {int(call): call.name.lower() for call in HypercallNumbers}


class RunOutcome(enum.Enum):
    HALTED = "halted"  # guest idle with no wakeup source
    SHUTDOWN = "shutdown"  # guest requested power-off
    INSTR_LIMIT = "instr_limit"
    CYCLE_LIMIT = "cycle_limit"
    HUNG = "hung"  # no forward progress: watchdog fired (or stall limit)


#: gfn of the PV shared-info page (counted from the top of guest RAM).
def shared_info_gfn(vm: VirtualMachine) -> int:
    return vm.num_pages - 1


_SHARED_IE_OFFSET = 0


def _shared_ie_gpa(vm: VirtualMachine) -> int:
    """Where a PV guest's virtual IE lives: plain loads and stores."""
    return (shared_info_gfn(vm) << PAGE_SHIFT) + _SHARED_IE_OFFSET


#: Exit-table detail of a reflected or injected guest trap, by cause.
_CAUSE_DETAIL = {cause: cause.name.lower() for cause in Cause}

#: Named on every exit, bound once (each spelling is an enum-metaclass
#: lookup), like the counters bumped per exit (``counter_attr.bound``).
_GUEST_TRAP, _VMCALL, _PAGE_FAULT, _TRIPLE_FAULT = (
    ExitReason.GUEST_TRAP, ExitReason.VMCALL, ExitReason.PAGE_FAULT, ExitReason.TRIPLE_FAULT)
_OUT, _IN, _HLT, _CSRW, _PRIV = Op.OUT, Op.IN, Op.HLT, Op.CSRW, Cause.PRIV
_MODE, _IE, _VBAR, _PTBR, _ECAUSE, _EVAL, _EPC = map(int, (
    CSR.MODE, CSR.IE, CSR.VBAR, CSR.PTBR, CSR.ECAUSE, CSR.EVAL, CSR.EPC))
_VIRQ_PRIORITY = (Cause.IRQ_TIMER, Cause.IRQ_DEVICE)
#: What set_vbar / set_ptbr / set_ie(a0) do is the guest's own
#: instruction, run by ``CPUCore.system``: CSRW of a0 (register 1), and
#: CLI / STI for IE, which takes a0's one bit where CSRW stores the word.
_SET_CSR = {"set_vbar": Instruction(Op.CSRW, 0, 1, 0, _VBAR, 0, False, 4),
            "set_ptbr": Instruction(Op.CSRW, 0, 1, 0, _PTBR, 0, False, 4)}
_CLI_STI = (Instruction(Op.CLI, 0, 0, 0, 0, 0, False, 4),
            Instruction(Op.STI, 0, 0, 0, 0, 0, False, 4))
_HW_ASSIST, _PARAVIRT = VirtMode.HW_ASSIST, VirtMode.PARAVIRT
_READ_ACCESS, _WRITE_ACCESS = AccessType.READ, AccessType.WRITE
_world_switches, _vmm_cycles, _hypercalls = (
    VMStats.world_switches.bound, VMStats.vmm_cycles.bound, VMStats.hypercalls.bound)


@lru_cache(maxsize=None)  # one entry per port number: 12 bits
def _port_detail(port: int) -> str:
    """Exit-table detail of an intercepted IN/OUT."""
    return f"port_{port:#x}"


class Hypervisor:
    """A host machine running virtual machines."""

    def __init__(
        self,
        memory_bytes: int = 128 * MIB,
        costs: Optional[CostModel] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.costs = costs or CostModel()
        self.costs.validate()
        self.physmem = PhysicalMemory(memory_bytes)
        self.allocator = FrameAllocator(self.physmem, reserved_frames=16)
        #: The run's metrics registry; every VM gets a ``vm.<name>``
        #: scope in it, and hypervisor-level counters live under
        #: ``core.*`` / ``overcommit.*``. A private registry is made
        #: when the caller (tests, ad-hoc scripts) does not share one.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.vms: Dict[str, VirtualMachine] = {}
        #: Installed by repro.overcommit.sharing.PageSharer: the
        #: cross-subsystem shared-frame refcount protocol (swap and
        #: teardown consult it before freeing frames).
        self.sharing = None
        #: Installed by repro.overcommit.swap.HostSwap: the owner of the
        #: pages ``vm.swapped`` holds, and LRU-tracked demand backing.
        self.swap = None
        #: None, or a ``collections.deque`` (give it a ``maxlen``): every
        #: VM exit appends ``(vm time, reason, vm, detail, pc, cycles)``.
        self.trace = None
        #: Optional repro.faults.injector.FaultInjector: when set, the
        #: run loop evaluates the ``vcpu.stall`` site each beat (a hung
        #: guest: the vCPU burns cycles but retires nothing).
        self.injector = None

    # -- memory faults ----------------------------------------------------

    def _fault(self, vm: VirtualMachine, gfn: int, access) -> Tuple[str, int]:
        """One step of making ``gfn`` accessible, behind the CPU's memory
        exits and :class:`GuestMemory`'s slow path alike: (exit detail,
        what an exit for the step costs).

        A write to a write-protected gfn is logged in ``vm.dirty_log``,
        then breaks a copy-on-write share, or else is unprotected.
        Anything else is backed and mapped, by the page's owner in this
        order: a post-copy fetch (``vm.remote``), host swap's store
        (``vm.swapped``), host swap's tracked demand allocation, a
        demand-zero frame; ``core.ept_dispatch.*`` counts each.
        """
        mem = vm.guest_mem
        mmu = vm.vcpus[0].cpu.mmu
        dirty_log = vm.dirty_log
        if access is _WRITE_ACCESS and gfn in mem.write_protected and gfn in mem.map:
            if dirty_log is not None:
                dirty_log.add(gfn)  # dirty logging sees every write, COW too
            if self.sharing is not None and self.sharing.handles(vm, gfn):
                self.sharing.on_write_fault(vm, gfn)
                return "cow_break", self.costs.shadow_fill_cycles
            mmu.unprotect_gfns((gfn,))
            return "dirty_log", self.costs.emulate_cycles
        if gfn not in mem.map:
            if vm.remote is not None and vm.remote(gfn):
                name = "postcopy_fetch"
            elif gfn in vm.swapped:
                name = "swap_in"
                self.swap.swap_in(vm, gfn)
            elif self.swap is not None:
                name = "swap_demand"
                self.swap.back(vm, gfn, zero=True)
            else:
                name = "demand_zero"
                mem.map_page(gfn, self.allocator.alloc())
            self.registry.counter(f"core.ept_dispatch.{name}").inc()
            if dirty_log is not None:
                dirty_log.add(gfn)
            # Whatever re-backed the page, the balloon no longer holds it.
            vm.ballooned_gfns.discard(gfn)
        # Backed, but not in the G-stage yet (new backing, a post-copy push).
        mmu.map_gfns({gfn: mem.map[gfn]})
        return "ept_violation", self.costs.shadow_fill_cycles

    def _vmm_fault(self, vm: VirtualMachine, gfn: int, write: bool) -> None:
        """:class:`GuestMemory`'s slow path: the VMM's own access takes the
        steps of :meth:`_fault` a guest's would, each charged to
        ``vmm_cycles`` as its exit would be but recorded as no exit."""
        mem, vmm = vm.guest_mem, _vmm_cycles(vm.stats)
        while gfn not in mem.map or write and gfn in mem.write_protected:
            vmm.value += self._fault(vm, gfn, _WRITE_ACCESS if write else _READ_ACCESS)[1]

    # -- VM construction --------------------------------------------------

    def create_vm(self, config: GuestConfig) -> VirtualMachine:
        """Back a guest's memory, then build the machine on it.

        The first half is here: the guest's frames (``prealloc``) and,
        under two-stage paging, the G-stage that maps them.
        :meth:`_build_machine` is the second half, which
        :meth:`recycle_vm` re-runs over frames it kept.
        """
        config.validate()
        if config.name in self.vms:
            raise ConfigError(f"duplicate VM name {config.name!r}")
        guest_mem = GuestMemory(self.physmem, bytes_to_pages(config.memory_bytes))
        if config.prealloc:
            guest_mem.map.update(enumerate(
                self.allocator.alloc_many(guest_mem.num_pages)))
        gstage = None
        if config.mmu_mode is not MMUVirtMode.SHADOW:
            gstage = AddressSpace(self.physmem, self.allocator)
            gstage.rewrite_leaves(0, {gfn: (hfn << PAGE_SHIFT) | GSTAGE_BACKED
                                      for gfn, hfn in guest_mem.map.items()})
            gstage.checkpoint()
        return self._build_machine(config, guest_mem, gstage, {})

    def _build_machine(
        self, config: GuestConfig, guest_mem: GuestMemory,
        gstage: Optional[AddressSpace], disks: Dict[str, DiskImage],
    ) -> VirtualMachine:
        """Everything above the frames, new: MMU (TLB, shadow spaces),
        core, vCPU, PIC and devices, translator, ``vm.<name>.*``; a disk
        named in ``disks`` gets that (zeroed) image."""
        # A VM recreated under the same name (micro-reboot, snapshot
        # restore, recycling) starts its telemetry from zero, exactly
        # as the old per-VM stat structs did.
        self.registry.reset(f"vm.{config.name}.")
        vm = VirtualMachine(
            config, guest_mem, metrics=self.registry.scope(f"vm.{config.name}")
        )
        self.registry.counter("core.vms_created").inc()
        guest_mem.fault = partial(self._vmm_fault, vm)

        guest_mem.tables, guest_mem.tables_written = set(), None
        if gstage is None:
            mmu = ShadowMMU(
                self.physmem,
                self.allocator,
                guest_mem,
                self.costs,
                ring_compression=config.virt_mode is not VirtMode.HW_ASSIST,
                trap_pt_writes=config.virt_mode is not VirtMode.PARAVIRT,
            )
            guest_mem.tables = mmu.pt_gfns
            guest_mem.tables_written = mmu.tables_written
        else:
            hmode = config.mmu_mode is MMUVirtMode.HMODE
            mmu = TwoStageMMU(
                self.physmem,
                self.allocator,
                guest_mem,
                self.costs,
                hmode=hmode,
                ept=gstage,
            )
            if hmode:
                mmu.stall_fn = self._hmode_stall_cycles

        cpu = CPUCore(mmu, port_bus=vm.port_bus)
        vcpu = VCPU(vm, cpu)
        vm.vcpus.append(vcpu)

        if config.virt_mode is not VirtMode.HW_ASSIST:
            cpu.controls = DEPRIVILEGED
            cpu.virqs = vm.pending_virqs
            if isinstance(mmu, ShadowMMU):
                vcpu.on_virtual_mode_change = mmu.set_view
                mmu.set_view(kernel=True)
        elif config.mmu_mode is MMUVirtMode.HMODE:
            cpu.controls = hmode_controls(HEDELEG_ALL, HIDELEG_ALL)
            self.registry.counter("core.hmode.vms_created").inc()
        elif config.mmu_mode is MMUVirtMode.SHADOW:
            cpu.controls = HW_ASSIST_SHADOW
        else:
            cpu.controls = HW_ASSIST_NESTED

        # The board is on the VM's bus, which the core runs an
        # intercepted IN / OUT on.
        vm.pic, vm.devices = attach_board(
            cpu, guest_mem, vm, vm.metrics.scope("dev"), disks,
            config.with_emulated_io, config.with_virtio)
        self.registry.counter("devices.attached").inc(len(vm.devices))

        if config.virt_mode is VirtMode.BINARY_TRANSLATION:
            vm.bt = BTEngine(
                vcpu,
                self.costs,
                partial(self._maybe_inject, vm),
                hypercall_handler=partial(self._do_hypercall, vm),
            )
        else:
            vm.bt = None

        if config.virt_mode is VirtMode.PARAVIRT:
            # Shared info page: the guest reads/writes its virtual IE
            # here with plain loads/stores -- zero exits.
            guest_mem.write_u32(_shared_ie_gpa(vm), 0)

        self.vms[config.name] = vm
        return vm

    def _dismantle(self, vm: VirtualMachine) -> Optional[AddressSpace]:
        """Undo :meth:`_build_machine`; the guest's frames stay mapped.

        Returns the G-stage that maps them (None under shadow paging),
        which is backing, not machine: the caller frees or keeps it.
        """
        cpu = vm.vcpus[0].cpu
        # The core watches host memory for writes to its compiled and
        # translated code; the host outlives it.
        self.physmem.unwatch_writes(cpu._on_code_write)
        if isinstance(cpu.mmu, ShadowMMU):
            cpu.mmu.destroy()
            return None
        return cpu.mmu.ept

    def destroy_vm(self, vm: VirtualMachine) -> None:
        """Tear a VM down and return every host frame it held."""
        gstage = self._dismantle(vm)
        if gstage is not None:
            gstage.destroy()
        if vm.guest_mem.write_log is not None:
            vm.guest_mem.write_log.close()
        for gfn in list(vm.guest_mem.map):
            hfn = vm.guest_mem.unmap_page(gfn)
            if self.sharing is None or self.sharing.drop_mapping(vm, gfn, hfn):
                self.allocator.free(hfn)
        self.vms.pop(vm.name, None)

    def recycle_vm(self, vm: VirtualMachine) -> VirtualMachine:
        """A power-on machine on the frames ``vm`` holds; ``vm`` is gone.

        Equal to ``destroy_vm(vm)`` + ``create_vm(vm.config)`` on a
        host where that hands back the same frames, without freeing,
        reallocating and remapping them: the frames its write log saw
        written are zeroed where they are (all, on the first recycle or
        once a gfn was re-backed), a G-stage is rolled back to its
        as-built bytes, and all above them is built anew by
        :meth:`_build_machine`, so no state of the old machine can
        survive by being forgotten -- except the disk images, each
        handed to its new device zeroed where it was written.
        Refused, with ``vm`` untouched, when its frames are not this
        VM's alone to zero or are not all there.
        """
        guest_mem = vm.guest_mem
        mmu = vm.vcpus[0].cpu.mmu
        if self.vms.get(vm.name) is not vm:  # e.g. recycled once already
            why = "it is not (or no longer) a VM of this host"
        elif self.sharing is not None:
            why = "page sharing is installed on this host"
        elif vm.dirty_log is not None:
            why = "its dirty pages are being logged"
        elif not vm.config.prealloc:
            why = "it is demand-paged (prealloc=False)"
        elif len(guest_mem.map) != guest_mem.num_pages:  # balloon, swap
            why = (f"only {len(guest_mem.map)} of its {guest_mem.num_pages} "
                   "pages are backed")
        # Asked last: a rollback that succeeds has already written.
        elif isinstance(mmu, TwoStageMMU) and not mmu.ept.rollback():
            why = "the host edited its G-stage after building it"
        else:
            why = None
        if why is not None:
            raise ConfigError(f"cannot recycle VM {vm.name!r}: {why}")
        gstage = self._dismantle(vm)
        guest_mem.write_protected.clear()  # as the rolled-back G-stage
        log = guest_mem.write_log
        if log is None or log.frames != guest_mem.map:
            # The first recycle, or a gfn re-backed since (balloon, swap).
            if log is not None:
                log.close()
            log = guest_mem.write_log = WriteLog(self.physmem, guest_mem.map)
        log.zero_written()
        disks = {name: vm.devices[name].data.zero_written()
                 for name in ("block", "virtio_blk") if name in vm.devices}
        return self._build_machine(vm.config, guest_mem, gstage, disks)

    def load_program(self, vm: VirtualMachine, program) -> None:
        """Copy an assembled image into guest-physical memory."""
        vm.guest_mem.write_bytes(program.base, program.data)

    def reset_vcpu(self, vm: VirtualMachine, entry: int) -> None:
        """Architectural reset of a vCPU to begin guest boot at ``entry``.

        Under HW_ASSIST the core really starts in kernel mode. Under the
        deprivileged modes the core is pinned to real *user* mode (the
        guest kernel never gets the hardware privilege) while the vCPU's
        virtual mode starts at kernel.
        """
        vcpu = vm.vcpus[0]
        cpu = vcpu.cpu
        cpu.reset(entry)
        if vm.bt is not None:
            vm.bt.resume = None  # a reset dispatches afresh
        vcpu.halted = False
        vcpu.vcsr = [0] * 16
        vcpu.vcsr[CSR.MODE] = MODE_KERNEL
        if vm.config.virt_mode is not VirtMode.HW_ASSIST:
            cpu.set_mode(1)  # MODE_USER: the guest is deprivileged
            mmu = cpu.mmu
            if isinstance(mmu, ShadowMMU) and mmu.ring_compression:
                mmu.set_view(kernel=True)

    # -- the run loop ---------------------------------------------------------

    def run(
        self,
        vm: VirtualMachine,
        max_guest_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
        watchdog=None,
    ) -> RunOutcome:
        """Run vCPU 0 of ``vm`` until halt/shutdown/budget.

        The loop below is the *pump*, ``Machine.run``'s shape: each pass
        checks shutdown and the budgets (the core fired what was due at
        the edge it returned on), decides idle/wake (an idle VM sleeps to
        the timer's deadline, ``CPUCore.sleep``), injects a pending virq,
        then makes one ``cpu.run`` for what is left of the budgets. The
        core calls ``service`` (below) at each exit, and the guest
        resumes in place unless the pump can act on what the handler
        left (DESIGN.md "The exit path"); a fire or a tick that leaves a
        virq pending returns too. So a paravirtual guest that unmasks its
        virtual IE with a plain store to the shared-info word gets a
        pending virq at its next exit or hypercall, as a Xen guest does
        (NanoOS unmasks through the IRET and SET_IE hypercalls).

        A ``watchdog`` (:class:`~repro.faults.watchdog.GuestProgressWatchdog`)
        or a planned ``vcpu.stall`` needs beats: every ``BEAT_CYCLES`` of
        VM time is then a cycle stop too, where ``vcpu.stall`` draws and
        the watchdog sees the retired-instruction counter; a stalled
        vCPU's cycles jump to the next beat. A hang returns
        :data:`RunOutcome.HUNG`, the VM left as-is for recovery
        (:class:`~repro.faults.recovery.MicroRebooter`).
        """
        vcpu = vm.vcpus[0]
        cpu = vcpu.cpu
        start_instret = cpu.instret
        start_cycles = self._vm_time(vm)
        power = vm.devices["power"]
        vmm = VMStats.vmm_cycles.bound(vm.stats)
        beats = watchdog is not None or vcpu.stalled or (
            self.injector is not None and self.injector.plans("vcpu.stall"))
        next_beat = (start_cycles // BEAT_CYCLES + 1) * BEAT_CYCLES
        stalled_beats = 0
        stop_at = None  # the VM time the core's run stops at: budget or beat

        def service(reason, ins, pc, arg) -> bool:
            """:meth:`_exit`; may the guest resume without the pump?"""
            before = vmm.value
            self._exit(vm, vcpu, reason, ins, pc, arg)
            if vcpu.halted or cpu.halted or vm.pending_virqs:
                return False  # idle, wake, HALTED or an injection: the pump's
            if stop_at is not None:
                if cpu.cycles + vmm.value >= stop_at:
                    return False
                # VM time = core cycles + VMM cycles: what this exit
                # cost the VMM comes off the core's ceiling.
                cpu.charge_cycle_budget(vmm.value - before)
            return True

        while True:
            if power.shutdown_requested:
                return RunOutcome.SHUTDOWN
            if max_guest_instructions is not None and (
                cpu.instret - start_instret >= max_guest_instructions
            ):
                return RunOutcome.INSTR_LIMIT
            if max_cycles is not None and (
                self._vm_time(vm) - start_cycles >= max_cycles
            ):
                return RunOutcome.CYCLE_LIMIT

            if self._vm_idle(vm, vcpu) and not cpu.sleep():
                return RunOutcome.HALTED

            if vm.config.virt_mode is not VirtMode.HW_ASSIST:
                self._maybe_inject(vm, vcpu)
                if self._vm_idle(vm, vcpu):
                    continue  # injection refused (virtual IE off): idle again

            stop_at = None if max_cycles is None else start_cycles + max_cycles
            if beats:
                now = self._vm_time(vm)
                if now >= next_beat:
                    next_beat = (now // BEAT_CYCLES + 1) * BEAT_CYCLES
                    if self.injector is not None and not vcpu.stalled and (
                        self.injector.fires("vcpu.stall")
                    ):
                        vcpu.stalled = True
                    if watchdog is not None and watchdog.beat(cpu.instret):
                        return RunOutcome.HUNG
                    stalled_beats = stalled_beats + 1 if vcpu.stalled else 0
                    if watchdog is None and stalled_beats >= STALL_HUNG_BEATS:
                        return RunOutcome.HUNG
                stop_at = next_beat if stop_at is None else min(stop_at, next_beat)
                if vcpu.stalled:
                    # A hung guest: VM time passes but nothing retires.
                    cpu.cycles += max(stop_at - now, 0)
                    continue

            # Every engine intercepts HLT: a halt comes back as an exit.
            cpu.run(max_instructions=None if max_guest_instructions is None
                    else max_guest_instructions - (cpu.instret - start_instret),
                    max_cycles=None if stop_at is None else stop_at - self._vm_time(vm),
                    on_exit=service)

    def _vm_idle(self, vm: VirtualMachine, vcpu: VCPU) -> bool:
        if vm.config.virt_mode is VirtMode.HW_ASSIST:
            if (
                vcpu.cpu.halted
                and vcpu.cpu.pending_irqs
                and vcpu.cpu.csr[CSR.IE]
            ):
                return False  # core will wake on its own
            # With IE clear a pending IRQ cannot wake the core: entering
            # the guest would return HALT immediately and the pump loop
            # would spin forever. Architecturally dead, so: idle.
            return vcpu.cpu.halted or vcpu.halted
        if not (vcpu.halted or vcpu.cpu.halted):
            return False
        # A pending virq only makes the VM runnable if it can actually be
        # injected; with virtual IE clear the guest is architecturally
        # dead (mirrors the HW_ASSIST branch above).
        return not (vm.pending_virqs and self._guest_ie(vm, vcpu))

    # -- virtual interrupt injection ----------------------------------------

    def _guest_ie(self, vm: VirtualMachine, vcpu: VCPU) -> int:
        if vm.config.virt_mode is _PARAVIRT:
            return vm.guest_mem.read_u32(_shared_ie_gpa(vm))
        return vcpu.vcsr[_IE]

    def _maybe_inject(self, vm: VirtualMachine, vcpu: VCPU) -> bool:
        """Deliver one pending virq (timer before device) if the guest's
        virtual IE allows; True if it injected."""
        if not vm.pending_virqs or not self._guest_ie(vm, vcpu):
            return False
        for cause in _VIRQ_PRIORITY:
            if cause in vm.pending_virqs:
                vm.pending_virqs.discard(cause)
                if vm.bt is not None:
                    vm.bt.resume = None  # the translator dispatches afresh
                self._reflect(vm, vcpu, TrapInfo(cause, 0, vcpu.cpu.pc))
                vm.stats.injected_irqs += 1
                vcpu.halted = False
                vcpu.cpu.halted = False
                return True
        return False

    def _reflect(self, vm: VirtualMachine, vcpu: VCPU, info: TrapInfo) -> None:
        pv = vm.config.virt_mode is _PARAVIRT
        shared_gpa = (shared_info_gfn(vm) << PAGE_SHIFT) if pv else 0
        if pv:
            # The shared page is the PV source of truth for IE; sync it
            # into vcsr so ESTATUS snapshots the right prior value.
            vcpu.vcsr[_IE] = vm.guest_mem.read_u32(
                shared_gpa + _SHARED_IE_OFFSET
            )
        vcpu.reflect_trap(info)
        if pv:
            # Publish the trap block and disable events, Xen-style: the
            # guest reads cause/value/epc with plain loads (no exits).
            vm.guest_mem.write_u32(shared_gpa + _SHARED_IE_OFFSET, 0)
            vm.guest_mem.write_u32(shared_gpa + 4, vcpu.vcsr[_ECAUSE])
            vm.guest_mem.write_u32(shared_gpa + 8, vcpu.vcsr[_EVAL])
            vm.guest_mem.write_u32(shared_gpa + 12, vcpu.vcsr[_EPC])

    # -- H-mode fault hooks -------------------------------------------------

    def _hmode_stall_cycles(self) -> int:
        """``hmode.gstage_stall`` site: extra cycles on a two-stage walk.

        Models contention on the hardware nested-walk path. Timing-only:
        guest-visible architectural state is untouched.
        """
        if self.injector is not None and self.injector.fires("hmode.gstage_stall"):
            self.registry.counter("core.hmode.gstage_stalls").inc()
            return GSTAGE_STALL_REFS * self.costs.gstage_ref_cycles
        return 0

    # -- exit dispatch -----------------------------------------------------

    def _vm_time(self, vm: VirtualMachine) -> int:
        return vm.vcpus[0].cpu.cycles + vm.stats.vmm_cycles

    def _exit(self, vm: VirtualMachine, vcpu: VCPU, reason: ExitReason,
              ins, pc: int, arg) -> None:
        """The VMM's side of one exit, called or unwound: the world-switch
        charge, the reason's own code, the accounting. ``ins`` / ``pc``:
        the exiting instruction (or None) and its address; ``arg``: a
        GUEST_TRAP's trap, the :class:`VMExit` of a PAGE_FAULT or
        TRIPLE_FAULT. The core has run an intercepted system instruction
        before it gets here: what is left is the VMM's own record."""
        costs = self.costs
        counters = vm.exit_counters
        if counters is None:  # bound at the VM's first exit
            counters = vm.exit_counters = (
                _world_switches(vm.stats), _vmm_cycles(vm.stats))
        if reason is _VMCALL:
            switch = costs.hypercall_cycles
            _hypercalls(vm.stats).value += 1
        elif vm.bt is not None:
            switch = costs.bt_reflect_cycles
        else:
            switch = costs.vmexit_cycles
        counters[0].value += 1
        try:
            if reason is _GUEST_TRAP:
                detail, cycles = self._exit_guest_trap(vm, vcpu, ins, arg)
            elif reason is _VMCALL:
                detail = self._do_hypercall(
                    vm, vcpu, ins.simm12 & 0xFFF, (pc + ins.length) & 0xFFFFFFFF)
                cycles = 0
            elif reason is _PAGE_FAULT:
                detail, cycles = self._handle_memory_exit(vm, vcpu, arg)
            elif reason is _TRIPLE_FAULT:
                raise GuestError(
                    f"VM {vm.name}: triple fault (cause={arg.qual('cause')}, "
                    f"value={arg.qual('value'):#x}, pc={arg.guest_pc:#x})")
            else:  # IO_OUT, IO_IN, CSR_WRITE, PRIV_INSTR (INVLPG), HLT
                op = ins.op
                cycles = costs.emulate_cycles
                if op is _OUT or op is _IN:
                    if op is _IN:
                        # The re-fetch of the IN: a TLB probe (hits, LRU,
                        # hit cycles) every engine's numbers include.
                        vcpu.cpu.fetch(pc)
                    detail = _port_detail(ins.simm12 & 0xFFF)
                elif op is _HLT:
                    vcpu.halted = True  # the VMM's own record of the halt
                    detail, cycles = "hlt", 0
                else:
                    detail = "ptbr" if op is _CSRW else "invlpg"
        except VMExit as nested:
            # Servicing an exit can itself exit -- e.g. the emulator
            # reflects a trap into a guest whose vector is gone (triple
            # fault). One re-dispatch suffices: the only nested exit
            # reflection can produce is TRIPLE_FAULT, which is terminal.
            self._handle_exit(vm, vcpu, nested)
            return
        cycles += switch
        counters[1].value += cycles
        vm.exit_stats.record(reason, cycles, detail)
        if self.trace is not None:
            self.trace.append((self._vm_time(vm), reason.value, vm.name,
                               detail, vcpu.cpu.pc, cycles))

    def _handle_exit(self, vm: VirtualMachine, vcpu: VCPU, exit_: VMExit) -> None:
        """Service an exit that unwound: an intercepted instruction raised
        before it ran (no service was lent), so the core finishes it
        first -- a hypercall or a guest trap is the VMM's own -- and then
        :meth:`_exit` as for a call."""
        cpu = vcpu.cpu
        reason, pc, q = exit_.reason, cpu.pc, exit_.qualification
        ins = q.get("ins")
        if ins is not None and reason is not _GUEST_TRAP and reason is not _VMCALL:
            cpu.system(cpu, None, ins, ins.op, pc, (pc + ins.length) & 0xFFFFFFFF)
        self._exit(vm, vcpu, reason, ins, pc, q.get("trap", exit_))

    def _exit_guest_trap(self, vm, vcpu, ins, info: TrapInfo):
        """A GUEST_TRAP: (detail, handler cycles)."""
        costs = self.costs
        cpu = vcpu.cpu
        if vm.config.virt_mode is _HW_ASSIST:
            # H-mode: a cause the host did not delegate. Inject it
            # exactly as hardware event injection on VM entry would:
            # the core's own delivery microcode runs against real guest
            # state, so the result is bit-identical to native delegation.
            cpu.deliver_trap(info)
            self.registry.counter("core.hmode.trap_exits").inc()
            return _CAUSE_DETAIL[info.cause], costs.emulate_cycles
        if info.cause is _PRIV and vcpu.vcsr[_MODE] != MODE_USER:
            # Only the guest *kernel* (deprivileged onto real user
            # mode) gets its privileged instructions emulated. A
            # PRIV trap raised while the virtual mode is user is the
            # guest's own application touching privileged state; the
            # hardware answer is a trap into the guest kernel, so
            # reflect it -- emulating here would be a guest-level
            # privilege escalation (and diverges from HW_ASSIST).
            if ins is None:
                ins = cpu.fetch(cpu.pc)
            return emulate_privileged(vcpu, ins), costs.emulate_cycles
        self._reflect(vm, vcpu, info)
        return _CAUSE_DETAIL[info.cause], costs.trap_cycles

    def _handle_memory_exit(self, vm, vcpu, exit_):
        costs = self.costs
        kind = exit_.qual("kind")
        mmu = vcpu.cpu.mmu
        if kind == "shadow_fill":
            mmu.fill(exit_.qual("va"), exit_.qual("access"))
            VMStats.shadow_fills.bound(vm.stats).value += 1
            return "shadow_fill", costs.shadow_fill_cycles
        if kind == "pt_write":
            ins = vcpu.cpu.fetch(vcpu.cpu.pc)
            emulate_guest_store(vcpu, ins, vm.guest_mem, mmu)
            VMStats.shadow_pt_writes.bound(vm.stats).value += 1
            return "pt_write", costs.shadow_ptwrite_cycles
        if kind == "ept_violation":
            gpa = exit_.qual("gpa")
            VMStats.ept_violations.bound(vm.stats).value += 1
            if gpa >> PAGE_SHIFT >= vm.num_pages:
                raise GuestError(
                    f"VM {vm.name}: access to gPA {gpa:#x} beyond guest RAM"
                )
        elif kind != "dirty_log":
            raise GuestError(f"unknown memory exit kind {kind!r}")
        return self._fault(vm, exit_.qual("gfn"), exit_.qual("access"))

    # -- hypercalls ---------------------------------------------------------

    def _do_hypercall(self, vm: VirtualMachine, vcpu: VCPU, num: int,
                      next_pc: int) -> str:
        """Service hypercall ``num``; ``next_pc`` is the pc past the VMCALL."""
        cpu = vcpu.cpu
        a0, a1 = cpu.regs[1], cpu.regs[2]
        call = _HYPERCALL_NAMES.get(num)
        if call is None:
            cpu.write_reg(1, 0xFFFFFFFF)  # unknown hypercall: -1
            cpu.pc = next_pc
            return "unknown"
        advance = True
        # They act on the guest's privileged state: the core's own
        # under hardware assist, the vCPU's virtual state otherwise.
        if call in _SET_CSR:
            cpu.system(vcpu, None, _SET_CSR[call], _CSRW, cpu.pc, next_pc)
        elif call == "set_ie":
            ins = _CLI_STI[a0 & 1]
            cpu.system(vcpu, None, ins, ins.op, cpu.pc, next_pc)
            if vm.config.virt_mode is _PARAVIRT:  # the shared IE word follows
                vm.guest_mem.write_u32(_shared_ie_gpa(vm), a0 & 1)
        elif call == "mmu_batch":
            count = a1
            vmm = _vmm_cycles(vm.stats)
            for i in range(count):
                gpa = vm.guest_mem.read_u32(a0 + i * 8)
                value = vm.guest_mem.read_u32(a0 + i * 8 + 4)
                vm.guest_mem.write_u32(gpa, value)  # shadows: tables_written
                vmm.value += 2 * self.costs.mem_ref_cycles
            cpu.write_reg(1, count)
        elif call == "iret":
            cpu.leave_trap(cpu if vm.config.virt_mode is _HW_ASSIST else vcpu)
            if vm.config.virt_mode is _PARAVIRT:
                vm.guest_mem.write_u32(_shared_ie_gpa(vm), vcpu.vcsr[_IE])
            advance = False
        elif call == "console_putc":
            vm.devices["console"].port_write(CONSOLE_BASE, a0)
        elif call == "yield":
            pass  # scheduling hint; meaningful under the DES scheduler
        elif call == "halt":
            vcpu.halted = True
        elif call == "invlpg":
            cpu.mmu.invlpg(a0)
        elif call == "balloon_give":
            cpu.write_reg(1, 0 if self.balloon_give(vm, a0) else 0xFFFFFFFF)
        elif call == "balloon_take":
            cpu.write_reg(1, 0 if self.balloon_take(vm, a0) else 0xFFFFFFFF)
        if advance:
            cpu.pc = next_pc
        return call

    def balloon_give(self, vm: VirtualMachine, gfn: int) -> bool:
        """Balloon mechanism: surrender one backed guest frame.

        The hypercall handler and the host-side pressure controller
        (modelling a cooperating guest balloon driver) both land here.
        Shared frames route through the sharer's refcount, so a balloon
        give can never free a frame other VMs still map.
        """
        if gfn >= vm.num_pages or not vm.guest_mem.is_mapped(gfn):
            return False
        vm.vcpus[0].cpu.mmu.drop_gfns((gfn,))
        hfn = vm.guest_mem.unmap_page(gfn)
        if self.sharing is None or self.sharing.drop_mapping(vm, gfn, hfn):
            self.allocator.free(hfn)
        vm.ballooned_gfns.add(gfn)
        self.registry.counter("overcommit.balloon.inflations").inc()
        self.registry.counter("overcommit.operations").inc()
        return True

    def balloon_take(self, vm: VirtualMachine, gfn: int) -> bool:
        """Balloon deflate: re-populate a previously surrendered gfn."""
        if gfn not in vm.ballooned_gfns:
            return False
        hfn = self.allocator.alloc()
        vm.guest_mem.map_page(gfn, hfn)
        vm.ballooned_gfns.discard(gfn)
        vm.vcpus[0].cpu.mmu.map_gfns({gfn: hfn})
        self.registry.counter("overcommit.balloon.deflations").inc()
        self.registry.counter("overcommit.operations").inc()
        return True
