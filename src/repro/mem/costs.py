"""The platform cycle-cost model.

Every timing result in the instruction-accurate engine is a sum of these
constants. Magnitudes follow published measurements (Adams & Agesen
ASPLOS'06 for world-switch costs on early VT-x; Bhargava et al. ASPLOS'08
for 2-D page walks); the *ratios* are what the experiments depend on, and
E9 sweeps the most influential one (``vmexit_cycles``) to show the
conclusions are stable across two orders of magnitude.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Cycle costs charged by the CPU, MMU, and VMM."""

    #: Base cost of one executed instruction.
    instr_cycles: int = 1
    #: Extra cost of integer multiply.
    mul_extra_cycles: int = 2
    #: Extra cost of integer divide.
    div_extra_cycles: int = 19
    #: One physical memory reference (page-table walk step, emulated DMA).
    mem_ref_cycles: int = 30
    #: TLB lookup that hits (charged on every load/store/fetch).
    tlb_hit_cycles: int = 0
    #: Delivering a trap/interrupt to the guest kernel (mode switch,
    #: pipeline flush) -- *not* a world switch.
    trap_cycles: int = 80
    #: Returning from a trap (IRET).
    iret_cycles: int = 60
    #: Full world switch: guest -> VMM exit plus the later VMM -> guest
    #: entry. This is the headline hardware parameter; ~1000-4000 cycles
    #: on 2005-2015 hardware.
    vmexit_cycles: int = 1200
    #: A paravirtual hypercall (VMCALL) -- still a world switch but with
    #: no decode/emulation work; charged instead of vmexit_cycles.
    hypercall_cycles: int = 900
    #: VMM software work to decode and emulate one privileged instruction
    #: after an exit.
    emulate_cycles: int = 150
    #: Binary translation: one-time translation cost per guest instruction.
    bt_translate_cycles: int = 60
    #: Binary translation: in-place callout for a sensitive instruction
    #: (no world switch -- the translated code calls VMM logic directly).
    bt_callout_cycles: int = 40
    #: Per-block dispatch cost when the next translated block is *not*
    #: chained (hash lookup in the translation cache).
    bt_dispatch_cycles: int = 25
    #: Trap handling under binary translation: the monitor is resident
    #: (no hardware world switch), so intercepting a guest trap costs a
    #: software reflection, far below vmexit_cycles (Adams & Agesen).
    bt_reflect_cycles: int = 250
    #: Port I/O access to a device register (charged on IN/OUT).
    io_port_cycles: int = 120
    #: VMM cost to handle one shadow-page-table fill (tracing fault).
    shadow_fill_cycles: int = 400
    #: VMM cost to emulate one write to a write-protected guest page
    #: table under shadow paging.
    shadow_ptwrite_cycles: int = 500
    #: One G-stage page-table entry reference during a hardware
    #: two-stage walk (H-mode). Defaults to the ordinary memory
    #: reference cost; ablations model a dedicated nested-walk cache by
    #: lowering it independently of ``mem_ref_cycles``.
    gstage_ref_cycles: int = 30

    @property
    def tlb_miss_cycles(self) -> int:
        """Charge for a translate that misses: hit probe + 2-level walk.

        Kept as a derived property (not a field) so ablation overrides
        of ``tlb_hit_cycles``/``mem_ref_cycles`` stay consistent.
        """
        return self.tlb_hit_cycles + 2 * self.mem_ref_cycles

    def with_(self, **overrides) -> "CostModel":
        """Return a copy with some fields replaced (ablation helper)."""
        return replace(self, **overrides)

    def validate(self) -> None:
        """Raise ConfigError if any cost is negative."""
        from repro.util.errors import ConfigError

        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigError(f"cost {name} must be >= 0, got {value}")
