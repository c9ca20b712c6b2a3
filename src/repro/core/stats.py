"""Exit and runtime accounting -- the raw data behind experiment E1.

Since the ``repro.obs`` refactor these structs no longer own their
storage: every count lives in the run's :class:`MetricsRegistry` under
the VM's scope (``vm.<name>.exits.<reason>``, ``vm.<name>.vmm_cycles``,
...). :class:`ExitStats` and :class:`VMStats` are thin views that keep
the original public API -- ``record``, ``counts``/``cycles`` Counters,
plain ``int`` attributes -- byte-for-byte compatible while making the
same numbers visible to cross-layer tooling and run manifests.
"""

from collections import Counter
from typing import Dict, Optional, Tuple

from repro.cpu.exits import ExitReason
from repro.obs.registry import MetricsRegistry, MetricsScope, counter_attr
from repro.obs.registry import Counter as ObsCounter

_EXITS = "exits."
_EXIT_CYCLES = "exit_cycles."


def _private_scope() -> MetricsScope:
    """Standalone stats (no hypervisor) get their own tiny registry."""
    return MetricsRegistry().scope("vm")


class ExitStats:
    """Per-reason exit counts and the cycles the VMM spent on them."""

    def __init__(self, metrics: Optional[MetricsScope] = None):
        self.metrics = metrics if metrics is not None else _private_scope()
        # Hot path: one dict hit per recorded exit -- no registry walk,
        # and the "reason:detail" name is built once per distinct pair.
        self._pairs: Dict[Tuple[ExitReason, str],
                          Tuple[ObsCounter, ObsCounter]] = {}

    def _pair(self, key: str) -> Tuple[ObsCounter, ObsCounter]:
        return (self.metrics.counter(_EXITS + key),
                self.metrics.counter(_EXIT_CYCLES + key))

    def record(self, reason: ExitReason, cycles: int, detail: str = "") -> None:
        pair = self._pairs.get((reason, detail))
        if pair is None:
            pair = self._pairs[reason, detail] = self._pair(
                f"{reason.value}:{detail}" if detail else reason.value)
        count, spent = pair
        count.value += 1
        spent.value += cycles

    @property
    def counts(self) -> Counter:
        return Counter(self.metrics.values(_EXITS))

    @property
    def cycles(self) -> Counter:
        return Counter(self.metrics.values(_EXIT_CYCLES))

    @property
    def total_exits(self) -> int:
        return sum(self.counts.values())

    @property
    def total_cycles(self) -> int:
        return sum(self.cycles.values())

    def by_reason(self) -> Dict[str, int]:
        return dict(self.counts)

    def merge(self, other: "ExitStats") -> None:
        for key, value in other.counts.items():
            self._pair(key)[0].value += value
        for key, value in other.cycles.items():
            self._pair(key)[1].value += value


class VMStats:
    """Whole-VM accounting (registry-backed ``int`` attributes)."""

    guest_instructions = counter_attr()
    guest_cycles = counter_attr()  # cycles spent executing guest code
    vmm_cycles = counter_attr()  # cycles spent in the VMM (exits, fills, emulation)
    world_switches = counter_attr()
    hypercalls = counter_attr()
    reflected_traps = counter_attr()
    injected_irqs = counter_attr()
    shadow_fills = counter_attr()
    shadow_pt_writes = counter_attr()
    ept_violations = counter_attr()
    bt_translated_instructions = counter_attr()
    bt_callouts = counter_attr()
    bt_block_hits = counter_attr()
    bt_block_misses = counter_attr()
    bt_chained = counter_attr()

    def __init__(self, metrics: Optional[MetricsScope] = None):
        self.metrics = metrics if metrics is not None else _private_scope()

    @property
    def total_cycles(self) -> int:
        return self.guest_cycles + self.vmm_cycles

    @property
    def overhead_ratio(self) -> float:
        """VMM cycles per guest cycle (0 = no virtualization tax)."""
        if self.guest_cycles == 0:
            return 0.0
        return self.vmm_cycles / self.guest_cycles
