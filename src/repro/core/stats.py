"""Exit and runtime accounting -- the raw data behind experiment E1.

Since the ``repro.obs`` refactor these structs no longer own their
storage: every count lives in the run's :class:`MetricsRegistry` under
the VM's scope (``vm.<name>.exits.<reason>``, ``vm.<name>.vmm_cycles``,
...). :class:`ExitStats` and :class:`VMStats` are thin views that keep
the original public API -- ``record``, the ``counts`` Counter, plain
``int`` attributes -- byte-for-byte compatible while making the same
numbers visible to cross-layer tooling and run manifests.
"""

from collections import Counter
from typing import Dict, Tuple

from repro.cpu.exits import ExitReason
from repro.obs.registry import MetricsScope, counter_attr
from repro.obs.registry import Counter as ObsCounter

_EXITS = "exits."
_EXIT_CYCLES = "exit_cycles."


class ExitStats:
    """Per-reason exit counts and the cycles the VMM spent on them."""

    def __init__(self, metrics: MetricsScope):
        self.metrics = metrics
        # Hot path: one dict hit per recorded exit -- no registry walk,
        # and the "reason:detail" name is built once per distinct pair.
        # Keyed by the reason's value: an Enum member hashes in Python.
        self._pairs: Dict[Tuple[str, str], Tuple[ObsCounter, ObsCounter]] = {}

    def _pair(self, key: str) -> Tuple[ObsCounter, ObsCounter]:
        return (self.metrics.counter(_EXITS + key),
                self.metrics.counter(_EXIT_CYCLES + key))

    def record(self, reason: ExitReason, cycles: int, detail: str = "") -> None:
        value = reason._value_
        pair = self._pairs.get((value, detail))
        if pair is None:
            pair = self._pairs[value, detail] = self._pair(
                f"{value}:{detail}" if detail else value)
        count, spent = pair
        count.value += 1
        spent.value += cycles

    @property
    def counts(self) -> Counter:
        return Counter(self.metrics.values(_EXITS))

    @property
    def total_exits(self) -> int:
        return sum(self.counts.values())


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

    def __init__(self, metrics: MetricsScope):
        self.metrics = metrics
