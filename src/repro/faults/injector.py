"""Deterministic fault injection: plans, sites, and the injector.

Every fault in pyvisor fires from a :class:`FaultInjector` evaluated at
a **named injection point** (a "site"): subsystems ask
``injector.fires("link.drop")`` at each fault opportunity and act on the
answer. Decisions come from per-site :class:`~repro.util.rng.DeterministicRNG`
streams forked from one seed, so a fault schedule is a pure function of
``(plan, seed)`` -- rerunning an experiment replays byte-for-byte the
same faults (assert with :meth:`FaultInjector.trace_bytes`).

Site names are validated against a central registry at plan-build time:
a :class:`FaultSpec` naming an unknown site (say, a misspelling of
``migrate.link_drop``) raises :class:`~repro.util.errors.ConfigError`
instead of silently never firing. A new injection point adds its row
to ``_KNOWN_SITES`` and to the table below.

Known sites (unplanned-but-registered sites never fire):

========================  ====================================================
``block.io_error``        emulated disk completes a command with an I/O error
``block.stuck``           emulated disk wedges: accepts commands, never
                          completes them
``virtio.ring_stuck``     virtio device ignores kicks; the ring stalls
``link.drop``             in-flight transfer dies partway (LinkError)
``link.degrade``          transfer runs at a fraction of link bandwidth
``link.partition``        link goes down for ``partition_ticks``
``migration.xfer_drop``   migration stream breaks mid-batch (retry/backoff)
``migration.page_corrupt``page corrupted in flight; checksum verify catches it
``migrate.link_drop``     DES pre-copy model: a round's transfer attempt dies
                          partway (backoff-resend, giveup past the budget)
``migrate.round_stall``   DES pre-copy model / live migrator: a copy round
                          stalls; the stall time dirties pages
``host.crash``            whole cluster host fails (recovered by failover;
                          the ResilienceController polls it *between*
                          evacuation moves, so failovers can cascade)
``vcpu.stall``            hypervisor-layer wedge: the vCPU stops retiring
                          instructions (detected by the guest-progress
                          watchdog, recovered by micro-reboot)
``overcommit.scan_stall`` pressure controller's periodic page-sharing scan
                          stalls this tick (skipped; reclaim falls behind
                          until the next scheduled scan)
``overcommit.balloon_refuse``  a guest balloon driver refuses the inflate
                          request this tick; the controller retries next
                          tick and leans on swap in the meantime
``irq.lost``              a PIC line raise is dropped on the wire: no
                          pending bit latches, the CPU never sees it
``irq.spurious``          the PIC asserts a device cause with no pending
                          line behind it; the handler's status read comes
                          back empty
``irq.storm``             a fired schedule event re-queues itself at the
                          next few consecutive retire edges (interrupt
                          storm on that line)
``irq.delayed``           a due schedule event is pushed back a drawn
                          number of retire edges before firing
``hmode.gstage_stall``    a hardware two-stage walk stalls: extra cycles
                          charged on one combined-TLB miss
========================  ====================================================
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.util.errors import ConfigError
from repro.util.rng import DeterministicRNG

_MASK64 = (1 << 64) - 1


#: The central site registry: every site the tree defines.
_KNOWN_SITES: Dict[str, str] = {
    "block.io_error": "emulated disk completes a command with an I/O error",
    "block.stuck": "emulated disk wedges: commands never complete",
    "virtio.ring_stuck": "virtio device ignores kicks: the ring stalls",
    "link.drop": "in-flight transfer dies partway",
    "link.degrade": "transfer runs at a fraction of link bandwidth",
    "link.partition": "link goes down for partition_ticks",
    "migration.xfer_drop": "migration stream breaks mid-batch",
    "migration.page_corrupt": "page corrupted in flight",
    "migrate.link_drop": "DES pre-copy model: round transfer dies partway",
    "migrate.round_stall": "DES pre-copy model: a copy round stalls",
    "host.crash": "whole cluster host fails",
    "vcpu.stall": "vCPU stops retiring instructions",
    "overcommit.scan_stall": "page-sharing scan stalls this tick",
    "overcommit.balloon_refuse": "guest balloon driver refuses an inflate",
    "irq.lost": "PIC line raise dropped: no pending bit, CPU never sees it",
    "irq.spurious": "PIC asserts a device cause with no pending line behind it",
    "irq.storm": "schedule event re-queues at the next consecutive retire edges",
    "irq.delayed": "due schedule event pushed back a drawn number of edges",
    "hmode.gstage_stall": "hardware two-stage walk stalls on a TLB miss",
}


def site_catalog() -> Tuple[Tuple[str, str], ...]:
    """Every registered site as ``(name, description)``, sorted by name.

    The ``repro faults --list`` CLI renders this so fault schedules can
    be authored without grepping the tree for injection points.
    """
    return tuple(sorted(_KNOWN_SITES.items()))


def _site_salt(site: str) -> int:
    """FNV-1a over the site name: a stable, process-independent salt.

    Python's builtin ``hash`` is randomized per process, which would
    destroy cross-run reproducibility of the per-site RNG forks.
    """
    h = 0xCBF29CE484222325
    for b in site.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


@dataclass(frozen=True)
class FaultSpec:
    """One site's fault behaviour.

    ``rate`` is the Bernoulli firing probability per opportunity;
    ``after`` opportunities are skipped first, and at most ``count``
    firings happen (None = unlimited). ``rate=1.0, after=K, count=1``
    pins exactly one fault at the (K+1)-th opportunity -- the idiom the
    acceptance tests use to place faults deterministically.
    """

    site: str
    rate: float = 0.0
    count: Optional[int] = None
    after: int = 0

    def validate(self) -> None:
        if not self.site:
            raise ConfigError("fault site name must be non-empty")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate {self.rate} outside [0, 1]")
        if self.count is not None and self.count < 0:
            raise ConfigError("fault count must be non-negative")
        if self.after < 0:
            raise ConfigError("fault 'after' must be non-negative")
        if self.site not in _KNOWN_SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; registered sites: "
                f"{', '.join(sorted(_KNOWN_SITES))}"
            )


@dataclass
class FaultPlan:
    """A seed plus one :class:`FaultSpec` per site."""

    seed: int = 1
    specs: List[FaultSpec] = field(kw_only=True)

    def validate(self) -> None:
        seen = set()
        for spec in self.specs:
            spec.validate()
            if spec.site in seen:
                raise ConfigError(f"duplicate fault spec for site {spec.site!r}")
            seen.add(spec.site)

    @classmethod
    def from_rates(cls, seed: int, rates: Dict[str, float]) -> "FaultPlan":
        """Convenience: uniform Bernoulli specs from a site -> rate map."""
        return cls(seed=seed,
                   specs=[FaultSpec(site, rate) for site, rate in rates.items()])

    def for_shard(self, shard_index: int) -> "FaultPlan":
        """The same plan with a shard-private derived seed.

        Sharded runs give every shard its own injector so fault
        schedules are a pure function of ``(plan, shard)`` -- one
        shard's fault opportunities never perturb another's stream,
        and results are independent of worker scheduling (the same
        discipline as the fuzz campaign's per-worker RNGs). The seed
        derivation goes through :meth:`DeterministicRNG.fork` so
        nearby shard indices still get unrelated streams.
        """
        if shard_index < 0:
            raise ConfigError("shard_index must be non-negative")
        return FaultPlan(
            seed=DeterministicRNG(self.seed).fork_seed(shard_index),
            specs=list(self.specs),
        )


class _SiteState:
    __slots__ = ("spec", "rng", "opportunities", "fired", "counter")

    def __init__(self, spec: FaultSpec, rng: DeterministicRNG):
        self.spec = spec
        self.rng = rng
        self.opportunities = 0
        self.fired = 0
        self.counter = None  # bound by the injector


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at named injection points.

    Each site draws from its own forked RNG stream, so adding
    opportunities at one site never perturbs another's schedule. Every
    decision is appended to :attr:`trace`; :meth:`trace_bytes`
    serializes it for byte-for-byte reproducibility assertions.
    """

    def __init__(self, plan: FaultPlan, metrics=None):
        plan.validate()
        self.plan = plan
        #: ``faults.*`` scope: each firing counts under
        #: ``faults.injected.<site>`` plus the ``faults.injected.total``
        #: roll-up the run manifest always reports.
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry().scope("faults"))
        self._total = self.metrics.counter("injected.total")
        root = DeterministicRNG(plan.seed)
        self._sites: Dict[str, _SiteState] = {
            spec.site: _SiteState(spec, root.fork(_site_salt(spec.site)))
            for spec in plan.specs
        }
        for site, state in self._sites.items():
            state.counter = self.metrics.counter(f"injected.{site}")
        #: Every decision taken: (site, opportunity index, fired).
        self.trace: List[Tuple[str, int, bool]] = []

    def plans(self, site: str) -> bool:
        """True when the plan has a spec for ``site`` (it can ever fire)."""
        return site in self._sites

    def fires(self, site: str) -> bool:
        """Record one opportunity at ``site``; True when the fault fires."""
        state = self._sites.get(site)
        if state is None:
            return False  # unplanned site: never fires, never draws
        index = state.opportunities
        state.opportunities += 1
        fired = False
        if index >= state.spec.after and (
            state.spec.count is None or state.fired < state.spec.count
        ):
            fired = state.rng.random() < state.spec.rate
        if fired:
            state.fired += 1
            state.counter.inc()
            self._total.inc()
        self.trace.append((site, index, fired))
        return fired

    def uniform(self, site: str) -> float:
        """Auxiliary deterministic draw for fault magnitude at ``site``."""
        state = self._sites.get(site)
        if state is None:
            return 0.0
        return state.rng.random()

    def opportunities(self, site: str) -> int:
        state = self._sites.get(site)
        return state.opportunities if state is not None else 0

    def fired(self, site: str) -> int:
        state = self._sites.get(site)
        return state.fired if state is not None else 0

    def trace_bytes(self) -> bytes:
        """The decision log, serialized deterministically."""
        lines = [
            f"{site} {index} {int(fired)}" for site, index, fired in self.trace
        ]
        return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""

    def __repr__(self) -> str:
        fired = sum(1 for _s, _i, f in self.trace if f)
        return (f"<FaultInjector seed={self.plan.seed} sites={len(self._sites)} "
                f"decisions={len(self.trace)} fired={fired}>")
