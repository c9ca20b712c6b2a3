"""Discrete-event migration models (the E6 curve generator).

Dirty-page behaviour uses the standard two-class writable-working-set
model: a *hot* set of ``hot_fraction * pages`` pages receives
``hot_write_fraction`` of all page writes; the rest spread over the
cold pages. The number of **unique** pages dirtied in an interval t
with class write rate w over n pages is ``n * (1 - exp(-w t / n))`` --
re-dirtying a hot page is free, which is exactly why pre-copy converges
for moderate dirty rates and blows up when the dirty rate approaches
the link's page rate (Clark et al., NSDI'05).

Pre-copy additionally models transport faults when given a
:class:`~repro.faults.injector.FaultInjector`: ``migrate.link_drop``
(stream dies mid-round; capped-exponential backoff and resend, giving
up once the :class:`~repro.faults.recovery.RetryPolicy` budget is
spent) and ``migrate.round_stall`` (a round stalls; the stall dirties
pages like any elapsed time). Without an injector the model is
bit-identical to its fault-free form.
"""

import math
from dataclasses import dataclass, field
from typing import Generator, List, Optional

from repro.faults.recovery import RetryPolicy
from repro.sim.kernel import SEC, Simulator, Timeout
from repro.sim.link import NetworkLink
from repro.util.errors import MigrationError
from repro.util.units import KIB, PAGE_SIZE


#: The hot/cold dirtying model: the share of pages in the hot set, and
#: the share of writes that land there.
HOT_FRACTION = 0.1
HOT_WRITE_FRACTION = 0.9
#: CPU and device state shipped while the guest is paused.
CPU_STATE_BYTES = 64 * KIB
#: Pre-copy stops iterating once a round dirties at most this many pages.
THRESHOLD_PAGES = 64
#: Post-copy: guest page-touch rate while degraded (first touches).
TOUCH_RATE_PPS = 20000.0


@dataclass
class MigrationConfig:
    """Workload + platform parameters for one migration."""

    vm_pages: int = 131072  # 512 MiB
    dirty_rate_pps: float = 5000.0  # page writes per second
    max_rounds: int = 30

    def validate(self) -> None:
        if self.vm_pages <= 0:
            raise MigrationError("vm_pages must be positive")
        if self.dirty_rate_pps < 0:
            raise MigrationError("dirty rate must be non-negative")


@dataclass
class MigrationResult:
    """What E6 plots."""

    technique: str
    total_time_us: int
    downtime_us: int
    pages_sent: int
    rounds: int
    #: Post-copy: remote faults taken, and how long the guest ran degraded.
    remote_faults: int = 0
    degraded_time_us: int = 0
    converged: bool = True
    round_sizes: List[int] = field(default_factory=list)
    #: Fault-injection outcomes (``migrate.link_drop`` retries under the
    #: RetryPolicy, ``migrate.round_stall`` stalls); all zero/False on a
    #: fault-free run.
    retries: int = 0
    backoff_us: int = 0
    stalls: int = 0
    stall_us: int = 0
    #: True when the retry budget was exhausted and the migration was
    #: abandoned with the guest still on the source.
    gave_up: bool = False


def unique_pages_dirtied(cfg: MigrationConfig, interval_us: int) -> int:
    """Unique pages dirtied in an interval under the hot/cold model."""
    if interval_us <= 0 or cfg.dirty_rate_pps == 0:
        return 0
    t = interval_us / SEC
    hot_pages = max(1, int(cfg.vm_pages * HOT_FRACTION))
    cold_pages = max(1, cfg.vm_pages - hot_pages)
    hot_rate = cfg.dirty_rate_pps * HOT_WRITE_FRACTION
    cold_rate = cfg.dirty_rate_pps * (1.0 - HOT_WRITE_FRACTION)
    unique_hot = hot_pages * (1.0 - math.exp(-hot_rate * t / hot_pages))
    unique_cold = cold_pages * (1.0 - math.exp(-cold_rate * t / cold_pages))
    return min(cfg.vm_pages, int(round(unique_hot + unique_cold)))


def _run(sim: Simulator, gen: Generator) -> MigrationResult:
    proc = sim.spawn(gen, name="migration")
    return sim.run_until_process(proc)


def _record(metrics, result: MigrationResult) -> None:
    """Publish one model run under ``<scope>.model.<technique>.*``."""
    if metrics is None:
        return
    scope = metrics.scope(f"model.{result.technique}")
    scope.counter("runs").inc()
    scope.counter("pages_sent").inc(result.pages_sent)
    scope.counter("rounds").inc(result.rounds)
    scope.observe("total_time_us", result.total_time_us)
    scope.observe("downtime_us", result.downtime_us)
    # Fault-path counters register only when faults actually fired, so
    # fault-free manifests keep their pre-fault schema.
    if result.retries:
        scope.counter("retries").inc(result.retries)
    if result.stalls:
        scope.counter("stalls").inc(result.stalls)
    if result.gave_up:
        scope.counter("gave_up").inc()


class _GiveUp(Exception):
    """Internal: the retry budget for one transfer is exhausted."""


def simulate_precopy(
    cfg: MigrationConfig,
    link: NetworkLink,
    metrics=None,
    injector=None,
    retry_policy: Optional[RetryPolicy] = None,
) -> MigrationResult:
    """Iterative pre-copy: rounds of (transfer, re-dirty) then stop-copy.

    Fault sites (evaluated only when an ``injector`` is supplied, so
    fault-free runs are bit-identical to the pre-fault model):

    * ``migrate.link_drop`` -- one opportunity per transfer attempt;
      a firing burns a deterministic fraction of the attempt's
      serialization time, then the migrator backs off per
      ``retry_policy`` and resends the round. Exhausting the budget
      abandons the migration (``gave_up=True``, guest stays on the
      source, no downtime is charged).
    * ``migrate.round_stall`` -- one opportunity per pre-copy round;
      a firing stalls the round (source hiccup), and the stall time
      dirties pages like any other elapsed time.
    """
    cfg.validate()
    sim = link.sim
    rp = retry_policy if retry_policy is not None else RetryPolicy()
    stats = {"retries": 0, "backoff_us": 0, "stalls": 0, "stall_us": 0}

    def attempt_transfer(nbytes):
        """Transfer with drop-retry; returns (result, wasted_us)."""
        attempt = 0
        wasted = 0
        while True:
            if injector is not None and injector.fires("migrate.link_drop"):
                burn = int(
                    link.transmission_time(nbytes)
                    * (0.25 + 0.5 * injector.uniform("migrate.link_drop"))
                )
                if burn > 0:
                    yield Timeout(burn)
                wasted += burn
                attempt += 1
                if attempt > rp.max_retries:
                    raise _GiveUp()
                stats["retries"] += 1
                backoff = rp.backoff_cycles(attempt)
                stats["backoff_us"] += backoff
                wasted += backoff
                if backoff > 0:
                    yield Timeout(backoff)
                continue
            result = yield from link.transfer(nbytes)
            return result, wasted

    def process():
        start = sim.now
        to_send = cfg.vm_pages
        pages_sent = 0
        rounds = 0
        round_sizes = []
        converged = True

        def abandoned():
            return MigrationResult(
                technique="precopy",
                total_time_us=sim.now - start,
                downtime_us=0,  # the guest never paused: it never left
                pages_sent=pages_sent,
                rounds=rounds,
                converged=False,
                round_sizes=round_sizes,
                retries=stats["retries"],
                backoff_us=stats["backoff_us"],
                stalls=stats["stalls"],
                stall_us=stats["stall_us"],
                gave_up=True,
            )

        while True:
            stalled = 0
            if injector is not None and injector.fires("migrate.round_stall"):
                stalled = int(
                    link.transmission_time(to_send * PAGE_SIZE)
                    * (0.25 + 0.5 * injector.uniform("migrate.round_stall"))
                )
                if stalled > 0:
                    yield Timeout(stalled)
                stats["stalls"] += 1
                stats["stall_us"] += stalled
            try:
                result, wasted = yield from attempt_transfer(
                    to_send * PAGE_SIZE
                )
            except _GiveUp:
                return abandoned()
            pages_sent += to_send
            rounds += 1
            round_sizes.append(to_send)
            dirtied = unique_pages_dirtied(
                cfg, result.duration + wasted + stalled
            )
            stop = dirtied <= THRESHOLD_PAGES
            if rounds >= cfg.max_rounds:
                stop = True
                converged = dirtied <= THRESHOLD_PAGES
            if stop:
                # Stop the VM, ship the residue plus the CPU state. A
                # drop here resumes the guest on the source during the
                # backoff, so only the successful attempt is downtime.
                try:
                    down, _ = yield from attempt_transfer(
                        dirtied * PAGE_SIZE + CPU_STATE_BYTES
                    )
                except _GiveUp:
                    return abandoned()
                pages_sent += dirtied
                round_sizes.append(dirtied)
                return MigrationResult(
                    technique="precopy",
                    total_time_us=sim.now - start,
                    downtime_us=down.duration,
                    pages_sent=pages_sent,
                    rounds=rounds,
                    converged=converged,
                    round_sizes=round_sizes,
                    retries=stats["retries"],
                    backoff_us=stats["backoff_us"],
                    stalls=stats["stalls"],
                    stall_us=stats["stall_us"],
                )
            to_send = dirtied

    result = _run(sim, process())
    _record(metrics, result)
    return result


def simulate_postcopy(cfg: MigrationConfig, link: NetworkLink) -> MigrationResult:
    """Post-copy: ship CPU state, resume remotely, push + demand-fetch.

    Degradation model: pages are background-pushed in (effectively)
    random order over the push window T. A first guest touch of a page
    not yet pushed takes a remote fault (round trip + one page). The
    expected number of such faults integrates first-touch arrivals
    against the push progress; hot pages (touched early and often)
    dominate. Faults are served with link priority, extending the push
    window accordingly.
    """
    cfg.validate()
    sim = link.sim

    def process():
        start = sim.now
        # Downtime: only the CPU/device state ships while paused.
        down = yield from link.transfer(CPU_STATE_BYTES)

        push_time = link.transmission_time(cfg.vm_pages * PAGE_SIZE)
        # Expected remote faults: E = sum over pages of
        # P(first touch before push arrival). With touch rate lambda_p
        # per page and uniform push arrival in [0, T]:
        #   P = (1 - (1 - exp(-l T)) / (l T))   per page.
        hot_pages = max(1, int(cfg.vm_pages * HOT_FRACTION))
        cold_pages = max(1, cfg.vm_pages - hot_pages)
        t_sec = push_time / SEC
        faults = 0.0
        for pages, share in (
            (hot_pages, HOT_WRITE_FRACTION),
            (cold_pages, 1.0 - HOT_WRITE_FRACTION),
        ):
            lam = TOUCH_RATE_PPS * share / pages  # per-page touch rate
            if lam <= 0 or t_sec <= 0:
                continue
            lt = lam * t_sec
            p_fault = 1.0 - (1.0 - math.exp(-lt)) / lt
            faults += pages * p_fault
        remote_faults = int(round(faults))

        # Fault service competes with the push stream: each remote fault
        # costs a round trip plus a page; faults extend the total window.
        fault_bytes = remote_faults * PAGE_SIZE
        fault_latency_us = remote_faults * 2 * link.latency
        result = yield from link.transfer(cfg.vm_pages * PAGE_SIZE + fault_bytes)
        degraded = result.duration + fault_latency_us
        return MigrationResult(
            technique="postcopy",
            total_time_us=sim.now - start + fault_latency_us,
            downtime_us=down.duration,
            pages_sent=cfg.vm_pages + remote_faults,
            rounds=1,
            remote_faults=remote_faults,
            degraded_time_us=degraded,
        )

    return _run(sim, process())


def simulate_stop_and_copy(cfg: MigrationConfig,
                           link: NetworkLink) -> MigrationResult:
    """The naive baseline: freeze, copy everything, resume."""
    cfg.validate()
    sim = link.sim

    def process():
        start = sim.now
        result = yield from link.transfer(
            cfg.vm_pages * PAGE_SIZE + CPU_STATE_BYTES
        )
        return MigrationResult(
            technique="stop_and_copy",
            total_time_us=sim.now - start,
            downtime_us=result.duration,
            pages_sent=cfg.vm_pages,
            rounds=1,
        )

    return _run(sim, process())
