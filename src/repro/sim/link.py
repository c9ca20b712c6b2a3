"""Point-to-point network link model.

Live migration and cluster rebalancing move bytes over a
:class:`NetworkLink` with a fixed bandwidth and propagation latency.
Transfers serialize on the link (FIFO), which is what makes concurrent
migrations slow each other down, as on a real management network.

Fault model (driven by an optional
:class:`~repro.faults.injector.FaultInjector`):

* ``link.drop`` -- the transfer dies partway: time burns for the bytes
  already serialized, nothing is delivered, :class:`LinkError` raised;
* ``link.degrade`` -- the transfer runs at ``1/degrade_factor`` of the
  link bandwidth (congestion, a flapping NIC);
* ``link.partition`` -- the link goes down for ``partition_ticks``;
  transfers attempted while partitioned fail immediately. ``heal()``
  clears a partition early.
"""

from dataclasses import dataclass
from typing import Generator, Optional

from repro.obs.clock import SimClock
from repro.obs.registry import MetricsRegistry, counter_attr
from repro.sim.kernel import SEC, Simulator, Timeout
from repro.sim.resources import Resource
from repro.util.errors import ConfigError, LinkError


@dataclass(frozen=True)
class TransferResult:
    """Completion record for one transfer."""

    nbytes: int
    started_at: int
    finished_at: int

    @property
    def duration(self) -> int:
        return self.finished_at - self.started_at


class NetworkLink:
    """A serialized link with bandwidth (bytes/s) and latency (ticks)."""

    bytes_sent = counter_attr()
    transfers = counter_attr()
    drops = counter_attr()
    degraded_transfers = counter_attr()
    partitions = counter_attr()

    #: One-way propagation delay, in ticks.
    latency = 100
    #: ``link.degrade`` slows a transfer by this factor.
    degrade_factor = 4.0
    #: ``link.partition`` takes the link down for this long.
    partition_ticks = 50 * 1000

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bytes_per_sec: float,
        name: str = "link",
        injector=None,
    ):
        if bandwidth_bytes_per_sec <= 0:
            raise ConfigError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth = bandwidth_bytes_per_sec
        self.name = name
        self.injector = injector
        #: ``sim.link.<name>.*`` counters, stamped in sim microseconds.
        self.metrics = MetricsRegistry(clock=SimClock(sim)).scope(
            f"sim.link.{name}")
        self._channel = Resource(sim)
        self._partitioned_until = 0

    def transmission_time(self, nbytes: int) -> int:
        """Serialization + propagation time for ``nbytes``, in ticks."""
        if nbytes < 0:
            raise ConfigError("negative byte count")
        serialization = int(nbytes / self.bandwidth * SEC)
        return serialization + self.latency

    # -- partition state -----------------------------------------------------

    @property
    def partitioned(self) -> bool:
        return self.sim.now < self._partitioned_until

    def partition(self, duration: Optional[int] = None) -> None:
        """Take the link down for ``duration`` ticks (default configured)."""
        if duration is None:
            duration = self.partition_ticks
        if duration < 0:
            raise ConfigError("partition duration must be non-negative")
        self.partitions += 1
        self._partitioned_until = max(
            self._partitioned_until, self.sim.now + duration
        )

    # -- transfers -----------------------------------------------------------

    def transfer(self, nbytes: int) -> Generator:
        """Generator to ``yield from``; completes when bytes are delivered.

        Returns a :class:`TransferResult` (via the generator's return
        value, i.e. ``result = yield from link.transfer(n)``). Raises
        :class:`~repro.util.errors.LinkError` when an injected fault
        kills the transfer; simulated time consumed up to the failure
        point is kept (retries pay for what burned).
        """
        if nbytes < 0:
            raise ConfigError("negative byte count")
        yield from self._channel.acquire()
        started = self.sim.now
        try:
            if self.injector is not None and self.injector.fires("link.partition"):
                self.partition()
            if self.partitioned:
                self.drops += 1
                raise LinkError(
                    f"link {self.name} partitioned until "
                    f"t={self._partitioned_until}"
                )
            delay = self.transmission_time(nbytes)
            if self.injector is not None and self.injector.fires("link.degrade"):
                self.degraded_transfers += 1
                delay = self.latency + int(
                    (delay - self.latency) * self.degrade_factor
                )
            if self.injector is not None and self.injector.fires("link.drop"):
                # Carrier lost partway through serialization: a
                # deterministic fraction of the time burns, no delivery.
                lost_after = int(delay * (0.25 + 0.5 * self.injector.uniform("link.drop")))
                if lost_after > 0:
                    yield Timeout(lost_after)
                self.drops += 1
                raise LinkError(
                    f"link {self.name} dropped transfer of {nbytes} bytes "
                    f"after {lost_after} ticks"
                )
            if delay > 0:
                yield Timeout(delay)
        finally:
            self._channel.release()
        self.bytes_sent += nbytes
        self.transfers += 1
        return TransferResult(nbytes, started, self.sim.now)
