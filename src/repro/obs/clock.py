"""Timebase abstraction for metric stamping.

pyvisor has two execution worlds with incompatible notions of time: the
functional hypervisor counts *cycles* (``cpu.cycles`` plus VMM overhead)
while the discrete-event side runs on :class:`repro.sim.kernel.Simulator`
*microseconds*. A :class:`Clock` names its timebase explicitly so every
registry snapshot carries a declared unit instead of an ambiguous
integer.
"""

__all__ = ["Clock", "ManualClock", "SimClock"]


class Clock:
    """A monotonic time source with a declared unit.

    Subclasses set :attr:`timebase` (a short unit string such as
    ``"cycles"`` or ``"us"``) and implement :meth:`now`.
    """

    timebase: str = "ticks"

    def now(self) -> int:
        raise NotImplementedError


class ManualClock(Clock):
    """Explicitly advanced clock; the default when no world is attached."""

    def __init__(self, timebase: str = "ticks"):
        self.timebase = timebase
        self._now = 0

    def now(self) -> int:
        return self._now

    def advance(self, ticks: int = 1) -> None:
        if ticks < 0:
            raise ValueError("clocks do not run backwards")
        self._now += ticks

    def set(self, now: int) -> None:
        if now < self._now:
            raise ValueError("clocks do not run backwards")
        self._now = now


class SimClock(Clock):
    """Microsecond clock bound to a DES :class:`Simulator`."""

    timebase = "us"

    def __init__(self, sim):
        self._sim = sim

    def now(self) -> int:
        return int(self._sim.now)
