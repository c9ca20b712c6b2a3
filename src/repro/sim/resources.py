"""Shared resources for simulated processes.

:class:`Resource` is a counted semaphore with FIFO queueing (models CPU
slots, disk queue depth, migration worker threads).
"""

from collections import deque
from typing import Deque, Generator

from repro.sim.kernel import Interrupted, SimEvent, Simulator


class Resource:
    """Counted resource with FIFO waiters.

    Usage from inside a process generator::

        yield from resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    #: Holders at a time: a resource is a mutex.
    capacity = 1

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.in_use = 0
        self._waiters: Deque[SimEvent] = deque()

    def acquire(self) -> Generator:
        """Generator to ``yield from``; returns once a unit is held."""
        if self.in_use < self.capacity:
            self.in_use += 1
            return
        ev = SimEvent(self.sim)
        self._waiters.append(ev)
        try:
            yield ev
        except Interrupted:
            # An interrupted waiter leaves the queue; a unit already
            # handed to it goes on to the next.
            if ev.fired:
                self.release()
            else:
                self._waiters.remove(ev)
            raise
        # The releaser transferred its unit to us; in_use stays constant.

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release without acquire")
        if self._waiters:
            # Hand the unit directly to the first waiter (no decrement).
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    def __repr__(self) -> str:
        return f"<Resource {self.in_use}/{self.capacity}, {len(self._waiters)} waiting>"
