"""Discrete-event simulation kernel.

This is the timing engine behind the long-horizon experiments (scheduling,
live migration, overcommit, consolidation). It is a small simpy-style
kernel: processes are generator coroutines that ``yield`` commands
(:class:`Timeout`, a :class:`SimEvent`) to the :class:`Simulator`.

Simulated time is an integer number of **microseconds** so that event
ordering is exact and runs are deterministic; helpers convert to/from
seconds for reporting.
"""

from repro.sim.kernel import (
    Simulator,
    Process,
    SimEvent,
    Timeout,
    Interrupted,
    USEC,
    MSEC,
    SEC,
)
from repro.sim.resources import Resource
from repro.sim.link import NetworkLink, TransferResult
from repro.sim.shard import (
    COORDINATOR,
    ShardMessage,
    route_messages,
)

__all__ = [
    "Simulator",
    "Process",
    "SimEvent",
    "Timeout",
    "Interrupted",
    "USEC",
    "MSEC",
    "SEC",
    "Resource",
    "NetworkLink",
    "TransferResult",
    "COORDINATOR",
    "ShardMessage",
    "route_messages",
]
