"""Epoch-synchronous shard messaging for partitioned simulations.

The cluster layer partitions hosts into **shards**. Each shard owns a
private simulation clock, a private forked RNG stream, a private fault
injector, and a private metrics registry; within an epoch a shard
touches nothing outside its own state. Everything that crosses a
shard boundary (a VM migrating between hosts on different shards, an
evacuation after a crash, a balancer decision) travels as a
:class:`ShardMessage` delivered at the next **epoch barrier**, where a
single-threaded coordinator runs the global decisions.

The determinism contract: an epoch step is a *pure function* of
``(shard state, epoch inputs)``, results are taken in shard order, and
messages are sorted by ``(time, src_shard, seq)`` -- a total order that
never consults the payload.
"""

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.util.errors import ConfigError

__all__ = [
    "COORDINATOR",
    "ShardMessage",
    "route_messages",
]

#: ``dst_shard`` sentinel addressing the coordinator instead of a shard.
COORDINATOR = -1


@dataclass(frozen=True, order=True)
class ShardMessage:
    """One cross-shard event, delivered at an epoch barrier.

    The dataclass ordering key is field order: ``(time, src_shard,
    seq, ...)``. Within one source shard ``seq`` increments per
    message, so ``(time, src_shard, seq)`` is unique and the sort
    never has to compare ``kind`` or payloads -- delivery order is a
    pure function of *when and where* a message originated.

    ``payload`` is a tuple (hashable, immutable) of primitives and/or
    frozen dataclasses so messages pickle cheaply and cannot alias
    mutable shard state across the process boundary.
    """

    time: int
    src_shard: int
    seq: int
    kind: str = field(compare=False)
    dst_shard: int = field(compare=False)
    payload: Tuple = field(compare=False, default=())


def route_messages(messages: Sequence[ShardMessage],
                   shards: int) -> Tuple[List[List[ShardMessage]],
                                         List[ShardMessage]]:
    """Sort messages into per-shard inboxes plus the coordinator's.

    Returns ``(inboxes, to_coordinator)`` where ``inboxes[i]`` holds
    shard *i*'s deliveries in ``(time, src_shard, seq)`` order. A
    message addressed outside ``[0, shards)`` (other than
    :data:`COORDINATOR`) is a routing bug and raises
    :class:`ConfigError` rather than being dropped silently.
    """
    inboxes: List[List[ShardMessage]] = [[] for _ in range(shards)]
    to_coordinator: List[ShardMessage] = []
    for msg in sorted(messages):
        if msg.dst_shard == COORDINATOR:
            to_coordinator.append(msg)
        elif 0 <= msg.dst_shard < shards:
            inboxes[msg.dst_shard].append(msg)
        else:
            raise ConfigError(
                f"message {msg.kind!r} addressed to shard {msg.dst_shard} "
                f"but only {shards} shards exist"
            )
    return inboxes, to_coordinator
