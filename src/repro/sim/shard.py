"""Epoch-synchronous shard execution for partitioned simulations.

The cluster layer scales past one core by partitioning hosts into
**shards**. Each shard owns a private simulation clock, a private
forked RNG stream, a private fault injector, and a private metrics
registry; within an epoch a shard touches nothing outside its own
state, so shards execute concurrently. Everything that crosses a
shard boundary (a VM migrating between hosts on different shards, an
evacuation after a crash, a balancer decision) travels as a
:class:`ShardMessage` delivered at the next **epoch barrier**, where a
single-threaded coordinator runs the global decisions.

The determinism contract is the fuzz campaign's, lifted from cases to
epochs: an epoch step is a *pure function* of ``(shard state, epoch
inputs)``, results are re-ordered by shard index after the fan-out,
and messages are sorted by ``(time, src_shard, seq)`` -- a total order
that never consults the payload. Worker scheduling therefore cannot
influence any result, which is what makes merged manifests
byte-identical across ``--jobs`` values.

:class:`ShardExecutor` holds one ``fork``-context worker pool across
all epochs (forking per epoch would dominate the runtime);
``jobs=1`` degrades to an inline map, making the single-process path
the same code with no pool at all.
"""

import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple, TypeVar

from repro.util.errors import ConfigError

__all__ = [
    "COORDINATOR",
    "ShardMessage",
    "route_messages",
    "ShardExecutor",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

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


class ShardExecutor:
    """Maps a pure function over shard tasks, inline or across workers.

    One executor persists across every epoch of a run: the ``fork``
    pool is created on ``__enter__`` and torn down on ``__exit__``.
    ``fn`` must be a module-level function of one picklable argument
    (the same constraint the fuzz campaign's workers live under).
    Results come back in task order regardless of which worker ran
    what, so callers index them by shard.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool = None

    def __enter__(self) -> "ShardExecutor":
        if self.jobs > 1:
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(processes=self.jobs)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def map(self, fn: Callable[[_T], _R], tasks: Sequence[_T]) -> List[_R]:
        """Apply ``fn`` to every task; results in task order."""
        if self._pool is None:
            return [fn(task) for task in tasks]
        # chunksize=1: shard epochs are coarse (thousands of simulated
        # events each), so dispatch overhead is negligible and eager
        # per-shard distribution beats batching.
        return self._pool.map(fn, tasks, chunksize=1)
