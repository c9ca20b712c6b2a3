"""Schedulable vCPU tasks and their workload models."""

import enum
from typing import Iterator, List, Optional, Tuple

from repro.sim.kernel import MSEC
from repro.util.errors import SchedulerError

#: Workload phase kinds.
RUN = "run"
BLOCK = "block"


class TaskState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class CpuBoundWork:
    """Always-runnable compute, optionally bounded in total CPU time."""

    def __init__(self, total_us: Optional[int] = None):
        self.total_us = total_us

    def phases(self) -> Iterator[Tuple[str, int]]:
        if self.total_us is None:
            while True:
                yield (RUN, 10 * MSEC)
        else:
            yield (RUN, self.total_us)


class InteractiveWork:
    """Burst-then-block workload (an I/O-bound or latency-sensitive vCPU)."""

    def __init__(self, burst_us: int = 1 * MSEC, block_us: int = 10 * MSEC,
                 repeats: Optional[int] = None):
        if burst_us <= 0 or block_us < 0:
            raise SchedulerError("burst must be positive, block non-negative")
        self.burst_us = burst_us
        self.block_us = block_us
        self.repeats = repeats

    def phases(self) -> Iterator[Tuple[str, int]]:
        count = 0
        while self.repeats is None or count < self.repeats:
            yield (RUN, self.burst_us)
            yield (BLOCK, self.block_us)
            count += 1


class VCpuTask:
    """One schedulable virtual CPU."""

    def __init__(self, name: str, weight: int = 256,
                 cap_percent: Optional[int] = None, workload=None):
        if weight <= 0:
            raise SchedulerError(f"weight must be positive, got {weight}")
        if cap_percent is not None and not 0 < cap_percent <= 100:
            raise SchedulerError(f"cap must be in 1..100, got {cap_percent}")
        self.name = name
        self.weight = weight
        self.cap_percent = cap_percent
        self.workload = workload or CpuBoundWork()

        self.state = TaskState.READY
        self.cpu_time = 0  # total on-CPU microseconds
        self.remaining_in_phase = 0
        self._phases = self.workload.phases()
        self.ready_since: Optional[int] = None  # for wait-latency stats
        self.wake_latencies: List[int] = []
        self.preemptions = 0
        self.blocks = 0
        self._advance_phase()

    def _advance_phase(self) -> Optional[Tuple[str, int]]:
        try:
            kind, amount = next(self._phases)
        except StopIteration:
            self.state = TaskState.DONE
            return None
        self.remaining_in_phase = amount
        return (kind, amount)

    @property
    def runnable(self) -> bool:
        return self.state is TaskState.READY

    def note_ready(self, now: int) -> None:
        self.state = TaskState.READY
        self.ready_since = now

    def note_dispatched(self, now: int) -> None:
        if self.ready_since is not None:
            self.wake_latencies.append(now - self.ready_since)
            self.ready_since = None
        self.state = TaskState.RUNNING

    def __repr__(self) -> str:
        return (
            f"<VCpuTask {self.name} w={self.weight} {self.state.value} "
            f"cpu={self.cpu_time}us>"
        )
