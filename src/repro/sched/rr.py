"""Round-robin scheduler: the weight-blind baseline."""

from collections import deque
from typing import Deque, Optional

from repro.sched.base import Scheduler
from repro.sched.entities import VCpuTask
from repro.sim.kernel import MSEC


class RoundRobinScheduler(Scheduler):
    """FIFO queue, fixed quantum, no notion of weight."""

    metrics_name = "rr"

    quantum_us = 30 * MSEC

    def __init__(self):
        self._queue: Deque[VCpuTask] = deque()

    def add_task(self, task: VCpuTask, now: int) -> None:
        if task.runnable:
            self._queue.append(task)

    def on_ready(self, task: VCpuTask, now: int) -> None:
        self._queue.append(task)

    def pick(self, now: int) -> Optional[VCpuTask]:
        while self._queue:
            task = self._queue.popleft()
            if task.runnable:
                return task
        return None
