"""Stride scheduling: deterministic proportional share.

Each task has ``stride = STRIDE1 / weight``; the scheduler always runs
the task with the smallest *pass* value and advances its pass by stride
scaled by the CPU it actually used. Waldspurger & Weihl (OSDI'94).
"""

import heapq
from typing import Dict, List, Optional, Tuple

from repro.sched.base import Scheduler
from repro.sched.entities import VCpuTask
from repro.sim.kernel import MSEC
from repro.util.errors import SchedulerError

STRIDE1 = 1 << 20


class StrideScheduler(Scheduler):
    """Min-pass dispatch with lazy heap deletion."""

    metrics_name = "stride"

    quantum_us = 10 * MSEC

    def __init__(self):
        self._pass: Dict[str, float] = {}
        self._stride: Dict[str, float] = {}
        self._heap: List[Tuple[float, int, VCpuTask]] = []
        self._counter = 0
        self._global_pass = 0.0

    def add_task(self, task: VCpuTask, now: int) -> None:
        if task.name in self._stride:
            raise SchedulerError(f"duplicate task {task.name}")
        self._stride[task.name] = STRIDE1 / task.weight
        self._pass[task.name] = self._global_pass
        if task.runnable:
            self._push(task)

    def on_ready(self, task: VCpuTask, now: int) -> None:
        # A waking task resumes at the global pass so it cannot starve
        # others with credit hoarded while asleep.
        self._pass[task.name] = max(self._pass[task.name], self._global_pass)
        self._push(task)

    def pick(self, now: int) -> Optional[VCpuTask]:
        while self._heap:
            pass_value, _seq, task = heapq.heappop(self._heap)
            if task.runnable and pass_value == self._pass[task.name]:
                self._global_pass = pass_value
                return task
        return None

    def account(self, task: VCpuTask, used_us: int, now: int) -> None:
        self._pass[task.name] += (
            self._stride[task.name] * used_us / self.quantum_us
        )

    def _push(self, task: VCpuTask) -> None:
        self._counter += 1
        heapq.heappush(self._heap, (self._pass[task.name], self._counter, task))
