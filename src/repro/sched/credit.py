"""Xen-style credit scheduler.

Every accounting period each task receives credits proportional to its
weight (the total minted per period equals the period's CPU capacity).
Running burns credits 1:1 with CPU time. Tasks with positive credits
are UNDER priority and run before OVER tasks (negative credits), which
gives proportional fairness over the accounting horizon. One classic
refinement, switchable for the E5 ablation:

* **boost**: a task that wakes from blocking with credits remaining is
  placed in the BOOST priority class until it is next descheduled --
  this is what keeps I/O latency low under CPU contention.
"""

from collections import deque
from typing import Dict, Optional

from repro.sched.base import Scheduler
from repro.sched.entities import VCpuTask
from repro.sim.kernel import MSEC
from repro.util.errors import SchedulerError

BOOST, UNDER, OVER = 0, 1, 2


class CreditScheduler(Scheduler):
    """Proportional share with UNDER/OVER/BOOST priorities."""

    metrics_name = "credit"
    #: Xen's tick: the accounting granularity.
    quantum_us = 10 * MSEC
    #: Credits are minted once per period: one period of CPU in all.
    period_us = 30 * MSEC

    def __init__(self, boost: bool = True):
        self.boost_enabled = boost
        self._tasks: Dict[str, VCpuTask] = {}
        self._credits: Dict[str, float] = {}
        self._boosted: Dict[str, bool] = {}
        self._queues = {p: deque() for p in (BOOST, UNDER, OVER)}  # type: Dict[int, Deque[VCpuTask]]
        self._next_refill = 0

    # -- Scheduler interface ---------------------------------------------

    def add_task(self, task: VCpuTask, now: int) -> None:
        if task.name in self._tasks:
            raise SchedulerError(f"duplicate task {task.name}")
        self._tasks[task.name] = task
        self._credits[task.name] = 0.0
        self._boosted[task.name] = False
        self._refill_one(task)
        if task.runnable:
            self._enqueue(task)

    def on_ready(self, task: VCpuTask, now: int) -> None:
        self._enqueue(task)

    def on_block(self, task: VCpuTask, now: int) -> None:
        self._boosted[task.name] = False

    def wake(self, task: VCpuTask, now: int) -> None:
        """Called by the host when a blocked task wakes (not requeue)."""
        if self.boost_enabled and self._credits[task.name] > 0:
            self._boosted[task.name] = True

    def pick(self, now: int) -> Optional[VCpuTask]:
        for priority in (BOOST, UNDER, OVER):
            queue = self._queues[priority]
            while queue:
                task = queue.popleft()
                if task.runnable:
                    return task
        return None

    def account(self, task: VCpuTask, used_us: int, now: int) -> None:
        self._credits[task.name] -= used_us
        self._boosted[task.name] = False  # boost lasts one dispatch

    def maybe_refill(self, now: int) -> None:
        if now < self._next_refill:
            return
        self._next_refill = now + self.period_us
        for task in self._tasks.values():
            self._refill_one(task)
        # Refill changes priorities; re-sort queued tasks so a task that
        # crossed OVER -> UNDER doesn't languish in the stale queue.
        queued = []
        for priority in (BOOST, UNDER, OVER):
            queue = self._queues[priority]
            while queue:
                queued.append(queue.popleft())
        for task in queued:
            self._enqueue(task)

    # -- internals ----------------------------------------------------------

    def _refill_one(self, task: VCpuTask) -> None:
        total_weight = sum(t.weight for t in self._tasks.values())
        mint = self.period_us
        share = mint * task.weight / total_weight
        # Cap accumulation at one period's worth to avoid unbounded
        # credit for long-blocked tasks (as Xen does).
        self._credits[task.name] = min(self._credits[task.name] + share, share)

    def should_preempt(self, woken: VCpuTask, running: VCpuTask) -> bool:
        """Tickle: a BOOST wakeup preempts any non-boosted vCPU."""
        return (
            self.boost_enabled
            and self._boosted.get(woken.name, False)
            and not self._boosted.get(running.name, False)
        )

    def _priority(self, task: VCpuTask) -> int:
        if self._boosted[task.name]:
            return BOOST
        return UNDER if self._credits[task.name] > 0 else OVER

    def _enqueue(self, task: VCpuTask) -> None:
        self._queues[self._priority(task)].append(task)

