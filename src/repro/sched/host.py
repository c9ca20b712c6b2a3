"""The dispatch loop binding tasks, cores, and a scheduler to the sim.

Implements wake preemption ("tickling"): when a task wakes and the
scheduler's ``should_preempt`` says it outranks what a core is running,
the host interrupts that core mid-slice, the partial slice is accounted,
and the preempted task is requeued. This is the mechanism behind the
credit scheduler's BOOST latency win in experiment E5.
"""

from typing import Dict, List, Optional, Sequence

from repro.obs.clock import SimClock
from repro.obs.registry import MetricsRegistry, counter_attr
from repro.sched.base import Scheduler, SchedStats
from repro.sched.credit import CreditScheduler
from repro.sched.entities import BLOCK, RUN, TaskState, VCpuTask
from repro.sim.kernel import Interrupted, Process, Simulator, Timeout
from repro.util.errors import SchedulerError

#: Poll interval while a core is idle. Small enough for latency
#: measurements, large enough not to dominate event counts.
IDLE_POLL_US = 100


class SchedHost:
    """One host with ``num_cores`` physical CPUs and one scheduler."""

    preempt_interrupts = counter_attr()

    def __init__(self, sim: Simulator, scheduler: Scheduler, num_cores: int = 1,
                 metrics=None):
        if num_cores <= 0:
            raise SchedulerError("need at least one core")
        self.sim = sim
        self.scheduler = scheduler
        self.num_cores = num_cores
        if metrics is None:
            # Private registry stamped in sim-time; pass a shared
            # ``sched`` scope to publish into a run's registry instead.
            metrics = MetricsRegistry(clock=SimClock(sim)).scope("sched")
        #: ``sched.<policy>`` scope: dispatches, preemptions, wake
        #: latency histogram, all stamped in simulator microseconds.
        self.metrics = metrics.scope(scheduler.metrics_name)
        self._sched_dispatches = metrics.counter("dispatches")
        self._m_dispatches = self.metrics.counter("dispatches")
        self._m_preemptions = self.metrics.counter("preemptions")
        self.tasks: List[VCpuTask] = []
        self._end_time: Optional[int] = None
        #: core -> running task while dispatched.
        self._running: Dict[int, VCpuTask] = {}
        self._core_procs: Dict[int, Process] = {}

    def add_task(self, task: VCpuTask) -> None:
        self.tasks.append(task)
        if task.runnable:
            task.note_ready(self.sim.now)
        self.scheduler.add_task(task, self.sim.now)

    def run(self, duration_us: int) -> SchedStats:
        """Simulate for ``duration_us`` and return the statistics."""
        self._end_time = self.sim.now + duration_us
        for core in range(self.num_cores):
            self._core_procs[core] = self.sim.spawn(
                self._core_loop(core), name=f"core-{core}"
            )
        self.sim.run(until=self._end_time)
        return SchedStats.collect(self.tasks, duration_us, self.num_cores)

    # -- internals -------------------------------------------------------

    def _core_loop(self, core_id: int):
        sim = self.sim
        sched = self.scheduler
        while sim.now < self._end_time:
            sched.maybe_refill(sim.now)
            if all(t.state is TaskState.DONE for t in self.tasks):
                return
            task = sched.pick(sim.now)
            if task is None:
                try:
                    yield Timeout(IDLE_POLL_US)
                except Interrupted:
                    pass  # woken early: re-pick immediately
                continue
            was_waiting = task.ready_since is not None
            task.note_dispatched(sim.now)
            self._sched_dispatches.inc()
            self._m_dispatches.inc()
            if was_waiting and task.wake_latencies:
                self.metrics.observe("wake_latency_us", task.wake_latencies[-1])
            slice_ = min(
                sched.quantum_us,
                task.remaining_in_phase,
                self._end_time - sim.now,
            )
            if self._end_time - sim.now <= 0:
                return
            limit = sched.limit_slice(task)
            if limit is not None:
                slice_ = min(slice_, limit)
            if slice_ <= 0:
                # Capped out between pick and dispatch: treat like a
                # zero-length run so accounting parks it.
                sched.account(task, 0, sim.now)
                continue
            self._running[core_id] = task
            start = sim.now
            try:
                yield Timeout(slice_)
            except Interrupted:
                self.preempt_interrupts += 1
            finally:
                self._running.pop(core_id, None)
            used = sim.now - start
            task.cpu_time += used
            task.remaining_in_phase -= used
            sched.account(task, used, sim.now)
            if task.remaining_in_phase > 0:
                task.preemptions += 1
                self._m_preemptions.inc()
                task.note_ready(sim.now)
                sched.on_ready(task, sim.now)
                continue
            self._finish_phase(task)

    def _finish_phase(self, task: VCpuTask) -> None:
        sim = self.sim
        nxt = task._advance_phase()
        if nxt is None:
            return  # task done
        kind, amount = nxt
        if kind == RUN:
            task.note_ready(sim.now)
            self.scheduler.on_ready(task, sim.now)
            return
        assert kind == BLOCK
        task.state = TaskState.BLOCKED
        task.blocks += 1
        self.scheduler.on_block(task, sim.now)

        def wake(t=task):
            follow = t._advance_phase()
            if follow is None:
                return
            f_kind, _amount = follow
            if f_kind != RUN:
                raise SchedulerError(
                    f"{t.name}: workload yielded consecutive BLOCK phases"
                )
            t.note_ready(sim.now)
            if isinstance(self.scheduler, CreditScheduler):
                self.scheduler.wake(t, sim.now)
            self.scheduler.on_ready(t, sim.now)
            self._tickle(t)

        sim.call_after(amount, wake)

    def _tickle(self, woken: VCpuTask) -> None:
        """Preempt a core if the scheduler ranks the woken task higher."""
        # An idle core will re-pick at its next poll; preempting a
        # running lower-priority task needs an explicit interrupt.
        for core_id, running in list(self._running.items()):
            if self.scheduler.should_preempt(woken, running):
                self._core_procs[core_id].interrupt("tickle")
                return


def run_schedule(
    scheduler: Scheduler,
    tasks: Sequence[VCpuTask],
    duration_us: int,
    num_cores: int = 1,
    metrics=None,
) -> SchedStats:
    """Convenience wrapper: fresh sim, add tasks, run, return stats."""
    sim = Simulator()
    host = SchedHost(sim, scheduler, num_cores=num_cores, metrics=metrics)
    for task in tasks:
        host.add_task(task)
    return host.run(duration_us)
