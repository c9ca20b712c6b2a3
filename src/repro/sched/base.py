"""Scheduler interface and post-run statistics."""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.sched.entities import VCpuTask
from repro.sim.kernel import MSEC
from repro.util.stats import Summary, jain_fairness


class Scheduler:
    """Dispatch policy driven by :class:`~repro.sched.host.SchedHost`."""

    #: Default time slice handed to a picked task.
    quantum_us: int = 30 * MSEC

    #: Registry namespace segment for this policy: the host publishes
    #: its counters under ``sched.<metrics_name>.*``.
    metrics_name: str = "policy"

    def add_task(self, task: VCpuTask, now: int) -> None:
        raise NotImplementedError

    def on_ready(self, task: VCpuTask, now: int) -> None:
        """Task became runnable (wake or preemption requeue)."""
        raise NotImplementedError

    def pick(self, now: int) -> Optional[VCpuTask]:
        """Choose and dequeue the next task to run, or None if idle."""
        raise NotImplementedError

    def account(self, task: VCpuTask, used_us: int, now: int) -> None:
        """Charge ``used_us`` of CPU to a task that just ran."""

    def maybe_refill(self, now: int) -> None:
        """Periodic bookkeeping hook (credit refill)."""

    def on_block(self, task: VCpuTask, now: int) -> None:
        """Task blocked voluntarily."""

    def should_preempt(self, woken: VCpuTask, running: VCpuTask) -> bool:
        """True if a just-woken task should interrupt a running one."""
        return False


@dataclass(frozen=True)
class SchedStats:
    """What E5 reports per run."""

    duration_us: int
    cpu_time: Dict[str, int]
    achieved_share: Dict[str, float]
    expected_share: Dict[str, float]
    #: mean |achieved - expected| over tasks, in share points.
    share_error: float
    fairness: float  # Jain index over achieved/expected ratios
    wake_latency: Dict[str, Optional[Summary]]

    @classmethod
    def collect(
        cls, tasks: Sequence[VCpuTask], duration_us: int
    ) -> "SchedStats":
        """Shares of one core's ``duration_us``."""
        total_weight = sum(t.weight for t in tasks)
        capacity = duration_us
        cpu_time = {t.name: t.cpu_time for t in tasks}
        achieved = {t.name: t.cpu_time / capacity for t in tasks}
        expected = {t.name: t.weight / total_weight for t in tasks}
        errors = [abs(achieved[t.name] - expected[t.name]) for t in tasks]
        ratios: List[float] = []
        for t in tasks:
            if expected[t.name] > 0:
                ratios.append(achieved[t.name] / expected[t.name])
        latencies = {
            t.name: (Summary.of(t.wake_latencies) if t.wake_latencies else None)
            for t in tasks
        }
        return cls(
            duration_us=duration_us,
            cpu_time=cpu_time,
            achieved_share=achieved,
            expected_share=expected,
            share_error=sum(errors) / len(errors) if errors else 0.0,
            fairness=jain_fairness(ratios) if ratios else 1.0,
            wake_latency=latencies,
        )
