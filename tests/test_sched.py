"""vCPU schedulers: proportional share, boost, preemption."""

from itertools import islice

import pytest

from repro.sched import (
    CpuBoundWork,
    CreditScheduler,
    InteractiveWork,
    RoundRobinScheduler,
    StrideScheduler,
    VCpuTask,
)
from repro.sched import run_schedule as _run_schedule
from repro.obs.registry import MetricsRegistry
from repro.sim.kernel import MSEC, SEC
from repro.util.errors import SchedulerError


def hogs(weights, prefix="vm"):
    return [VCpuTask(f"{prefix}{i}", weight=w, workload=CpuBoundWork())
            for i, w in enumerate(weights)]


def run_schedule(scheduler, tasks, duration_us):
    return _run_schedule(scheduler, tasks, duration_us,
                         MetricsRegistry().scope("sched"))


class TestEntities:
    def test_weight_validation(self):
        with pytest.raises(SchedulerError):
            VCpuTask("x", weight=0)

    def test_interactive_workload_alternates(self):
        phases = list(islice(InteractiveWork().phases(), 4))
        assert phases == [("run", 500), ("block", 5 * MSEC)] * 2


class TestProportionalShare:
    @pytest.mark.parametrize("factory", [CreditScheduler, StrideScheduler])
    def test_weighted_shares(self, factory):
        stats = run_schedule(factory(), hogs([1, 2, 4]), 10 * SEC)
        assert stats.share_error < 0.01
        assert stats.fairness > 0.99
        assert stats.achieved_share["vm2"] == pytest.approx(4 / 7, abs=0.02)

    def test_round_robin_ignores_weights(self):
        stats = run_schedule(RoundRobinScheduler(), hogs([1, 2, 4]), 10 * SEC)
        assert stats.share_error > 0.1
        assert stats.achieved_share["vm0"] == pytest.approx(1 / 3, abs=0.02)

    def test_equal_weights_equal_shares(self):
        stats = run_schedule(CreditScheduler(), hogs([256] * 4), 5 * SEC)
        for share in stats.achieved_share.values():
            assert share == pytest.approx(0.25, abs=0.02)

    def test_single_task_gets_everything(self):
        stats = run_schedule(CreditScheduler(), hogs([256]), 1 * SEC)
        assert stats.achieved_share["vm0"] == pytest.approx(1.0, abs=0.01)


class TestCreditFeatures:
    def _io_mix(self):
        return hogs([256, 256, 256]) + [
            VCpuTask("io", weight=256, workload=InteractiveWork())
        ]

    def test_boost_collapses_wake_latency(self):
        boosted = run_schedule(CreditScheduler(boost=True), self._io_mix(),
                               3 * SEC)
        plain = run_schedule(CreditScheduler(boost=False), self._io_mix(),
                             3 * SEC)
        assert boosted.wake_latency["io"].p50 < 200
        assert plain.wake_latency["io"].p50 > 1000
        assert (boosted.wake_latency["io"].mean
                < plain.wake_latency["io"].mean / 10)

    def test_duplicate_task_rejected(self):
        sched = CreditScheduler()
        task = VCpuTask("x", workload=CpuBoundWork())
        sched.add_task(task, 0)
        with pytest.raises(SchedulerError):
            sched.add_task(task, 0)


class TestStride:
    def test_deterministic_sequence(self):
        s1 = run_schedule(StrideScheduler(), hogs([1, 3]), 2 * SEC)
        s2 = run_schedule(StrideScheduler(), hogs([1, 3]), 2 * SEC)
        assert s1.cpu_time == s2.cpu_time

    def test_duplicate_rejected(self):
        sched = StrideScheduler()
        task = VCpuTask("x", workload=CpuBoundWork())
        sched.add_task(task, 0)
        with pytest.raises(SchedulerError):
            sched.add_task(task, 0)
