"""Run shape shared by every workload: set-up, passes, statistics.

Single process, single thread, closed loop: one op at a time, the next
starts when the previous returned. ``gc.collect()`` runs right before
every timed call and the collector is otherwise left on, so collection
points inside an op depend on the op and not on what came before it.

Time is read with ``perf_counter`` around the ``run`` phase of each op
only. A pass's time is the sum of its ops' times; collection,
``prepare``, ``check`` and the host-speed samples taken between ops are
outside it. Reported times are in reference-host seconds (see
``hostspeed``); the raw ones are kept beside them.
"""

import gc
import hashlib
import json
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

from hostspeed import SpeedGauge

#: The ``--seconds`` BENCHMARK.json states: a run of that length makes
#: ``Workload.passes`` timed passes.
NOMINAL_SECONDS = 12


@dataclass
class OpResult:
    """What ``check`` hands back for one op."""

    #: Work units done (the workload's ``unit``).
    work: float = 0.0
    #: Empty when every check passed, else the first reason it did not.
    failure: str = ""
    #: Exact simulated counts; identical in every pass, fingerprinted.
    sim: Dict[str, object] = field(default_factory=dict)
    #: Host-side facts for the per-layer metrics (not fingerprinted).
    info: Dict[str, object] = field(default_factory=dict)


@dataclass
class OpRecord:
    name: str
    #: Raw seconds inside ``run``.
    wall: float
    result: OpResult
    #: ``wall`` in reference-host seconds (filled in when the pass ends).
    norm: float = 0.0


@dataclass
class PassRecord:
    workload: str
    ops: List[OpRecord]
    #: Host-speed factor of the stretch the pass ran in.
    factor: float
    #: With the workload name and the op's position, the identifier
    #: stamped on the spans of this pass's ops.
    index: int = 0

    @property
    def raw_s(self):
        return sum(op.wall for op in self.ops)

    @property
    def norm_s(self):
        return sum(op.norm for op in self.ops)

    @property
    def work(self):
        return sum(op.result.work for op in self.ops)

    def fingerprint(self):
        payload = json.dumps([[op.name, op.result.sim] for op in self.ops],
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_op(op, ctx, recorder):
    """One op: untimed prepare, collection, timed run, untimed check.
    Never raises: an op that does is a failed op."""
    wall = 0.0
    try:
        with recorder.span("op.prepare"):
            prepared = op.prepare(ctx)
        # Collect last: the previous op's garbage and prepare's are gone
        # and the generation counters are zero, so collections inside
        # the timed region depend on this op alone.
        gc.collect()
        with recorder.span("op.run"):
            start = perf_counter()
            out = op.run(ctx, prepared)
            wall = perf_counter() - start
        result = op.check(ctx, prepared, out)
    except Exception:
        result = OpResult(failure=traceback.format_exc(limit=4))
    return OpRecord(op.name, wall, result)


def _finish_pass(workload, ops, records, factor, index):
    if ops is workload.ops:
        for i, why in workload.cross_check(
                [r.result for r in records]).items():
            records[i].result.failure = records[i].result.failure or why
    for record in records:
        record.norm = record.wall / factor
    return PassRecord(workload.name, records, factor, index)


def run_pass(workload, ops, recorder, index=0, gauge=None):
    """Run ``ops`` once, in order (spans as the recorder is set)."""
    gauge = gauge or SpeedGauge()
    records = []
    ctx = {}
    for i, op in enumerate(ops):
        recorder.op = f"{workload.name}:{index}:{i}"
        records.append(run_op(op, ctx, recorder))
        gauge.worked(records[-1].wall)
    return _finish_pass(workload, ops, records, gauge.factor, index)


def run_pass_pair(workload, recorder):
    """The traced run's two passes, interleaved: every op runs twice back
    to back, once with spans off (pass 0) and once with spans on (pass
    1), in alternating order. Both meet the same host conditions, so
    the ratio of their times is the tracing overhead and not the drift
    between two passes seconds apart."""
    gauge = SpeedGauge()
    records = ([], [])
    contexts = ({}, {})
    for i, op in enumerate(workload.ops):
        for traced in ((0, 1), (1, 0))[i % 2]:
            recorder.enabled = bool(traced)
            recorder.op = f"{workload.name}:{traced}:{i}"
            records[traced].append(run_op(op, contexts[traced], recorder))
            gauge.worked(records[traced][-1].wall)
    recorder.enabled = False
    return tuple(
        _finish_pass(workload, workload.ops, records[traced], gauge.factor,
                     traced)
        for traced in (0, 1))


def mark_unrepeatable(passes):
    """Fail every op whose exact simulated counts differ from the first
    pass's: a deterministic simulator must repeat them bit for bit."""
    first = passes[0]
    for later in passes[1:]:
        for ref, op in zip(first.ops, later.ops):
            if op.result.sim != ref.result.sim and not op.result.failure:
                op.result.failure = (
                    f"simulated counts differ from pass {first.index}: "
                    f"{op.result.sim} != {ref.result.sim}")


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def spread(values):
    """Interquartile distance over the median (0 for under two values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


@dataclass
class SetupRecord:
    raw_s: float
    factor: float


def set_up(workload_name, seed, sizes, recorder, started):
    """Build the workload and run its warm-up slice.

    ``started`` is ``perf_counter()`` at the first statement of
    ``run.py``, so the record covers ``import repro``, kernel/program
    assembly, case/fleet generation, template boots and the warm-up --
    everything between process start and the first timed op except
    CPython's own start-up and the host-speed samples.
    """
    gauge = SpeedGauge()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, sizes, recorder)
    gauge.worked(perf_counter() - started - gauge.spent_s)
    warm = run_pass(workload, workload.warmup_ops, recorder, index=-1,
                    gauge=gauge)
    return workload, warm, SetupRecord(
        perf_counter() - started - gauge.spent_s, gauge.factor)


@dataclass
class Measurement:
    """Everything one untraced run measured."""

    workload: object
    setup: SetupRecord
    warmup: PassRecord
    passes: List[PassRecord] = field(default_factory=list)

    def all_ops(self):
        return [op for p in self.passes for op in p.ops]


def pass_count(seconds, workload):
    """Run length is fixed in passes, not in time: two commits measured
    with the same ``--seconds`` run the same ops the same number of
    times however fast either is. ``--seconds`` scales the count."""
    return max(1, round(workload.passes * seconds / NOMINAL_SECONDS))


def measure(workload_name, seed, seconds, sizes, recorder, started):
    """Set up, then run the timed passes over the op list."""
    workload, warm, setup = set_up(workload_name, seed, sizes, recorder,
                                   started)
    run = Measurement(workload, setup, warm)
    for index in range(pass_count(seconds, workload)):
        run.passes.append(run_pass(workload, workload.ops, recorder, index))
    mark_unrepeatable(run.passes)
    return run
