"""Host-speed reference: a fixed snippet of CPython work timed between ops.

The 2-core shared box this benchmark runs on changes speed by 20-60 %
for tens of seconds at a time (neighbours on the sibling hyperthread,
steal).  A run sits inside one or two such regimes, so no statistic over
the run's own passes can remove it, and ten raw wall-clock runs spread
(interquartile distance over median) by 4-17 % in a quiet hour and by
15-47 % on a bad day -- more than the widest bound BENCHMARK.json may
state.  So the harness runs this snippet between
ops -- never inside a timed call -- for about a tenth of the time the ops
take, and divides a pass's times by

    factor = mean snippet time in the pass / REFERENCE_SNIPPET_S

i.e. states them in *reference-host* seconds: what the pass would take
on a host that runs the snippet in ``REFERENCE_SNIPPET_S``.  The raw
pass times and the factors are kept beside them in every result file.

The snippet uses no ``repro`` code, so a change under ``src/`` cannot
make it faster, but it is built to slow down the way the simulator does.
Three parts of about equal length were chosen by recording candidates
beside real ops for seven minutes of heavy interference and keeping the
combination whose ratio to op time was steadiest and closest to
proportional (log-log slope 1.0-1.1 for guest runs, fuzz cases and
lifecycle calls; pure arithmetic and fresh large allocations tracked
worst and were dropped):

* attribute, list and dict traffic through a method call (the shape of
  an interpreter step);
* LCG-addressed single-byte reads and writes over a 32 MiB buffer
  (guest-memory access: cache and TLB misses);
* small-object churn: lists of tuples and the dicts that index them.
"""

import gc
from time import perf_counter

#: Snippet time on the reference host (this repo's 2-core box when
#: quiet, CPython 3.11).  A constant: changing it rescales every
#: time-valued metric, so it is fixed with the metric names.
REFERENCE_SNIPPET_S = 0.0070

#: Share of the time spent in timed calls that is spent sampling.
DUTY = 0.10


class _Core:
    __slots__ = ("bias", "retired", "regs")

    def __init__(self):
        self.bias = 1
        self.retired = 0
        self.regs = [0] * 16

    def step(self, x):
        regs = self.regs
        regs[x & 15] = (regs[(x + 1) & 15] + self.bias) & 0xFFFFFFFF
        self.retired += 1
        return regs[x & 15]


_CORE = _Core()
_TABLE = {i: i for i in range(256)}
_MEMORY_BYTES = 32 << 20
_MEMORY = None


def snippet():
    """Run the fixed work once; return the seconds it took."""
    global _MEMORY
    if _MEMORY is None:
        _MEMORY = bytearray(_MEMORY_BYTES)
        for page in range(0, _MEMORY_BYTES, 4096):
            _MEMORY[page] = 1  # fault every page in before the first timing
    # Collector off: the snippet's garbage is acyclic, and a collection
    # it triggered would walk the heap of the program under test and
    # make the reference depend on it.
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    step = _CORE.step
    table = _TABLE
    acc = 0
    for i in range(10_000):
        acc += step(i)
        table[i & 255] = acc & 1023
    memory = _MEMORY
    state = 12345
    for i in range(8_000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        address = state % _MEMORY_BYTES
        acc += memory[address]
        memory[address] = acc & 255
    for _ in range(100):
        rows = [(i, i + 1, [i]) for i in range(150)]
        index = {i: row for i, row in enumerate(rows)}
    del rows, index
    took = perf_counter() - start
    if collecting:
        gc.enable()
    return took


class SpeedGauge:
    """The snippet samples of one stretch of work (a pass, a set-up).

    ``worked(seconds)`` is called between ops with the time the last one
    took; it samples until sampling has had its ``DUTY`` share of the
    stretch so far. The samples are thereby spread over the stretch in
    proportion to where its time went, and their mean weighs a slow
    moment by how long it lasted.
    """

    def __init__(self):
        self.samples = []
        self.busy_s = 0.0
        #: Wall-clock seconds sampling has taken, for callers that time
        #: a stretch from outside and must leave the samples out.
        self.spent_s = 0.0
        self._sample()

    def _sample(self):
        start = perf_counter()
        self.samples.append(snippet())
        self.spent_s += perf_counter() - start

    def worked(self, seconds):
        self.busy_s += seconds
        while self.spent_s < DUTY * self.busy_s:
            self._sample()

    @property
    def factor(self):
        """How much slower than the reference host the stretch ran."""
        return sum(self.samples) / len(self.samples) / REFERENCE_SNIPPET_S
