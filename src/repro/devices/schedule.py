"""Seeded, retire-indexed asynchronous event schedules.

An :class:`EventSchedule` drives device interrupts from the guest's
**retire count** (``instret``), the one time base every engine advances
identically (the :class:`~repro.devices.timer.TimerDevice` keeps its
deadline in the core's cycles, a stop of the same run loop). The core's
one run loop, stepping, running compiled blocks or dispatching
translated ones, reaches every edge through ``CPUCore._retire_edge``.
An event due at retire edge N is therefore raised after instruction N
retires and -- if IE is set -- delivered before the fetch of
instruction N+1, in every engine, bit-for-bit.

The schedule raises numbered PIC lines on an
:class:`~repro.devices.irq.InterruptController`; the console device
additionally receives a deterministic input byte for console-line
events, so the interrupt has device state behind it.

Two fault sites gate delivery timing (see :mod:`repro.faults.injector`):

* ``irq.delayed`` -- a due event is pushed back a drawn number of retire
  edges instead of firing;
* ``irq.storm`` -- a fired event re-queues itself at the next few
  consecutive edges (an interrupt storm on that line).

Both draw from per-site deterministic streams, and every opportunity
happens at an architected retire edge, so fault schedules replay
identically across engines and across ``--jobs`` fan-out.
"""

import heapq
from typing import Iterable, List, Tuple

from repro.devices.irq import (
    IRQ_CONSOLE_LINE,
    IRQ_TIMER_LINE,
    IRQ_VIRTIO_BLK_LINE,
    InterruptController,
)
from repro.util.rng import DeterministicRNG

#: ``next_due`` when the schedule is exhausted (compares above any
#: reachable instret).
NEVER = 1 << 62

#: Widest storm burst ``irq.storm`` re-queues (events at the next 1..N
#: consecutive retire edges).
_STORM_MAX_BURST = 4

#: Farthest push-back ``irq.delayed`` applies, in retire edges.
_DELAY_MAX_EDGES = 8


class EventSchedule:
    """A sorted queue of (due_retire_count, line) interrupt events.

    ``next_due`` is maintained as a plain int attribute, which the run
    loop folds into its instruction limit (``CPUCore._loop_stop``).
    """

    def __init__(
        self,
        events: Iterable[Tuple[int, int]],
        controller: InterruptController,
        console,
        injector=None,
    ):
        self.controller = controller
        self.console = console
        self.injector = injector
        self.fired_count = 0
        self.deferred_count = 0
        self.storm_extra = 0
        self._seq = 0
        self._heap: List[Tuple[int, int, int]] = []
        for due, line in events:
            self._push(due, line)
        self.next_due = self._heap[0][0] if self._heap else NEVER

    def __len__(self) -> int:
        return len(self._heap)

    def _push(self, due: int, line: int) -> None:
        # The sequence number breaks due-count ties deterministically
        # (insertion order), never by line-number comparison accidents.
        heapq.heappush(self._heap, (due, self._seq, line))
        self._seq += 1

    def fire_due(self, instret: int) -> int:
        """Raise every event due at or before retire edge ``instret``.

        Returns the number of events actually raised (deferred events
        count zero). Charges no cycles: the schedule is a device-side
        source, not guest work.
        """
        heap = self._heap
        inj = self.injector
        fired = 0
        while heap and heap[0][0] <= instret:
            _due, _seq, line = heapq.heappop(heap)
            if inj is not None and inj.fires("irq.delayed"):
                # Push back a drawn number of retire edges; the event
                # stays queued, it just lands late.
                defer = 1 + int(inj.uniform("irq.delayed") * (_DELAY_MAX_EDGES - 1))
                self._push(instret + defer, line)
                self.deferred_count += 1
                continue
            self._raise(line)
            fired += 1
            self.fired_count += 1
            if inj is not None and inj.fires("irq.storm"):
                burst = 1 + int(inj.uniform("irq.storm") * (_STORM_MAX_BURST - 1))
                for k in range(1, burst + 1):
                    self._push(instret + k, line)
                self.storm_extra += burst
        self.next_due = heap[0][0] if heap else NEVER
        return fired

    def _raise(self, line: int) -> None:
        if line == IRQ_CONSOLE_LINE:
            # Deterministic input byte: the interrupt announces data the
            # guest can actually IN from the console RX port. Pushing it
            # raises the console's line, once.
            self.console.push_input(ord("k"))
        else:
            self.controller.raise_line(line)

    @classmethod
    def seeded(
        cls,
        seed: int,
        horizon: int,
        controller: InterruptController,
        console,
        injector=None,
    ) -> "EventSchedule":
        """A reproducible mixed-device schedule over ``[0, horizon)``.

        A quasi-periodic timer train plus sparse virtio-completion and
        console-input events, all a pure function of ``seed`` and
        ``horizon``. Separate forked streams per device class keep the
        trains decoupled (adding console events never moves a timer
        edge).
        """
        rng = DeterministicRNG(seed)
        events: List[Tuple[int, int]] = []
        timer = rng.fork(1)
        due = timer.randint(16, 96)
        period = timer.randint(32, 160)
        while due < horizon:
            events.append((due, IRQ_TIMER_LINE))
            due += period + timer.randint(0, 32)
        virtio = rng.fork(2)
        for _ in range(virtio.randint(0, 3)):
            events.append(
                (virtio.randint(24, max(25, horizon - 1)), IRQ_VIRTIO_BLK_LINE)
            )
        cons = rng.fork(3)
        for _ in range(cons.randint(0, 2)):
            events.append(
                (cons.randint(24, max(25, horizon - 1)), IRQ_CONSOLE_LINE)
            )
        return cls(events, controller, console=console, injector=injector)
