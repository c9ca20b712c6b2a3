"""Generator-coroutine discrete-event simulator.

Design notes
------------

* Time is an ``int`` count of microseconds (:data:`USEC` = 1). Integer
  time makes event ordering exact; ties are broken by insertion sequence
  number so runs are fully deterministic.
* A :class:`Process` wraps a generator. The generator yields *commands*:

  - ``Timeout(delay)`` -- resume after ``delay`` ticks.
  - ``ev`` (a :class:`SimEvent`) -- resume when ``ev.succeed(value)``
    fires; the ``yield`` expression evaluates to ``value``. (What a
    contended :class:`~repro.sim.resources.Resource` waits on.)

* ``Process.interrupt(reason)`` throws :class:`Interrupted` into the
  generator at its current wait point (used e.g. to cancel a migration
  round or preempt a vCPU slice).

The kernel deliberately supports only what the upper layers need; it is
not a general simpy replacement.
"""

import heapq
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

#: One microsecond of simulated time (the base tick).
USEC = 1
#: One millisecond of simulated time.
MSEC = 1000 * USEC
#: One second of simulated time.
SEC = 1000 * MSEC


class Interrupted(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self):
        super().__init__("tickle")


class SimEvent:
    """A one-shot event: a process yields it to wait, before it fires;
    ``succeed(value)`` wakes every waiter."""

    __slots__ = ("sim", "fired", "_waiters")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.fired = False
        self._waiters: List["Process"] = []

    def succeed(self, value: Any = None) -> None:
        if self.fired:
            raise RuntimeError("event already fired")
        self.fired = True
        waiters, self._waiters = self._waiters, []
        sim = self.sim
        for proc in waiters:
            proc._waiting_on = None
            sim._push(sim.now,
                      lambda proc=proc: sim._step(proc, ("send", value)))


class Timeout:
    """Yield command: resume after ``delay`` ticks."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.delay = int(delay)


class Process:
    """A running generator coroutine inside the simulator."""

    __slots__ = (
        "sim",
        "name",
        "_gen",
        "alive",
        "result",
        "_timer_entry",
        "_waiting_on",
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str):
        self.sim = sim
        self.name = name
        self._gen = gen
        self.alive = True
        self.result: Any = None
        # The queue cell of a scheduled timer resume; cancelling an
        # interrupted sleep nulls the cell so the stale entry is skipped
        # without even advancing the clock.
        self._timer_entry: Optional[list] = None
        self._waiting_on: Optional[SimEvent] = None

    def interrupt(self) -> None:
        """Throw :class:`Interrupted` into the process at its wait point."""
        if not self.alive:
            return
        if self._waiting_on is not None:
            self._waiting_on._waiters.remove(self)
            self._waiting_on = None
        if self._timer_entry is not None:
            self._timer_entry[0] = None  # cancel the pending timer resume
            self._timer_entry = None
        self.sim._schedule_throw(self, Interrupted())

    def __repr__(self) -> str:
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"


class Simulator:
    """The event loop: a priority queue of (time, seq, [action]).

    The action lives in a one-element list cell so a cancelled entry can
    be nulled in place; nulled entries are discarded without advancing
    the clock.
    """

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, list]] = []
        self.processes: Dict[str, Process] = {}
        self._proc_counter = 0

    # -- public API ------------------------------------------------------

    def spawn(self, gen: Generator, name: Optional[str] = None) -> Process:
        """Register a generator as a process and start it at ``now``."""
        if name is None:
            name = f"proc-{self._proc_counter}"
        self._proc_counter += 1
        proc = Process(self, gen, name)
        self.processes[name] = proc
        self._push(self.now, lambda: self._step(proc, ("send", None)))
        return proc

    def call_at(self, time: int, fn: Callable[[], None]) -> None:
        """Run a plain callback at an absolute simulated time."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        self._push(time, fn)

    def call_after(self, delay: int, fn: Callable[[], None]) -> None:
        """Run a plain callback after a relative delay."""
        self.call_at(self.now + delay, fn)

    def run(self, until: Optional[int] = None) -> int:
        """Drain the event queue, optionally stopping at time ``until``.

        Returns the final simulated time.
        """
        while self._queue:
            time, _seq, cell = self._queue[0]
            if cell[0] is None:
                heapq.heappop(self._queue)
                continue
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._queue)
            self.now = time
            cell[0]()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until_process(self, proc: Process) -> Any:
        """Run until ``proc`` terminates; return its result."""
        while proc.alive and self._queue:
            time, _seq, cell = heapq.heappop(self._queue)
            if cell[0] is None:
                continue
            self.now = time
            cell[0]()
        if proc.alive:
            raise RuntimeError(f"process {proc.name} deadlocked (queue empty)")
        return proc.result

    # -- internals ---------------------------------------------------------

    def _push(self, time: int, action: Callable[[], None]) -> list:
        self._seq += 1
        cell = [action]
        heapq.heappush(self._queue, (time, self._seq, cell))
        return cell

    def _schedule_throw(self, proc: Process, exc: BaseException) -> None:
        self._push(self.now, lambda: self._step(proc, ("throw", exc)))

    def _step(self, proc: Process, resume: Tuple[str, Any]) -> None:
        if not proc.alive:
            return
        kind, payload = resume
        if kind == "timer":
            proc._timer_entry = None
            kind, payload = "send", None
        try:
            if kind == "send":
                command = proc._gen.send(payload)
            else:
                command = proc._gen.throw(payload)
        except StopIteration as stop:
            self._finish(proc, stop.value)
            return
        except Interrupted:
            # Process chose not to handle its interrupt: treat as death.
            self._finish(proc, None)
            return
        self._dispatch_command(proc, command)

    def _dispatch_command(self, proc: Process, command: Any) -> None:
        if isinstance(command, Timeout):
            proc._timer_entry = self._push(
                self.now + command.delay,
                lambda: self._step(proc, ("timer", None)),
            )
        elif isinstance(command, SimEvent):
            proc._waiting_on = command
            command._waiters.append(proc)
        else:
            raise TypeError(
                f"process {proc.name} yielded {command!r}; expected "
                "a Timeout or a SimEvent"
            )

    def _finish(self, proc: Process, result: Any) -> None:
        proc.alive = False
        proc.result = result
        self.processes.pop(proc.name, None)
