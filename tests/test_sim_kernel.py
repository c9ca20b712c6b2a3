"""Discrete-event simulator kernel."""

import pytest

from repro.sim.kernel import (
    Interrupted,
    SimEvent,
    Simulator,
    Timeout,
)


def test_timeout_advances_clock():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield Timeout(10)
        trace.append(sim.now)
        yield Timeout(5)
        trace.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert trace == [0, 10, 15]


def test_events_wake_waiters_with_value():
    sim = Simulator()
    ev = SimEvent(sim)
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    def firer():
        yield Timeout(7)
        ev.succeed("payload")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert got == [(7, "payload")]


def test_event_double_fire_rejected():
    sim = Simulator()
    ev = SimEvent(sim)
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_wait_process_returns_result():
    sim = Simulator()

    def child():
        yield Timeout(3)
        return 42

    proc = sim.spawn(child(), name="child")
    assert sim.run_until_process(proc) == 42
    assert sim.now == 3


def test_wait_on_finished_process():
    sim = Simulator()

    def child():
        return 9
        yield  # pragma: no cover

    proc = sim.spawn(child())
    sim.run()
    assert not proc.alive
    assert sim.run_until_process(proc) == 9


def test_interrupt_cancels_timeout():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield Timeout(1000)
            log.append("slept")
        except Interrupted as exc:
            log.append(("interrupted", sim.now, str(exc)))
            yield Timeout(1)
            log.append("resumed")

    proc = sim.spawn(sleeper())
    sim.call_at(10, proc.interrupt)
    sim.run()
    assert log == [("interrupted", 10, "tickle"), "resumed"]
    assert sim.now == 11  # the stale 1000-tick timer must not fire late


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield Timeout(1)

    proc = sim.spawn(quick())
    sim.run()
    proc.interrupt()  # must not raise


def test_unhandled_interrupt_kills_process():
    sim = Simulator()

    def stubborn():
        yield Timeout(100)

    proc = sim.spawn(stubborn())
    sim.call_at(5, lambda: proc.interrupt())
    sim.run()
    assert not proc.alive


def test_run_until_limit_stops_clock():
    sim = Simulator()

    def ticker():
        while True:
            yield Timeout(10)

    sim.spawn(ticker())
    assert sim.run(until=35) == 35
    assert sim.now == 35


def test_deterministic_tie_breaking():
    sim = Simulator()
    order = []

    def mk(name):
        def proc():
            yield Timeout(5)
            order.append(name)
        return proc()

    for name in ("a", "b", "c"):
        sim.spawn(mk(name), name=name)
    sim.run()
    assert order == ["a", "b", "c"]  # spawn order preserved at equal time


def test_call_at_past_rejected():
    sim = Simulator()
    sim.call_at(5, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(1, lambda: None)


def test_run_until_process_deadlock_detected():
    sim = Simulator()

    def waiter():
        yield SimEvent(sim)  # nobody will fire it

    proc = sim.spawn(waiter())
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run_until_process(proc)


def test_bad_yield_type_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(TypeError):
        sim.run()
