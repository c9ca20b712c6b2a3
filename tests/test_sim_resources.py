"""Resources and token buckets."""

import pytest

from repro.sim.kernel import Interrupted, Simulator, Timeout
from repro.sim.resources import Resource


def test_resource_serializes_holders():
    sim = Simulator()
    res = Resource(sim)
    log = []

    def worker(name, hold):
        yield from res.acquire()
        log.append((name, "in", sim.now))
        yield Timeout(hold)
        log.append((name, "out", sim.now))
        res.release()

    sim.spawn(worker("a", 10))
    sim.spawn(worker("b", 5))
    sim.run()
    assert log == [
        ("a", "in", 0), ("a", "out", 10),
        ("b", "in", 10), ("b", "out", 15),
    ]


def test_release_without_acquire_rejected():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_available_accounting():
    sim = Simulator()
    res = Resource(sim)

    def worker():
        yield from res.acquire()
        yield Timeout(5)
        res.release()

    assert res.capacity - res.in_use == 1
    sim.spawn(worker())
    sim.run(until=1)
    assert res.capacity - res.in_use == 0
    sim.run()
    assert res.capacity - res.in_use == 1


def test_an_interrupted_waiter_leaves_the_queue():
    # The holder keeps the unit to t=10; the waiter queued behind it is
    # interrupted at t=5, so the release hands the unit to nobody and a
    # process that asks at t=20 gets it at once.
    sim = Simulator()
    res = Resource(sim)
    log = []

    def holder():
        yield from res.acquire()
        yield Timeout(10)
        res.release()

    def waiter():
        try:
            yield from res.acquire()
            log.append(("waiter", "in", sim.now))
        except Interrupted:
            log.append(("waiter", "interrupted", sim.now))

    def interrupter(proc):
        yield Timeout(5)
        proc.interrupt()

    def latecomer():
        yield Timeout(20)
        yield from res.acquire()
        log.append(("latecomer", "in", sim.now))
        res.release()

    sim.spawn(holder())
    sim.spawn(interrupter(sim.spawn(waiter())))
    sim.spawn(latecomer())
    sim.run()
    assert log == [("waiter", "interrupted", 5), ("latecomer", "in", 20)]
    assert res.in_use == 0 and not res._waiters


def test_a_unit_handed_to_an_interrupted_waiter_goes_on():
    # The holder interrupts its waiter and then releases, in one step:
    # the unit reaches the waiter's event before the interrupt does, so
    # the waiter passes it on to the next in line.
    sim = Simulator()
    res = Resource(sim)
    log = []

    def waiter(name):
        try:
            yield from res.acquire()
            log.append((name, "in", sim.now))
            res.release()
        except Interrupted:
            log.append((name, "interrupted", sim.now))

    def holder():
        yield from res.acquire()
        first, _second = sim.spawn(waiter("first")), sim.spawn(waiter("second"))
        yield Timeout(5)
        first.interrupt()
        res.release()

    sim.spawn(holder())
    sim.run()
    assert log == [("first", "interrupted", 5), ("second", "in", 5)]
    assert res.in_use == 0 and not res._waiters
