"""Resources and token buckets."""

import pytest

from repro.sim.kernel import Simulator, Timeout
from repro.sim.resources import Resource


def test_resource_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
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


def test_resource_capacity_two_admits_two():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    entered = []

    def worker(name):
        yield from res.acquire()
        entered.append((name, sim.now))
        yield Timeout(10)
        res.release()

    for name in "abc":
        sim.spawn(worker(name))
    sim.run()
    assert entered == [("a", 0), ("b", 0), ("c", 10)]


def test_release_without_acquire_rejected():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_available_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=3)

    def worker():
        yield from res.acquire()
        yield Timeout(5)
        res.release()

    assert res.available == 3
    sim.spawn(worker())
    sim.run(until=1)
    assert res.available == 2
    sim.run()
    assert res.available == 3


def test_invalid_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)
