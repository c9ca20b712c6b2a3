"""Resources and token buckets."""

import pytest

from repro.sim.kernel import Simulator, Timeout
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
