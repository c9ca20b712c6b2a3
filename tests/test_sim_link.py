"""Network link model."""

import pytest

from repro.sim.kernel import SEC, Simulator
from repro.sim.link import NetworkLink
from repro.util.errors import ConfigError
from repro.util.units import MIB


def test_transmission_time_formula():
    sim = Simulator()
    link = NetworkLink(sim, bandwidth_bytes_per_sec=1 * MIB)
    assert link.transmission_time(0) == 100
    assert link.transmission_time(1 * MIB) == SEC + 100


def test_transfer_advances_time_and_counts():
    sim = Simulator()
    link = NetworkLink(sim, bandwidth_bytes_per_sec=1 * MIB)

    def proc():
        result = yield from link.transfer(512 * 1024)
        return result

    p = sim.spawn(proc())
    result = sim.run_until_process(p)
    assert result.duration == SEC // 2 + 100
    assert link.bytes_sent == 512 * 1024
    assert link.transfers == 1


def test_concurrent_transfers_serialize():
    sim = Simulator()
    link = NetworkLink(sim, bandwidth_bytes_per_sec=1 * MIB)
    finished = []

    def sender(name, nbytes):
        result = yield from link.transfer(nbytes)
        finished.append((name, result.finished_at))

    sim.spawn(sender("a", 1 * MIB))
    sim.spawn(sender("b", 1 * MIB))
    sim.run()
    assert finished == [("a", SEC + 100), ("b", 2 * (SEC + 100))]


def test_zero_byte_transfer_with_latency():
    sim = Simulator()
    link = NetworkLink(sim, bandwidth_bytes_per_sec=1 * MIB)

    def proc():
        result = yield from link.transfer(0)
        return result

    p = sim.spawn(proc())
    result = sim.run_until_process(p)
    assert result.duration == 100


def test_invalid_parameters():
    # ConfigError, not bare ValueError: the "one catchable base class"
    # contract of repro.util.errors.
    sim = Simulator()
    with pytest.raises(ConfigError):
        NetworkLink(sim, bandwidth_bytes_per_sec=0)
    link = NetworkLink(sim, bandwidth_bytes_per_sec=1)
    with pytest.raises(ConfigError):
        link.transmission_time(-5)
