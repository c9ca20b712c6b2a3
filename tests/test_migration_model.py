"""DES migration models: convergence, downtime shapes, policies."""

import pytest

from repro.migration.model import (
    CPU_STATE_BYTES,
    THRESHOLD_PAGES,
    MigrationConfig,
    simulate_postcopy,
    simulate_precopy,
    simulate_stop_and_copy,
    unique_pages_dirtied,
)
from repro.sim.kernel import SEC, Simulator
from repro.sim.link import NetworkLink
from repro.util.errors import MigrationError
from repro.util.units import MIB, PAGE_SIZE

LINK_BPS = 125 * MIB  # ~1 Gbps => ~32k pages/s


def fresh_link():
    return NetworkLink(Simulator(), bandwidth_bytes_per_sec=LINK_BPS)


def cfg(**kw):
    base = dict(vm_pages=32768, dirty_rate_pps=4000.0)
    base.update(kw)
    return MigrationConfig(**base)


class TestDirtyModel:
    def test_zero_interval_or_rate(self):
        assert unique_pages_dirtied(cfg(), 0) == 0
        assert unique_pages_dirtied(cfg(dirty_rate_pps=0), SEC) == 0

    def test_unique_pages_saturate(self):
        c = cfg(vm_pages=1000, dirty_rate_pps=1e9)
        assert unique_pages_dirtied(c, SEC) == 1000

    def test_monotone_in_time(self):
        c = cfg()
        values = [unique_pages_dirtied(c, t) for t in
                  (1000, 10_000, 100_000, SEC)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(MigrationError):
            MigrationConfig(vm_pages=0).validate()
        with pytest.raises(MigrationError):
            MigrationConfig(dirty_rate_pps=-1).validate()


class TestPreCopy:
    def test_idle_vm_single_round(self):
        result = simulate_precopy(cfg(dirty_rate_pps=0), fresh_link())
        assert result.rounds == 1
        assert result.converged
        assert result.pages_sent == 32768
        # Downtime is just CPU state + nothing.
        assert result.downtime_us < 5000

    def test_downtime_grows_with_dirty_rate(self):
        downtimes = []
        for rate in (0, 8000, 40000):
            result = simulate_precopy(cfg(dirty_rate_pps=rate), fresh_link())
            downtimes.append(result.downtime_us)
        assert downtimes == sorted(downtimes)
        assert downtimes[-1] > 10 * downtimes[0]

    def test_nonconvergence_past_link_rate(self):
        result = simulate_precopy(cfg(dirty_rate_pps=40000), fresh_link())
        assert not result.converged
        assert result.rounds == cfg().max_rounds

    def test_round_sizes_decrease_when_converging(self):
        result = simulate_precopy(cfg(dirty_rate_pps=4000), fresh_link())
        assert result.converged
        assert result.round_sizes[0] == 32768
        assert result.round_sizes[-1] <= THRESHOLD_PAGES

    def test_total_time_exceeds_first_copy(self):
        result = simulate_precopy(cfg(), fresh_link())
        floor = 32768 * PAGE_SIZE / LINK_BPS * SEC
        assert result.total_time_us >= floor


class TestPostCopy:
    def test_downtime_independent_of_dirty_rate(self):
        d1 = simulate_postcopy(cfg(dirty_rate_pps=0), fresh_link())
        d2 = simulate_postcopy(cfg(dirty_rate_pps=50000), fresh_link())
        assert d1.downtime_us == d2.downtime_us

    def test_downtime_is_cpu_state_only(self):
        result = simulate_postcopy(cfg(), fresh_link())
        expected = fresh_link().transmission_time(CPU_STATE_BYTES)
        assert result.downtime_us == expected

    def test_every_page_sent_once_plus_faults(self):
        result = simulate_postcopy(cfg(), fresh_link())
        assert result.pages_sent == cfg().vm_pages + result.remote_faults
        assert result.remote_faults > 0


class TestStopAndCopy:
    def test_downtime_equals_total(self):
        result = simulate_stop_and_copy(cfg(), fresh_link())
        assert result.downtime_us == result.total_time_us
        assert result.pages_sent == cfg().vm_pages

    def test_worst_downtime_of_all(self):
        link_cfg = cfg(dirty_rate_pps=4000)
        sc = simulate_stop_and_copy(link_cfg, fresh_link())
        pre = simulate_precopy(link_cfg, fresh_link())
        post = simulate_postcopy(link_cfg, fresh_link())
        assert sc.downtime_us > pre.downtime_us
        assert sc.downtime_us > post.downtime_us


class TestTradeoffs:
    def test_precopy_vs_postcopy_crossover(self):
        # Below the link page rate pre-copy's downtime is small; above
        # it post-copy wins decisively on downtime.
        high = cfg(dirty_rate_pps=45000)
        pre = simulate_precopy(high, fresh_link())
        post = simulate_postcopy(high, fresh_link())
        assert post.downtime_us < pre.downtime_us / 10
        # ... but post-copy pays a degradation window instead.
        assert post.degraded_time_us > 0
