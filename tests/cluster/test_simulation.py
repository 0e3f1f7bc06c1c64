"""Integration tests for the simulation driver against queueing theory."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.ablation.runid import resolve_simulation_spec, run_id
from repro.analysis.mmk import random_split_response_time
from repro.cluster.simulation import ClusterSimulation
from repro.core.ksubset import KSubsetPolicy
from repro.core.li_basic import BasicLIPolicy
from repro.core.random_policy import RandomPolicy
from repro.staleness.periodic import PeriodicUpdate
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.distributions import Constant
from repro.workloads.service import exponential_service
from tests.conftest import small_simulation


class TestMM1Validation:
    """Oblivious random splits Poisson traffic into independent M/M/1s."""

    @pytest.mark.parametrize("load", [0.5, 0.7, 0.9])
    def test_random_policy_matches_mm1(self, load):
        result = small_simulation(
            RandomPolicy(), load=load, total_jobs=60_000, seed=11
        ).run()
        expected = random_split_response_time(load)
        assert result.mean_response_time == pytest.approx(expected, rel=0.12)

    def test_single_server_mm1(self):
        sim = ClusterSimulation(
            num_servers=1,
            arrivals=PoissonArrivals(0.8),
            service=exponential_service(),
            policy=RandomPolicy(),
            staleness=PeriodicUpdate(1.0),
            total_jobs=60_000,
            seed=2,
        )
        assert sim.run().mean_response_time == pytest.approx(5.0, rel=0.15)

    def test_md1_lower_than_mm1(self):
        """Deterministic service halves the queueing component (M/D/1)."""
        exp_result = small_simulation(
            RandomPolicy(), total_jobs=60_000, seed=4
        ).run()
        det_result = small_simulation(
            RandomPolicy(), service=Constant(1.0), total_jobs=60_000, seed=4
        ).run()
        # M/D/1 wait = half the M/M/1 wait; response = 1 + wait.
        assert det_result.mean_response_time < exp_result.mean_response_time
        expected_md1 = 1.0 + 0.5 * (random_split_response_time(0.9) - 1.0)
        assert det_result.mean_response_time == pytest.approx(
            expected_md1, rel=0.15
        )


class TestBookkeeping:
    def test_total_jobs_exact(self):
        result = small_simulation(RandomPolicy(), total_jobs=5_000).run()
        assert result.jobs_total == 5_000
        assert result.dispatch_counts.sum() == 5_000

    def test_warmup_respected(self):
        result = small_simulation(
            RandomPolicy(), total_jobs=10_000, warmup_fraction=0.25
        ).run()
        assert result.jobs_measured == 7_500

    def test_dispatch_fractions_sum_to_one(self):
        result = small_simulation(RandomPolicy(), total_jobs=2_000).run()
        assert result.dispatch_fractions.sum() == pytest.approx(1.0)

    def test_duration_positive_and_sane(self):
        # 10 servers at aggregate rate 9 => ~jobs/9 time units.
        result = small_simulation(RandomPolicy(), total_jobs=9_000).run()
        assert result.duration == pytest.approx(1_000.0, rel=0.2)

    def test_offered_load_property(self):
        sim = small_simulation(RandomPolicy(), load=0.9)
        assert sim.offered_load == pytest.approx(0.9)

    def test_offered_load_with_zero_capacity_is_infinite(self):
        # Every server rate-profiled to zero: any positive arrival rate
        # overloads the cluster infinitely; must not ZeroDivisionError.
        sim = small_simulation(
            RandomPolicy(), num_servers=2, server_rates=[0.0, 0.0]
        )
        assert sim.offered_load == math.inf


class TestDeterminism:
    def test_same_seed_same_result(self):
        first = small_simulation(BasicLIPolicy(), total_jobs=5_000, seed=3).run()
        second = small_simulation(BasicLIPolicy(), total_jobs=5_000, seed=3).run()
        assert first.mean_response_time == second.mean_response_time
        np.testing.assert_array_equal(
            first.dispatch_counts, second.dispatch_counts
        )

    def test_different_seed_different_result(self):
        first = small_simulation(BasicLIPolicy(), total_jobs=5_000, seed=3).run()
        second = small_simulation(BasicLIPolicy(), total_jobs=5_000, seed=4).run()
        assert first.mean_response_time != second.mean_response_time

    def test_common_random_numbers_across_policies(self):
        """Swapping the policy must not change the arrival/service draws."""
        random_run = small_simulation(
            RandomPolicy(), total_jobs=3_000, seed=5, trace_jobs=True
        ).run()
        ksubset_run = small_simulation(
            KSubsetPolicy(2), total_jobs=3_000, seed=5, trace_jobs=True
        ).run()
        random_arrivals = [job.arrival_time for job in random_run.trace]
        ksubset_arrivals = [job.arrival_time for job in ksubset_run.trace]
        assert random_arrivals == ksubset_arrivals
        random_services = [job.service_time for job in random_run.trace]
        ksubset_services = [job.service_time for job in ksubset_run.trace]
        assert random_services == ksubset_services


class TestTracing:
    def test_trace_jobs(self):
        result = small_simulation(
            RandomPolicy(), total_jobs=100, trace_jobs=True
        ).run()
        assert len(result.trace) == 100
        job = result.trace[50]
        assert job.completion_time >= job.arrival_time + job.service_time - 1e-12
        assert job.response_time == pytest.approx(
            job.queueing_delay + job.service_time
        )

    def test_trace_response_times(self):
        result = small_simulation(
            RandomPolicy(),
            total_jobs=1_000,
            warmup_fraction=0.1,
            trace_response_times=True,
        ).run()
        assert len(result.response_times) == 900
        assert result.response_times.mean() == pytest.approx(
            result.mean_response_time
        )

    def test_trace_disabled_returns_none(self):
        result = small_simulation(RandomPolicy(), total_jobs=100).run()
        assert result.trace is None
        assert result.response_times is None


class TestHeterogeneousServers:
    def test_faster_server_attracts_no_extra_random_traffic(self):
        """Random ignores rates; the fast server just finishes sooner."""
        sim = ClusterSimulation(
            num_servers=2,
            arrivals=PoissonArrivals(1.0),
            service=exponential_service(),
            policy=RandomPolicy(),
            staleness=PeriodicUpdate(1.0),
            total_jobs=20_000,
            seed=6,
            server_rates=[1.0, 4.0],
        )
        result = sim.run()
        fractions = result.dispatch_fractions
        assert fractions[0] == pytest.approx(0.5, abs=0.02)

    def test_li_shifts_load_to_faster_server(self):
        """LI reads queue lengths, so the faster (shorter-queued) server
        receives more work."""
        sim = ClusterSimulation(
            num_servers=2,
            arrivals=PoissonArrivals(1.6),
            service=exponential_service(),
            policy=BasicLIPolicy(),
            staleness=PeriodicUpdate(1.0),
            total_jobs=20_000,
            seed=6,
            server_rates=[1.0, 3.0],
        )
        result = sim.run()
        assert result.dispatch_fractions[1] > 0.55

    def test_rates_length_validated(self):
        with pytest.raises(ValueError, match="entries"):
            ClusterSimulation(
                num_servers=3,
                arrivals=PoissonArrivals(1.0),
                service=exponential_service(),
                policy=RandomPolicy(),
                staleness=PeriodicUpdate(1.0),
                server_rates=[1.0, 1.0],
            )


class TestServerRatesInputs:
    """Lists, tuples and arrays of rates are one configuration."""

    RATES = [2.0, 0.5, 1.0, 1.5]

    def _rated(self, rates, engine: str = "auto") -> ClusterSimulation:
        return ClusterSimulation(
            num_servers=4,
            arrivals=PoissonArrivals(3.0),
            service=exponential_service(),
            policy=BasicLIPolicy(),
            staleness=PeriodicUpdate(1.0),
            total_jobs=3_000,
            seed=6,
            trace_jobs=True,
            trace_response_times=True,
            server_rates=rates,
            engine=engine,
        )

    @pytest.mark.parametrize("engine", ["event", "fast", "vector"])
    def test_array_rates_match_list_rates_bitwise(self, engine):
        listed = self._rated(self.RATES, engine).run()
        arrayed = self._rated(np.array(self.RATES), engine).run()
        assert arrayed.mean_response_time == listed.mean_response_time
        assert arrayed.duration == listed.duration
        assert np.array_equal(arrayed.dispatch_counts, listed.dispatch_counts)
        assert arrayed.response_times.tobytes() == listed.response_times.tobytes()
        assert arrayed.trace == listed.trace

    @pytest.mark.parametrize(
        "rates",
        [
            np.array(RATES),
            tuple(RATES),
            [2, 0.5, 1, 1.5],
            np.array(RATES, dtype=np.float32),
        ],
        ids=["ndarray", "tuple", "ints", "float32"],
    )
    def test_rates_become_a_list_of_floats(self, rates):
        stored = self._rated(rates).server_rates
        assert stored == self.RATES
        assert all(type(rate) is float for rate in stored)

    def test_run_id_of_list_rates_is_unchanged(self):
        def identity(rates) -> str:
            return run_id(
                resolve_simulation_spec(
                    self._rated(rates),
                    figure_id="ext-hetero",
                    curve="basic-li",
                    x=1.0,
                    seed=6,
                    jobs=3_000,
                    metric="mean_response_time",
                )
            )

        # The ID a float list hashed to before rates were normalized.
        pinned = "58791db755ff1b656699dbe065f0926aec3475d2a581c7ed47ceae02dd7fc5f8"
        assert identity(self.RATES) == pinned
        assert identity(np.array(self.RATES)) == pinned
        assert identity(tuple(self.RATES)) == pinned


class TestValidation:
    def test_invalid_num_servers(self):
        with pytest.raises(ValueError, match="num_servers"):
            small_simulation(
                RandomPolicy(), num_servers=0, arrivals=PoissonArrivals(1.0)
            )

    def test_invalid_total_jobs(self):
        with pytest.raises(ValueError, match="total_jobs"):
            small_simulation(RandomPolicy(), total_jobs=0)

    def test_invalid_warmup(self):
        with pytest.raises(ValueError, match="warmup_fraction"):
            small_simulation(RandomPolicy(), warmup_fraction=1.0)

    def test_policy_returning_bad_server_caught(self):
        class BrokenPolicy(RandomPolicy):
            def select(self, view):
                return 999

        with pytest.raises(RuntimeError, match="invalid server"):
            small_simulation(BrokenPolicy(), total_jobs=10).run()


class TestTailLatency:
    def test_percentiles_ordered(self):
        result = small_simulation(
            RandomPolicy(), total_jobs=20_000, trace_response_times=True
        ).run()
        p50 = result.response_time_percentile(0.50)
        p95 = result.response_time_percentile(0.95)
        p99 = result.response_time_percentile(0.99)
        assert p50 < p95 < p99

    def test_mm1_median_matches_theory(self):
        """M/M/1 response times are exponential(mu - lambda); the median
        is ln(2)/(1 - rho) at mu = 1."""
        import math

        from repro.analysis.mmk import mm1_response_time_quantile

        result = small_simulation(
            RandomPolicy(), load=0.8, total_jobs=60_000,
            trace_response_times=True, seed=12,
        ).run()
        expected = mm1_response_time_quantile(0.8, 0.5)
        assert result.response_time_percentile(0.5) == pytest.approx(
            expected, rel=0.1
        )
        assert expected == pytest.approx(math.log(2.0) / 0.2)

    def test_requires_tracing(self):
        result = small_simulation(RandomPolicy(), total_jobs=100).run()
        with pytest.raises(RuntimeError, match="not traced"):
            result.response_time_percentile(0.99)

    def test_invalid_quantile(self):
        result = small_simulation(
            RandomPolicy(), total_jobs=100, trace_response_times=True
        ).run()
        with pytest.raises(ValueError, match="quantile"):
            result.response_time_percentile(1.0)

    def test_li_improves_tails_not_just_means(self):
        """The herd effect bites hardest at the tail: LI's p99 advantage
        over greedy with stale info exceeds its mean advantage."""
        from repro.staleness.periodic import PeriodicUpdate

        greedy = small_simulation(
            KSubsetPolicy(10),
            staleness=PeriodicUpdate(16.0),
            total_jobs=30_000,
            trace_response_times=True,
            seed=13,
        ).run()
        li = small_simulation(
            BasicLIPolicy(),
            staleness=PeriodicUpdate(16.0),
            total_jobs=30_000,
            trace_response_times=True,
            seed=13,
        ).run()
        assert li.response_time_percentile(0.99) < greedy.response_time_percentile(0.99)
        assert li.mean_response_time < greedy.mean_response_time
