"""Core multi-dispatcher driver tests: validation, determinism, identity.

The load-bearing property is the m=1 collapse: one dispatcher must replay
``ClusterSimulation``'s event-engine draw order exactly, so the whole
subsystem is a strict generalization of the single-dispatcher substrate.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.cluster.simulation import (
    ClusterSimulation,
    validate_dispatcher_count,
)
from repro.core.li_basic import BasicLIPolicy
from repro.core.rate_estimators import EWMARate
from repro.multidispatch import MultiDispatchResult, MultiDispatchSimulation
from repro.staleness.periodic import PeriodicUpdate
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.service import exponential_service


def _sim(**overrides) -> MultiDispatchSimulation:
    kwargs = dict(
        num_servers=10,
        total_rate=9.0,
        service=exponential_service(),
        policy=BasicLIPolicy,
        staleness=partial(PeriodicUpdate, 4.0),
        num_dispatchers=4,
        total_jobs=2_000,
        seed=3,
    )
    kwargs.update(overrides)
    return MultiDispatchSimulation(**kwargs)


class TestDispatcherCountValidation:
    @pytest.mark.parametrize("value", [1, 2, 16, 4.0, np.int64(8)])
    def test_valid_counts_accepted(self, value):
        assert validate_dispatcher_count(value) == int(value)

    @pytest.mark.parametrize(
        "value",
        [0, -1, 1.5, float("nan"), float("inf"), True, "4", None, [4]],
    )
    def test_invalid_counts_rejected(self, value):
        with pytest.raises(ValueError, match="dispatchers"):
            validate_dispatcher_count(value)

    def test_cluster_simulation_rejects_bad_count_at_construction(self):
        with pytest.raises(ValueError, match="dispatchers"):
            ClusterSimulation(
                num_servers=10,
                arrivals=PoissonArrivals(9.0),
                service=exponential_service(),
                policy=BasicLIPolicy(),
                staleness=PeriodicUpdate(4.0),
                total_jobs=100,
                seed=1,
                dispatchers=0,
            )


class TestConstructionValidation:
    def test_bad_board_rejected(self):
        with pytest.raises(ValueError, match="board"):
            _sim(board="replicated")

    def test_independent_board_needs_factory(self):
        with pytest.raises(ValueError, match="factory"):
            _sim(board="independent", staleness=PeriodicUpdate(4.0))

    def test_bad_lambda_view_rejected(self):
        with pytest.raises(ValueError, match="lambda_view"):
            _sim(lambda_view="approximate")

    def test_weight_count_must_match_dispatchers(self):
        with pytest.raises(ValueError, match="entries"):
            _sim(dispatcher_weights=[1.0, 2.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            _sim(dispatcher_weights=[1.0, 1.0, bad, 1.0])

    def test_dispatcher_faults_must_be_schedule(self):
        with pytest.raises(TypeError, match="FaultSchedule"):
            _sim(dispatcher_faults="mttf=40")

    def test_policy_must_be_instance_or_factory(self):
        with pytest.raises(TypeError, match="policy"):
            _sim(policy=42).run()

    @pytest.mark.parametrize("rate", [0.0, -9.0, float("nan"), float("inf")])
    def test_bad_total_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="total_rate"):
            _sim(total_rate=rate)


class TestDeterminism:
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_same_seed_same_result(self, m):
        first = _sim(num_dispatchers=m).run()
        second = _sim(num_dispatchers=m).run()
        assert first.mean_response_time == second.mean_response_time
        assert np.array_equal(first.dispatch_counts, second.dispatch_counts)
        assert np.array_equal(first.dispatcher_jobs, second.dispatcher_jobs)
        assert np.array_equal(first.dispatch_matrix, second.dispatch_matrix)

    def test_different_seeds_differ(self):
        assert (
            _sim(seed=3).run().mean_response_time
            != _sim(seed=4).run().mean_response_time
        )

    def test_template_policy_instance_not_mutated_across_runs(self):
        template = BasicLIPolicy()
        first = _sim(policy=template).run().mean_response_time
        second = _sim(policy=template).run().mean_response_time
        assert first == second


class TestSingleDispatcherIdentity:
    """m=1 must be bit-identical to ClusterSimulation's event engine."""

    def _cluster(self, **overrides) -> ClusterSimulation:
        kwargs = dict(
            num_servers=10,
            arrivals=PoissonArrivals(9.0),
            service=exponential_service(),
            policy=BasicLIPolicy(),
            staleness=PeriodicUpdate(4.0),
            total_jobs=2_000,
            seed=3,
            engine="event",
        )
        kwargs.update(overrides)
        return ClusterSimulation(**kwargs)

    def test_m1_bit_identical_to_event_engine(self):
        multi = _sim(num_dispatchers=1, staleness=PeriodicUpdate(4.0)).run()
        single = self._cluster().run()
        assert multi.mean_response_time == single.mean_response_time
        assert np.array_equal(multi.dispatch_counts, single.dispatch_counts)
        assert multi.duration == single.duration
        assert multi.jobs_measured == single.jobs_measured

    def test_cluster_simulation_dispatchers_1_unchanged(self):
        plain = self._cluster().run()
        with_knob = self._cluster(dispatchers=1).run()
        assert with_knob.mean_response_time == plain.mean_response_time
        assert np.array_equal(with_knob.dispatch_counts, plain.dispatch_counts)

    def test_cluster_simulation_delegates_to_multidispatch(self):
        delegated = self._cluster(dispatchers=4).run()
        direct = _sim(seed=3).run()
        assert isinstance(delegated, MultiDispatchResult)
        assert delegated.mean_response_time == direct.mean_response_time
        assert np.array_equal(
            delegated.dispatcher_jobs, direct.dispatcher_jobs
        )

    def test_delegation_requires_poisson_arrivals(self):
        from repro.workloads.arrivals import ClientArrivals

        simulation = self._cluster(
            arrivals=ClientArrivals(num_clients=4, total_rate=9.0),
            dispatchers=2,
        )
        with pytest.raises(ValueError, match="Poisson"):
            simulation.run()

    def test_delegation_rejects_server_faults(self):
        from repro.faults.injector import FaultInjector
        from repro.faults.schedule import FaultSchedule

        simulation = self._cluster(
            faults=FaultInjector(FaultSchedule(mttf=50.0)), dispatchers=2
        )
        with pytest.raises(ValueError, match="fault"):
            simulation.run()


class TestAccounting:
    def test_matrix_row_and_column_sums(self):
        result = _sim().run()
        assert result.dispatch_matrix.shape == (4, 10)
        assert np.array_equal(
            result.dispatch_matrix.sum(axis=1), result.dispatcher_jobs
        )
        assert np.array_equal(
            result.dispatch_matrix.sum(axis=0), result.dispatch_counts
        )
        assert result.dispatcher_jobs.sum() == result.jobs_total == 2_000
        assert result.jobs_redirected == 0
        assert result.messages == {"idle_reports": 0, "load_polls": 0}

    def test_even_split_is_roughly_balanced(self):
        jobs = _sim(total_jobs=8_000).run().dispatcher_jobs
        assert jobs.min() > 0.7 * jobs.mean()
        assert jobs.max() < 1.3 * jobs.mean()

    def test_weighted_split_is_proportional(self):
        result = _sim(
            dispatcher_weights=[1.0, 1.0, 1.0, 5.0], total_jobs=8_000
        ).run()
        shares = result.dispatcher_jobs / result.dispatcher_jobs.sum()
        assert shares[3] == pytest.approx(5.0 / 8.0, abs=0.05)

    def test_dispatcher_rates_sum_to_total(self):
        simulation = _sim(dispatcher_weights=[2.0, 1.0, 1.0, 4.0])
        assert sum(simulation.dispatcher_rates()) == pytest.approx(9.0)

    def test_trace_jobs_carry_dispatcher_id(self):
        trace = _sim(trace_jobs=True, total_jobs=500).run().trace
        assert len(trace) == 500
        assert {job.client_id for job in trace} == {0, 1, 2, 3}

    def test_per_dispatcher_estimators_are_independent(self):
        # An EWMA estimator learns each dispatcher's own stream; a shared
        # instance would see every arrival and converge to the global rate.
        result = _sim(rate_estimator=EWMARate, total_jobs=4_000).run()
        assert result.jobs_total == 4_000


class TestClusterShape:
    def test_server_rates_length_checked(self):
        with pytest.raises(ValueError, match="server_rates"):
            _sim(server_rates=[1.0, 2.0])

    def test_heterogeneous_servers_run(self):
        rates = [2.0] * 5 + [0.5] * 5
        result = _sim(server_rates=rates, total_jobs=4_000).run()
        # LI weights by capacity: fast servers take more work.
        assert (
            result.dispatch_counts[:5].sum() > result.dispatch_counts[5:].sum()
        )

    def test_array_rates_match_list_rates(self):
        rates = [2.0] * 5 + [0.5] * 5
        listed = _sim(server_rates=rates, total_jobs=2_000).run()
        arrayed = _sim(server_rates=np.array(rates), total_jobs=2_000).run()
        assert arrayed.mean_response_time == listed.mean_response_time
        assert np.array_equal(arrayed.dispatch_counts, listed.dispatch_counts)

    def test_client_latency_shape_checked(self):
        with pytest.raises(ValueError, match="client_latency"):
            _sim(client_latency=np.zeros((4, 3)))

    def test_client_latency_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="non-negative"):
            _sim(client_latency=-np.ones((4, 10)))

    def test_client_latency_inflates_response_times(self):
        base = _sim().run().mean_response_time
        slowed = _sim(
            client_latency=np.full((4, 10), 2.0)
        ).run().mean_response_time
        assert slowed == pytest.approx(base + 2.0)

    def test_repr_names_the_regime(self):
        text = repr(_sim())
        assert "num_dispatchers=4" in text
        assert "shared" in text

    def test_bad_num_servers_rejected(self):
        with pytest.raises(ValueError, match="num_servers"):
            _sim(num_servers=0)

    def test_bad_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup_fraction"):
            _sim(warmup_fraction=1.0)

    def test_bad_total_jobs_rejected(self):
        with pytest.raises(ValueError, match="total_jobs"):
            _sim(total_jobs=0)


class TestBoards:
    def test_independent_boards_differ_from_shared(self):
        shared = _sim(total_jobs=6_000).run().mean_response_time
        independent = _sim(
            board="independent", total_jobs=6_000
        ).run().mean_response_time
        assert shared != independent

    def test_stagger_changes_results(self):
        staggered = _sim(
            board="independent", total_jobs=6_000
        ).run().mean_response_time
        aligned = _sim(
            board="independent", stagger_phases=False, total_jobs=6_000
        ).run().mean_response_time
        assert staggered != aligned

    def test_shared_board_instance_reflects_run(self):
        board = PeriodicUpdate(4.0)
        _sim(staleness=board).run()
        assert board.version > 0


class TestPhaseOffset:
    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_invalid_phase_offset_rejected(self, bad):
        with pytest.raises(ValueError, match="phase_offset"):
            PeriodicUpdate(4.0, phase_offset=bad)

    def test_zero_offset_is_default_schedule(self):
        assert PeriodicUpdate(4.0).phase_offset == 0.0

    def test_offset_shifts_refresh_train(self):
        from repro.cluster.server import Server
        from repro.engine.rng import RandomStreams
        from repro.engine.simulator import Simulator

        def run_until_7(offset):
            sim = Simulator()
            board = PeriodicUpdate(2.0, phase_offset=offset)
            board.attach(sim, [Server(0)], RandomStreams(1).stream("s"))
            sim.schedule(7.0, sim.stop)
            sim.run()
            return board.version, board.phase_start

        # offset 0: refreshes at 2, 4, 6; offset 0.5: 0.5, 2.5, 4.5, 6.5.
        assert run_until_7(0.0) == (3, 6.0)
        assert run_until_7(0.5) == (4, 6.5)

    def test_repr_mentions_nonzero_offset(self):
        assert "phase_offset" in repr(PeriodicUpdate(4.0, phase_offset=1.0))
        assert "phase_offset" not in repr(PeriodicUpdate(4.0))
