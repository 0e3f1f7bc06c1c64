"""The phase-batch kernel's per-phase choice of FCFS integrator.

Each phase runs on the scalar loop or the numpy rounds recurrence,
whichever its batch shape favours.  These tests pin a cell whose phases
fall on both sides of the crossover against the event engine on every
feature the integrators and the shared board state must replay, and pin
the phase accounting the kernel publishes in ``last_batch_summary``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ablation.runid import resolve_simulation_spec, run_id
from repro.cluster.simulation import ClusterSimulation
from repro.core.li_basic import BasicLIPolicy
from repro.engine.fastpath import VECTOR_MIN_JOBS_PER_ROUND
from repro.obs import EngineProvenanceProbe
from repro.staleness.lossy import LossyPeriodicUpdate
from repro.staleness.periodic import PeriodicUpdate
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.service import exponential_service

NUM_SERVERS = 200


def _mixed_cell(engine: str, metric: str, **overrides) -> ClusterSimulation:
    """n=200 at λT = 9 with half the refreshes dropped.

    Delivered phases hold ~9 arrivals (below the crossover: scalar), and
    each dropped refresh merges two phases, so runs of drops build
    batches of dozens of arrivals spread over few rounds (numpy).
    """
    kwargs = dict(
        num_servers=NUM_SERVERS,
        arrivals=PoissonArrivals(0.9 * NUM_SERVERS),
        service=exponential_service(),
        policy=BasicLIPolicy(),
        staleness=LossyPeriodicUpdate(
            period=0.05, drop_probability=0.5, metric=metric
        ),
        total_jobs=3_000,
        seed=11,
        trace_response_times=True,
        engine=engine,
    )
    kwargs.update(overrides)
    return ClusterSimulation(**kwargs)


FEATURES = {
    "homogeneous": {},
    "heterogeneous-rates": {
        "server_rates": [2.0, 0.5] * (NUM_SERVERS // 2),
    },
    "client-latency": {
        "client_latency": np.linspace(0.0, 0.4, NUM_SERVERS).reshape(
            1, NUM_SERVERS
        ),
    },
}


class TestMixedPhasesBitIdentical:
    @pytest.mark.parametrize("feature", sorted(FEATURES))
    @pytest.mark.parametrize("metric", ["queue-length", "work-backlog"])
    def test_matches_event_engine(self, metric, feature):
        event_sim = _mixed_cell("event", metric, **FEATURES[feature])
        event = event_sim.run()
        batch_sim = _mixed_cell("auto", metric, **FEATURES[feature])
        batch = batch_sim.run()

        summary = batch_sim.last_batch_summary
        assert summary["scalar_phases"] > 0
        assert summary["vector_phases"] > 0

        assert batch.mean_response_time == event.mean_response_time
        assert type(batch.mean_response_time) is type(event.mean_response_time)
        assert batch.jobs_measured == event.jobs_measured
        assert batch.duration == event.duration
        assert np.array_equal(batch.dispatch_counts, event.dispatch_counts)
        assert np.array_equal(batch.response_times, event.response_times)
        assert (
            batch_sim.staleness.refreshes_dropped
            == event_sim.staleness.refreshes_dropped
            > 0
        )

    def test_job_traces_match(self):
        event = _mixed_cell("event", "queue-length", trace_jobs=True).run()
        batch = _mixed_cell("auto", "queue-length", trace_jobs=True).run()
        assert batch.trace == event.trace


class TestBatchSummary:
    def _short_phase(self, engine: str) -> ClusterSimulation:
        # λT = 0.9: most phases hold zero or one arrival.
        return ClusterSimulation(
            num_servers=10,
            arrivals=PoissonArrivals(9.0),
            service=exponential_service(),
            policy=BasicLIPolicy(),
            staleness=PeriodicUpdate(period=0.1),
            total_jobs=2_000,
            seed=3,
            engine=engine,
        )

    def test_counts_partition_the_phases(self):
        simulation = self._short_phase("auto")
        simulation.run()
        summary = simulation.last_batch_summary
        assert set(summary) == {
            "phases",
            "empty_phases",
            "scalar_phases",
            "vector_phases",
        }
        assert summary["empty_phases"] > 0
        assert summary["phases"] == (
            summary["empty_phases"]
            + summary["scalar_phases"]
            + summary["vector_phases"]
        )

    def test_select_batch_runs_once_per_nonempty_phase(self):
        simulation = self._short_phase("auto")
        calls = []
        select_batch = simulation.policy.select_batch

        def counting(view, arrival_times):
            calls.append(len(arrival_times))
            return select_batch(view, arrival_times)

        simulation.policy.select_batch = counting
        simulation.run()
        summary = simulation.last_batch_summary
        assert len(calls) == summary["phases"] - summary["empty_phases"]
        assert min(calls) >= 1

    def test_vector_engine_puts_every_phase_on_numpy(self):
        simulation = self._short_phase("vector")
        simulation.run()
        assert simulation.engine_used == "vector"
        assert simulation.last_batch_summary["scalar_phases"] == 0
        assert simulation.last_batch_summary["vector_phases"] > 0

    def test_small_batches_stay_scalar(self):
        simulation = self._short_phase("auto")
        simulation.run()
        assert simulation.engine_used == "fast"
        # No phase of this cell comes near the crossover's job count.
        assert VECTOR_MIN_JOBS_PER_ROUND > 4
        assert simulation.last_batch_summary["vector_phases"] == 0

    @pytest.mark.parametrize("engine", ["fast", "vector"])
    def test_provenance_probe_surfaces_summary(self, engine):
        probe = EngineProvenanceProbe()
        simulation = self._short_phase(engine)
        simulation.probes = [probe]
        simulation.run()
        assert probe.summary()["batch"] == simulation.last_batch_summary

    def test_event_runs_carry_no_batch_digest(self):
        probe = EngineProvenanceProbe()
        simulation = self._short_phase("event")
        simulation.probes = [probe]
        simulation.run()
        assert "batch" not in probe.summary()

    def test_run_id_ignores_summary(self):
        simulation = self._short_phase("auto")

        def identity():
            return run_id(
                resolve_simulation_spec(
                    simulation,
                    figure_id="fig2",
                    curve="basic-li",
                    x=0.1,
                    seed=3,
                    jobs=2_000,
                    metric="mean_response_time",
                )
            )

        before = identity()
        simulation.run()
        assert simulation.last_batch_summary is not None
        assert identity() == before
