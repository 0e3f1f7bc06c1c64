"""Cross-engine equivalence: fast and vector must be bit-identical.

The phase-batch kernel (:mod:`repro.engine.fastpath`), run as
``engine="fast"`` or with every phase on its numpy integrator as
``engine="vector"``, claims bitwise
equality with the event-driven reference engine — not statistical
agreement, *the same floats*.  These tests pin that contract on real
registry cells across seeds — including a sweep over *every* registry
curve, where any fast-path-eligible cell must agree across all three
engines — and pin the fallback matrix: every configuration a kernel
cannot replay must silently run on the event engine (or fail loudly
when the kernel is forced).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.simulation import ClusterSimulation
from repro.cluster.stealing import StealingClusterSimulation, StealingConfig
from repro.core.li_basic import BasicLIPolicy
from repro.core.random_policy import RandomPolicy
from repro.experiments.registry import figure_ids, get_figure
from repro.experiments.runner import run_cell
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.staleness.periodic import PeriodicUpdate
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.service import exponential_service

SEEDS = (1, 2, 3)
KERNELS = ("fast", "vector")


def _registry_cells():
    """One (figure, curve, x) per registry curve: the middle x-value."""
    cells = []
    for figure_id in figure_ids():
        spec = get_figure(figure_id)
        x = spec.x_values[len(spec.x_values) // 2]
        for curve in spec.curves:
            cells.append((figure_id, curve.label, x))
    return cells


def _build_cell(figure_id, curve, x, seed):
    spec = get_figure(figure_id)
    curve_spec = next(c for c in spec.curves if c.label == curve)
    return spec.build_simulation(curve_spec, x, seed, 1_200)


def _batch_eligible(simulation) -> bool:
    return (
        type(simulation) is ClusterSimulation
        and simulation.fast_path_blocker() is None
    )


#: The registry cells split at collection time by whether the batch
#: kernels can replay them (eligibility does not depend on the seed).
ELIGIBLE_CELLS = []
INELIGIBLE_CELLS = []
for _cell in _registry_cells():
    if _batch_eligible(_build_cell(*_cell, SEEDS[0])):
        ELIGIBLE_CELLS.append(_cell)
    else:
        INELIGIBLE_CELLS.append(_cell)


class TestRegistryCellsBitIdentical:
    """fig2 / fig4 / fig5 cells: all three engines, three seeds, same floats."""

    @pytest.mark.parametrize("engine", KERNELS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        ("figure_id", "curve", "x"),
        [
            ("fig2", "basic-li", 2.0),
            ("fig2", "aggressive-li", 2.0),
            ("fig2", "random", 8.0),
            ("fig2", "k=10", 0.5),
            ("fig4", "basic-li", 2.0),
            ("fig5b", "thr=4,k=10", 2.0),
        ],
    )
    def test_cell_means_match_bitwise(self, figure_id, curve, x, seed, engine):
        event = run_cell(figure_id, curve, x, seed, 2_500, engine="event")
        kernel = run_cell(figure_id, curve, x, seed, 2_500, engine=engine)
        assert event == kernel  # exact equality, not approx

    @pytest.mark.parametrize("engine", KERNELS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lossy_cell_means_match_bitwise(self, seed, engine):
        event = run_cell("ext-lossy", "basic-li", 0.4, seed, 2_500, engine="event")
        kernel = run_cell("ext-lossy", "basic-li", 0.4, seed, 2_500, engine=engine)
        assert event == kernel


class TestEveryEligibleRegistryCell:
    """The acceptance sweep: walk the whole registry, one x per curve.

    Any cell the fast path can replay, the vector kernel must replay with
    the same floats (they share the eligibility matrix by construction —
    ``engine_decision`` consults the same ``fast_path_blocker``).  Cells
    are split by eligibility at collection time and the split is pinned,
    so a cell that silently loses (or gains) batch eligibility fails the
    count test instead of vanishing into a skip.
    """

    def test_eligibility_split_is_pinned(self):
        assert len(ELIGIBLE_CELLS) + len(INELIGIBLE_CELLS) == len(_registry_cells())
        assert (len(ELIGIBLE_CELLS), len(INELIGIBLE_CELLS)) == (63, 195)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        ("figure_id", "curve", "x"),
        ELIGIBLE_CELLS,
        ids=lambda v: str(v),
    )
    def test_fast_and_vector_agree_bitwise(self, figure_id, curve, x, seed):
        def build(engine):
            simulation = _build_cell(figure_id, curve, x, seed)
            simulation.engine = engine
            return simulation

        probe = build("fast")
        assert _batch_eligible(probe), probe.fast_path_blocker()
        fast = probe.run()
        vector = build("vector").run()
        assert fast.mean_response_time == vector.mean_response_time
        assert fast.jobs_measured == vector.jobs_measured
        assert fast.duration == vector.duration
        assert np.array_equal(fast.dispatch_counts, vector.dispatch_counts)


class TestFullResultBitIdentical:
    """Every field of SimulationResult, not just the headline mean."""

    def _build(self, engine: str, seed: int) -> ClusterSimulation:
        return ClusterSimulation(
            num_servers=10,
            arrivals=PoissonArrivals(9.0),
            service=exponential_service(),
            policy=BasicLIPolicy(),
            staleness=PeriodicUpdate(period=2.0),
            total_jobs=4_000,
            seed=seed,
            trace_response_times=True,
            engine=engine,
        )

    @pytest.mark.parametrize("engine", KERNELS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_fields_match(self, seed, engine):
        event = self._build("event", seed).run()
        kernel = self._build(engine, seed).run()
        assert event.mean_response_time == kernel.mean_response_time
        assert event.jobs_measured == kernel.jobs_measured
        assert event.jobs_total == kernel.jobs_total
        assert event.duration == kernel.duration
        assert np.array_equal(event.dispatch_counts, kernel.dispatch_counts)
        assert np.array_equal(event.response_times, kernel.response_times)

    @pytest.mark.parametrize("engine", KERNELS)
    def test_mean_type_matches(self, engine):
        # The event engine's Welford mean is a python/numpy float chain;
        # latency post-processing must see the same dtype on both paths.
        event = self._build("event", 1).run()
        kernel = self._build(engine, 1).run()
        assert type(event.mean_response_time) is type(kernel.mean_response_time)


class TestEngineSelection:
    def _simulation(self, **overrides) -> ClusterSimulation:
        kwargs = dict(
            num_servers=10,
            arrivals=PoissonArrivals(9.0),
            service=exponential_service(),
            policy=BasicLIPolicy(),
            staleness=PeriodicUpdate(period=2.0),
            total_jobs=300,
            seed=5,
        )
        kwargs.update(overrides)
        return ClusterSimulation(**kwargs)

    def test_auto_picks_fast_on_eligible_configuration(self):
        simulation = self._simulation()
        simulation.run()
        assert simulation.engine_used == "fast"

    def test_event_can_be_forced(self):
        simulation = self._simulation(engine="event")
        simulation.run()
        assert simulation.engine_used == "event"

    def test_faults_fall_back_to_event(self):
        injector = FaultInjector(FaultSchedule(mttf=50.0, mttr=2.0))
        simulation = self._simulation(faults=injector)
        simulation.run()
        assert simulation.engine_used == "event"

    def test_faults_block_forced_fast(self):
        injector = FaultInjector(FaultSchedule(mttf=50.0, mttr=2.0))
        simulation = self._simulation(faults=injector, engine="fast")
        with pytest.raises(ValueError, match="fault injection"):
            simulation.run()

    def test_vector_can_be_forced(self):
        simulation = self._simulation(engine="vector")
        simulation.run()
        assert simulation.engine_used == "vector"

    def test_faults_block_forced_vector(self):
        injector = FaultInjector(FaultSchedule(mttf=50.0, mttr=2.0))
        simulation = self._simulation(faults=injector, engine="vector")
        with pytest.raises(ValueError, match="vector kernel is unavailable"):
            simulation.run()

    def test_auto_never_picks_vector_or_fluid(self):
        # The batch kernels are opt-in: auto resolves to fast/event only,
        # so default runs keep the long-standing engine choice.
        simulation = self._simulation()
        simulation.run()
        assert simulation.engine_used in ("fast", "event")

    def test_fluid_can_be_forced(self):
        simulation = self._simulation(engine="fluid")
        result = simulation.run()
        assert simulation.engine_used == "fluid"
        assert result.jobs_measured == 0  # analytic: no sampled jobs
        assert result.mean_response_time > 1.0  # above the no-wait floor

    def test_heterogeneous_rates_block_forced_fluid(self):
        simulation = self._simulation(
            server_rates=(2.0,) + (1.0,) * 9, engine="fluid"
        )
        with pytest.raises(ValueError, match="fluid engine is unavailable"):
            simulation.run()

    def test_faults_block_forced_fluid(self):
        injector = FaultInjector(FaultSchedule(mttf=50.0, mttr=2.0))
        simulation = self._simulation(faults=injector, engine="fluid")
        with pytest.raises(ValueError, match="fluid engine is unavailable"):
            simulation.run()

    def test_stealing_driver_stays_on_event_engine(self):
        simulation = StealingClusterSimulation(
            num_servers=4,
            arrivals=PoissonArrivals(3.6),
            service=exponential_service(),
            policy=RandomPolicy(),
            staleness=PeriodicUpdate(period=2.0),
            stealing=StealingConfig(),
            total_jobs=300,
            seed=5,
        )
        simulation.run()
        assert simulation.engine_used == "event"

    def test_subclass_overriding_select_falls_back(self):
        # The hazard `_policy_batch_consistent` exists for: a subclass
        # that changes select() but inherits the parent's select_batch()
        # would batch-replay the *parent's* behavior.
        class SkewedRandom(RandomPolicy):
            def select(self, view):
                return 0

        simulation = self._simulation(policy=SkewedRandom())
        simulation.run()
        assert simulation.engine_used == "event"

    def test_subclass_with_matching_batch_is_eligible(self):
        class SameRandom(RandomPolicy):
            def select(self, view):
                return super().select(view)

            def select_batch(self, view, arrival_times):
                return super().select_batch(view, arrival_times)

        simulation = self._simulation(policy=SameRandom())
        simulation.run()
        assert simulation.engine_used == "fast"
