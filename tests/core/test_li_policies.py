"""Tests for the Load Interpretation policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.li_aggressive import AggressiveLIPolicy
from repro.core.li_basic import BasicLIPolicy
from repro.core.li_hybrid import HybridLIPolicy
from repro.core.li_subset import SubsetLIPolicy
from repro.core.rate_estimators import ExactRate
from repro.core.weights import waterfill_probabilities
from repro.engine.rng import RandomStreams
from tests.core.test_policies_baselines import (
    bound,
    make_view,
    selection_histogram,
)


def bound_with_rate(policy, num_servers=10, rate=0.9, seed=1):
    estimator = ExactRate()
    estimator.bind(num_servers, rate)
    policy.bind(num_servers, RandomStreams(seed).stream("policy"), estimator)
    return policy


class TestBasicLI:
    def test_fresh_info_targets_least_loaded(self):
        """T -> 0: all probability mass on the minimum (aggressive)."""
        policy = bound_with_rate(BasicLIPolicy())
        view = make_view(np.arange(10), horizon=1e-9, phase_based=True)
        histogram = selection_histogram(policy, view, draws=2_000)
        assert histogram[0] == pytest.approx(1.0)

    def test_stale_info_near_uniform(self):
        """T -> inf: conservative, nearly uniform distribution."""
        policy = bound_with_rate(BasicLIPolicy())
        view = make_view(np.arange(10), horizon=1e6, phase_based=True)
        histogram = selection_histogram(policy, view, draws=30_000)
        np.testing.assert_allclose(histogram, [0.1] * 10, atol=0.015)

    def test_matches_waterfill_distribution(self):
        loads = np.array([0.0, 2.0, 4.0, 6.0, 8.0, 1.0, 3.0, 5.0, 7.0, 9.0])
        horizon = 4.0
        policy = bound_with_rate(BasicLIPolicy(), rate=0.9)
        view = make_view(loads, horizon=horizon, phase_based=True)
        expected = waterfill_probabilities(loads, 0.9 * 10 * horizon)
        histogram = selection_histogram(policy, view, draws=60_000)
        np.testing.assert_allclose(histogram, expected, atol=0.012)

    def test_phase_cache_reused_within_version(self):
        policy = bound_with_rate(BasicLIPolicy())
        view = make_view(np.arange(10), horizon=4.0, phase_based=True, version=3)
        policy.select(view)
        cached = policy._cached_cumulative
        policy.select(view)
        assert policy._cached_cumulative is cached

    def test_phase_cache_invalidated_on_new_version(self):
        policy = bound_with_rate(BasicLIPolicy())
        first = make_view(np.arange(10), horizon=4.0, phase_based=True, version=0)
        policy.select(first)
        cached = policy._cached_cumulative
        second = make_view(
            np.arange(10)[::-1].copy(), horizon=4.0, phase_based=True, version=1
        )
        policy.select(second)
        assert policy._cached_cumulative is not cached

    def test_sliding_age_uses_elapsed_when_known(self):
        """Under continuous/UoA models with known age, effective window is
        the actual elapsed age; near-zero age must behave greedily."""
        policy = bound_with_rate(BasicLIPolicy())
        view = make_view(
            np.arange(10), horizon=100.0, elapsed=1e-9, phase_based=False
        )
        histogram = selection_histogram(policy, view, draws=1_000)
        assert histogram[0] == pytest.approx(1.0)

    def test_rebind_clears_cache(self):
        policy = bound_with_rate(BasicLIPolicy())
        view = make_view(np.arange(10), horizon=4.0, phase_based=True, version=0)
        policy.select(view)
        bound_with_rate(policy)  # fresh run
        assert policy._cached_cumulative is None


    @pytest.mark.parametrize("draws", [5, 60])
    def test_list_table_lookup_matches_searchsorted(self, draws):
        # Draws landing exactly on a table entry (and u = 0 below a
        # zero-probability first server) must pick the server
        # np.searchsorted(side="right") picks, on both lookup routes.
        table = [0.0, 0.25, 0.25, 0.5, 1.0]
        uniforms = np.resize([0.0, 0.25, 0.5, 0.75, 0.999], draws)
        picks = BasicLIPolicy._lookup(table, uniforms)
        expected = np.searchsorted(np.array(table), uniforms, side="right")
        assert np.array_equal(np.asarray(picks), expected)

class TestAggressiveLI:
    def test_phase_start_targets_least_loaded(self):
        policy = bound_with_rate(AggressiveLIPolicy())
        view = make_view(
            np.array([0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0]),
            horizon=100.0,
            elapsed=0.0,
            phase_based=True,
        )
        histogram = selection_histogram(policy, view, draws=1_000)
        assert histogram[0] == pytest.approx(1.0)

    def test_late_phase_spreads_uniformly(self):
        """After the equalization point, dispatch is uniform over all."""
        loads = np.array([0.0, 1.0] + [2.0] * 8)
        policy = bound_with_rate(AggressiveLIPolicy(), rate=0.9)
        # Total deficit = 2 + 1 = ... equalization ends at deficit/rate.
        total_deficit = (loads.max() - loads).sum()
        elapsed = total_deficit / 9.0 + 1.0
        view = make_view(loads, horizon=100.0, elapsed=elapsed, phase_based=True)
        histogram = selection_histogram(policy, view, draws=30_000)
        np.testing.assert_allclose(histogram, [0.1] * 10, atol=0.015)

    def test_mid_phase_targets_prefix(self):
        """During subinterval j, only the j least loaded are eligible."""
        loads = np.array([0.0, 0.0, 100.0] + [200.0] * 7)
        policy = bound_with_rate(AggressiveLIPolicy(), rate=1.0)
        # Subinterval 2 (both near-idle servers) runs until
        # 2*(100-0)/10 = 20 time units into the phase.
        view = make_view(loads, horizon=1000.0, elapsed=10.0, phase_based=True)
        histogram = selection_histogram(policy, view, draws=10_000)
        assert histogram[0] == pytest.approx(0.5, abs=0.03)
        assert histogram[1] == pytest.approx(0.5, abs=0.03)
        assert histogram[2:].sum() == 0.0

    def test_sliding_age_end_of_window_rule(self):
        """Continuous model: the subinterval at elapsed = T applies, making
        Aggressive *less* aggressive than Basic for large T."""
        loads = np.arange(10, dtype=float)
        policy = bound_with_rate(AggressiveLIPolicy(), rate=0.9)
        view = make_view(
            loads, horizon=1e6, elapsed=1e6, phase_based=False
        )
        histogram = selection_histogram(policy, view, draws=30_000)
        np.testing.assert_allclose(histogram, [0.1] * 10, atol=0.015)

    def test_ties_handled(self):
        policy = bound_with_rate(AggressiveLIPolicy())
        view = make_view(np.zeros(10), horizon=4.0, elapsed=0.0, phase_based=True)
        histogram = selection_histogram(policy, view, draws=20_000)
        np.testing.assert_allclose(histogram, [0.1] * 10, atol=0.015)


class TestHybridLI:
    def test_equalization_interval_proportional_to_deficit(self):
        loads = np.array([0.0, 10.0] + [10.0] * 8)
        policy = bound_with_rate(HybridLIPolicy(), rate=1.0)
        view = make_view(loads, horizon=100.0, elapsed=0.0, phase_based=True)
        histogram = selection_histogram(policy, view, draws=2_000)
        # During subinterval one all mass goes to the single deficit server.
        assert histogram[0] == pytest.approx(1.0)

    def test_uniform_after_equalization(self):
        loads = np.array([0.0, 10.0] + [10.0] * 8)
        policy = bound_with_rate(HybridLIPolicy(), rate=1.0)
        # Deficit 10, total rate 10 -> equalization span 1.0.
        view = make_view(loads, horizon=100.0, elapsed=2.0, phase_based=True)
        histogram = selection_histogram(policy, view, draws=30_000)
        np.testing.assert_allclose(histogram, [0.1] * 10, atol=0.015)

    def test_balanced_loads_uniform_immediately(self):
        policy = bound_with_rate(HybridLIPolicy())
        view = make_view(np.full(10, 3.0), horizon=4.0, elapsed=0.0)
        histogram = selection_histogram(policy, view, draws=30_000)
        np.testing.assert_allclose(histogram, [0.1] * 10, atol=0.015)


class TestSubsetLI:
    def test_k_equal_n_matches_basic_li(self):
        loads = np.arange(10, dtype=float)
        horizon = 4.0
        subset_policy = bound_with_rate(SubsetLIPolicy(10))
        view = make_view(loads, horizon=horizon, phase_based=True)
        histogram = selection_histogram(subset_policy, view, draws=60_000)
        expected = waterfill_probabilities(loads, 0.9 * 10 * horizon)
        np.testing.assert_allclose(histogram, expected, atol=0.012)

    def test_k1_is_uniform(self):
        policy = bound_with_rate(SubsetLIPolicy(1))
        histogram = selection_histogram(
            policy, make_view(np.arange(10), horizon=4.0), draws=30_000
        )
        np.testing.assert_allclose(histogram, [0.1] * 10, atol=0.015)

    def test_probabilities_scale_with_subset_share(self):
        """LI-k must use R = lambda * k * T, so heavy servers inside a
        lucky subset still receive traffic when T is large."""
        policy = bound_with_rate(SubsetLIPolicy(2))
        view = make_view(np.arange(10), horizon=1e6, phase_based=True)
        histogram = selection_histogram(policy, view, draws=40_000)
        # With huge T every subset spreads ~evenly over its two members,
        # and each server appears in subsets uniformly -> overall uniform.
        np.testing.assert_allclose(histogram, [0.1] * 10, atol=0.015)

    def test_fresh_info_greedy_within_subset(self):
        policy = bound_with_rate(SubsetLIPolicy(2))
        view = make_view(np.arange(10), horizon=1e-9, phase_based=True)
        histogram = selection_histogram(policy, view, draws=40_000)
        # Greedy within each random pair = the k=2-subset distribution.
        from repro.analysis.ksubset_analytic import ksubset_rank_distribution

        np.testing.assert_allclose(
            histogram, ksubset_rank_distribution(10, 2), atol=0.012
        )

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            SubsetLIPolicy(0)

    def test_k_validated_at_bind(self):
        with pytest.raises(ValueError, match="exceeds"):
            bound_with_rate(SubsetLIPolicy(11))


class TestTimestampAwareBasicLI:
    def test_identical_when_age_within_phase(self):
        """In a lossless system (elapsed <= horizon) the variant is
        indistinguishable from paper-faithful Basic LI."""
        plain = bound_with_rate(BasicLIPolicy())
        aware = bound_with_rate(BasicLIPolicy(timestamp_aware=True))
        view = make_view(
            np.arange(10), horizon=4.0, elapsed=2.0, phase_based=True
        )
        plain_histogram = selection_histogram(plain, view, draws=20_000)
        aware_histogram = selection_histogram(aware, view, draws=20_000)
        np.testing.assert_allclose(plain_histogram, aware_histogram, atol=0.02)

    def test_widens_window_when_board_overdue(self):
        """With the board older than a phase, the aware variant spreads
        more (interprets over the true age) than the plain one."""
        plain = bound_with_rate(BasicLIPolicy())
        aware = bound_with_rate(BasicLIPolicy(timestamp_aware=True))
        view = make_view(
            np.arange(10), horizon=4.0, elapsed=400.0, phase_based=True
        )
        plain_histogram = selection_histogram(plain, view, draws=30_000)
        aware_histogram = selection_histogram(aware, view, draws=30_000)
        # Aware: near uniform; plain: still concentrated on low loads.
        assert aware_histogram[0] < plain_histogram[0]
        np.testing.assert_allclose(aware_histogram, [0.1] * 10, atol=0.02)

    def test_overdue_views_bypass_cache(self):
        aware = bound_with_rate(BasicLIPolicy(timestamp_aware=True))
        normal = make_view(
            np.arange(10), horizon=4.0, elapsed=1.0, phase_based=True, version=1
        )
        aware.select(normal)
        assert aware._cached_version == 1
        overdue = make_view(
            np.arange(10), horizon=4.0, elapsed=40.0, phase_based=True, version=1
        )
        cached = aware._cached_cumulative
        aware.select(overdue)
        # Cache untouched by the overdue path.
        assert aware._cached_cumulative is cached

    def test_name_distinguishes_variant(self):
        assert BasicLIPolicy(timestamp_aware=True).name == "basic-li(ts)"
        assert BasicLIPolicy().name == "basic-li"
