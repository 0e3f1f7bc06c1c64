"""The small-cluster water-fill must be the numpy formula, bit for bit.

For clusters of at most :data:`~repro.core.weights.LIST_MAX_SERVERS`
servers :func:`~repro.core.weights.waterfill_probabilities` computes the
level, the deficits and their total on Python floats.  Any difference
from the numpy formula, even in the last bit, would move every golden
digest, so these tests compare the two paths bitwise on inputs Hypothesis
picks, check that every input the numpy path rejects is rejected with
the same message, and pin the pairwise total against ``np.add.reduce``:
a numpy release that changed its summation order fails here, by name.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import weights
from repro.core.weights import (
    LIST_MAX_SERVERS,
    _waterfill_list,
    pairwise_sum,
    waterfill_probabilities,
)


@contextmanager
def _numpy_path():
    """Run :func:`waterfill_probabilities` on its numpy formula only."""
    saved = weights.LIST_MAX_SERVERS
    weights.LIST_MAX_SERVERS = 0
    try:
        yield
    finally:
        weights.LIST_MAX_SERVERS = saved


def _numpy_probabilities(loads, expected_arrivals) -> np.ndarray:
    with _numpy_path():
        return waterfill_probabilities(loads, expected_arrivals)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def load_vectors(draw) -> np.ndarray:
    n = draw(st.integers(1, LIST_MAX_SERVERS + 1))
    kind = draw(
        st.sampled_from(["integer", "fractional", "ties", "equal", "zeros"])
    )
    if kind == "integer":
        element = st.integers(0, 12).map(float)
    elif kind == "fractional":
        element = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
    elif kind == "ties":
        element = st.sampled_from([0.0, 0.25, 1.0, 3.0])
    elif kind == "equal":
        element = st.just(
            draw(st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False))
        )
    else:
        element = st.just(0.0)
    return np.array(
        draw(st.lists(element, min_size=n, max_size=n)), dtype=np.float64
    )


budgets = st.one_of(
    st.just(0.0),
    st.integers(1, 40).map(float),  # levels that land exactly on a load
    st.floats(5e-324, 1e-12),  # small enough to collapse onto the minimum
    st.floats(1e-6, 1e3),
    st.floats(1e3, 1e300),
)


class TestListPathMatchesNumpy:
    @given(loads=load_vectors(), budget=budgets)
    @settings(max_examples=500, deadline=None)
    def test_bitwise_equal(self, loads, budget):
        expected = _numpy_probabilities(loads, budget)
        assert _same_bits(waterfill_probabilities(loads, budget), expected)

    @pytest.mark.parametrize(
        ("loads", "budget"),
        [
            ([3.0, 0.0, 1.0, 1.0, 7.0], 2.5),
            (list(np.linspace(0.0, 9.0, LIST_MAX_SERVERS)), 40.0),
            ([2.0] * 8, 0.1),
        ],
    )
    def test_small_clusters_take_the_list_path(self, loads, budget):
        # The property above would hold vacuously if nothing took the
        # list path; ordinary inputs must.
        assert _waterfill_list(loads, budget) is not None
        loads = np.array(loads)
        assert _same_bits(
            waterfill_probabilities(loads, budget),
            _numpy_probabilities(loads, budget),
        )

    def test_collapsed_total_falls_back_like_numpy(self):
        # R so small that min(load) + R == min(load): every deficit is 0
        # and the numpy formula targets the least-loaded servers.
        loads = np.array([5.0, 7.0, 5.0])
        assert _waterfill_list(loads.tolist(), 1e-20) is None
        result = waterfill_probabilities(loads, 1e-20)
        assert _same_bits(result, _numpy_probabilities(loads, 1e-20))
        assert result.tolist() == [0.5, 0.0, 0.5]

    def test_numpy_scalar_budget(self):
        loads = np.array([0.0, 1.0, 4.0])
        budget = np.float64(2.0) * np.float64(1.5)
        assert _same_bits(
            waterfill_probabilities(loads, budget),
            _numpy_probabilities(loads, budget),
        )


def _message(loads, expected_arrivals) -> str:
    with _numpy_path(), pytest.raises(ValueError) as numpy_error:
        waterfill_probabilities(loads, expected_arrivals)
    return str(numpy_error.value)


class TestValidationUnchanged:
    @pytest.mark.parametrize(
        ("loads", "budget", "fragment"),
        [
            ([], 1.0, "need at least one server"),
            ([1.0, np.nan, 2.0], 1.0, "loads must be finite"),
            ([1.0, np.inf], 1.0, "loads must be finite"),
            ([np.nan, -1.0], 1.0, "loads must be finite"),
            ([-np.inf, 1.0], 1.0, "loads must be finite"),
            ([1.0, -0.5], 1.0, "loads must be non-negative"),
            ([1.0, 2.0], -1.0, "expected_arrivals must be finite and non-negative"),
            ([1.0, 2.0], np.nan, "expected_arrivals must be finite and non-negative"),
            ([1.0, 2.0], np.inf, "expected_arrivals must be finite and non-negative"),
        ],
    )
    def test_same_error_and_message(self, loads, budget, fragment):
        loads = np.array(loads, dtype=np.float64)
        expected = _message(loads, budget)
        assert fragment in expected
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            waterfill_probabilities(loads, budget)


class TestPairwiseSum:
    def test_matches_numpy_add_reduce(self):
        # If this fails, numpy changed the order in which add.reduce sums
        # a float64 vector: the list water-fill's total (and with it
        # every dispatch probability) would drift from the numpy path's.
        rng = np.random.default_rng(2024)
        for length in range(1, 301):
            for _ in range(4):
                values = rng.random(length) * 10.0 ** rng.uniform(-8, 8, length)
                values *= rng.choice([-1.0, 1.0], length)
                expected = np.add.reduce(values)
                got = pairwise_sum(values.tolist())
                assert np.float64(got).tobytes() == expected.tobytes(), length

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 16, 130])
    def test_signed_zeros(self, length):
        values = np.full(length, -0.0)
        assert (
            np.float64(pairwise_sum(values.tolist())).tobytes()
            == np.add.reduce(values).tobytes()
        )
