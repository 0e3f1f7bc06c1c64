"""The water-filling mathematics at the heart of load interpretation.

Basic LI (Eqs. 2–4 of the paper) asks: given stale queue lengths ``q_i``
and ``R`` expected arrivals over the interpretation window, what dispatch
probabilities equalize the queues by the end of the window?  The answer is
classic water filling — pour ``R`` jobs into the valleys of the load
profile up to a common level ``L``::

    p_i = max(L - q_i, 0) / R,   where  sum_i max(L - q_i, 0) = R

When ``R`` is too small to equalize everything, only the ``c`` least-loaded
servers receive jobs (the paper's Eq. 3 chooses ``c``); when ``R`` is
large, every server receives jobs and the distribution approaches uniform —
exactly the fresh-aggressive / stale-conservative behavior LI is designed
to produce.

Aggressive LI (Eq. 5) instead equalizes as *early* as possible: the window
is split into subintervals, the ``j``-th of which sends jobs uniformly to
the ``j`` least-loaded servers until their level reaches the ``(j+1)``-th;
:func:`equalization_boundaries` computes the subinterval boundaries.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LIST_MAX_SERVERS",
    "pairwise_sum",
    "waterfill_probabilities",
    "waterfill_level",
    "weighted_waterfill_probabilities",
    "equalization_boundaries",
]

#: Cutover between Python-list and numpy per-phase work.  Clusters of at
#: most this many servers water-fill on lists (here) and keep Basic LI's
#: cumulative vector as a list, bisected for batches of at most this many
#: draws; the phase-batch kernel keeps its board on lists when the
#: servers plus the expected arrivals per phase fit within it.  List work
#: grows with the items it touches while a numpy call's fixed overhead
#: hardly does, and at ten items the overhead dominates several times
#: over.  Measured on a 2-vCPU x86-64 VM (DESIGN.md §8 has the table).
LIST_MAX_SERVERS = 48

#: numpy's pairwise summation: blocks shorter than this add sequentially,
#: blocks up to :data:`_PAIRWISE_BLOCK` add in eight interleaved
#: accumulators, longer ones split in two (``pairwise_sum`` in numpy's
#: ``loops_utils.h``).
_PAIRWISE_UNROLL = 8
_PAIRWISE_BLOCK = 128


def pairwise_sum(values: list[float]) -> float:
    """``np.add.reduce`` of a float64 vector, bit for bit, on a list.

    Floating-point addition is not associative, so a total that must
    equal numpy's has to add in numpy's order: the reduction starts from
    the identity ``0.0`` and adds the pairwise sum of all elements.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: list[float], start: int, count: int) -> float:
    if count < _PAIRWISE_UNROLL:
        total = 0.0
        for value in values[start:start + count]:
            total += value
        return total
    if count <= _PAIRWISE_BLOCK:
        stop = start + count
        blocks_end = stop - count % _PAIRWISE_UNROLL
        r = values[start:start + _PAIRWISE_UNROLL]
        for block in range(start + _PAIRWISE_UNROLL, blocks_end, _PAIRWISE_UNROLL):
            r = [a + b for a, b in zip(r, values[block:block + _PAIRWISE_UNROLL])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[blocks_end:stop]:
            total += value
        return total
    half = count // 2
    half -= half % _PAIRWISE_UNROLL
    return _pairwise(values, start, half) + _pairwise(
        values, start + half, count - half
    )


def _waterfill_list(
    values: list[float], expected_arrivals: float
) -> list[float] | None:
    """:func:`waterfill_probabilities`' main case on Python floats.

    Every step repeats the numpy formula's arithmetic in its order — a
    sequential prefix (``np.cumsum``), the level ``(prefix + R) / c``,
    ``max(level - q, 0)`` and numpy's pairwise total — so the result is
    bit-identical.  Returns ``None`` when the input needs the numpy path:
    a load that is negative or not finite, ``R`` that is zero or invalid
    (those paths raise or special-case), or a total that collapsed to 0.
    """
    if not 0.0 < expected_arrivals < math.inf:
        return None
    sorted_loads = sorted(values)
    # A NaN anywhere makes the prefix NaN and a +inf makes it inf, so
    # the two range tests below reject every load the numpy path would.
    if not sorted_loads[0] >= 0.0:
        return None
    prefix = 0.0
    count = 0
    level = 0.0
    # The level is that of the largest c whose level stays at or above
    # the c-th smallest load; c = 1 always qualifies since R > 0.
    for load in sorted_loads:
        prefix += load
        count += 1
        candidate = (prefix + expected_arrivals) / count
        if candidate >= load:
            level = candidate
    if not prefix < math.inf:
        return None
    deficits = [level - load if level > load else 0.0 for load in values]
    total = pairwise_sum(deficits)
    if total <= 0.0:
        return None
    return [deficit / total for deficit in deficits]


# The 1..n ladder used to turn load prefixes into candidate water levels.
# Cached per cluster size: the vector is immutable in every use below and
# rebuilding it dominated the profile of small-n water filling.
_counts_cache: dict[int, np.ndarray] = {}


def _counts(n: int) -> np.ndarray:
    counts = _counts_cache.get(n)
    if counts is None:
        counts = np.arange(1, n + 1, dtype=np.float64)
        _counts_cache[n] = counts
    return counts


def _check_finite_loads(loads: np.ndarray) -> None:
    if not np.isfinite(loads).all():
        raise ValueError(f"loads must be finite, got {loads!r}")


def waterfill_level(loads: np.ndarray, expected_arrivals: float) -> float:
    """The common water level ``L`` reached after ``expected_arrivals``.

    ``max(L, q_i)`` is the expected queue length of server ``i`` at the
    end of the interpretation window under LI dispatch — the quantity a
    locality-aware policy adds network distance to.  For
    ``expected_arrivals = 0`` the level is the current minimum load.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0:
        raise ValueError("need at least one server")
    _check_finite_loads(loads)
    if np.any(loads < 0):
        raise ValueError("loads must be non-negative")
    if not math.isfinite(expected_arrivals) or expected_arrivals < 0:
        raise ValueError(
            f"expected_arrivals must be finite and non-negative, "
            f"got {expected_arrivals}"
        )
    if expected_arrivals == 0.0:
        return float(loads.min())
    sorted_loads = np.sort(loads)
    prefix = np.cumsum(sorted_loads)
    levels = (prefix + expected_arrivals) / _counts(loads.size)
    feasible = levels >= sorted_loads
    c = int(np.nonzero(feasible)[0].max()) + 1
    return float(levels[c - 1])


def waterfill_probabilities(
    loads: np.ndarray, expected_arrivals: float
) -> np.ndarray:
    """Dispatch probabilities that equalize ``loads`` after ``expected_arrivals``.

    Implements Eqs. 2–4 of the paper.  ``expected_arrivals`` is
    ``R = λ · n · T`` — the number of jobs expected during the
    interpretation window.

    Parameters
    ----------
    loads:
        Reported queue length per server (non-negative).
    expected_arrivals:
        ``R >= 0``.  As ``R → 0`` the information is effectively fresh and
        all probability mass collapses onto the least-loaded server(s); as
        ``R → ∞`` the distribution tends to uniform.

    Returns
    -------
    numpy.ndarray
        A probability vector (non-negative, sums to 1).
    """
    loads = np.asarray(loads, dtype=np.float64)
    n = loads.size
    if (
        0 < n <= LIST_MAX_SERVERS
        and loads.ndim == 1
        and isinstance(expected_arrivals, (int, float))
    ):
        probabilities = _waterfill_list(loads.tolist(), float(expected_arrivals))
        if probabilities is not None:
            return np.array(probabilities)
    if n == 0:
        raise ValueError("need at least one server")
    _check_finite_loads(loads)
    if np.any(loads < 0):
        raise ValueError("loads must be non-negative")
    if not math.isfinite(expected_arrivals) or expected_arrivals < 0:
        raise ValueError(
            f"expected_arrivals must be finite and non-negative, "
            f"got {expected_arrivals}"
        )

    if expected_arrivals == 0.0:
        # Fresh information: send to the (tied) minimum-load servers.
        minimum = loads.min()
        probabilities = (loads == minimum).astype(np.float64)
        return probabilities / probabilities.sum()

    sorted_loads = np.sort(loads)
    prefix = np.cumsum(sorted_loads)
    # levels[c-1] is the water level if exactly the c least-loaded servers
    # absorb all R arrivals.
    levels = (prefix + expected_arrivals) / _counts(n)
    # The correct c is the largest for which the level stays at or above
    # the c-th smallest load (otherwise server c would be "overfilled"
    # past its own starting level, a contradiction).
    feasible = levels >= sorted_loads
    c = int(np.nonzero(feasible)[0].max()) + 1  # c=1 is always feasible
    level = levels[c - 1]

    deficits = np.maximum(level - loads, 0.0)
    total = deficits.sum()
    if total <= 0.0:
        # expected_arrivals was so small relative to the loads that the
        # water level collapsed onto the minimum in floating point; treat
        # the information as fresh and target the least-loaded servers.
        minimum = loads.min()
        probabilities = (loads == minimum).astype(np.float64)
        return probabilities / probabilities.sum()
    # total equals expected_arrivals up to floating-point error.
    return deficits / total


def weighted_waterfill_probabilities(
    loads: np.ndarray, rates: np.ndarray, expected_arrivals: float
) -> np.ndarray:
    """Capacity-aware water filling for heterogeneous servers.

    The paper's LI assumes equal-capacity servers and leaves the
    heterogeneous case as future work.  This extension equalizes expected
    *drain time* ``q_i / r_i`` (queue length over service rate) instead of
    raw queue length: after ``R`` expected arrivals, every recipient ends
    at a common virtual level ``L`` with

    .. math::

        p_i = \\max(L \\cdot r_i - q_i, 0) / R,
        \\qquad \\sum_i \\max(L \\cdot r_i - q_i, 0) = R

    With all rates equal to 1 this reduces exactly to
    :func:`waterfill_probabilities`.  As ``R → 0`` mass collapses onto the
    server with the shortest expected wait; as ``R → ∞`` the distribution
    tends to capacity-proportional (not uniform) — the correct conservative
    limit for a heterogeneous cluster.
    """
    loads = np.asarray(loads, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    if loads.shape != rates.shape:
        raise ValueError(
            f"loads and rates must have the same shape, got "
            f"{loads.shape} vs {rates.shape}"
        )
    n = loads.size
    if n == 0:
        raise ValueError("need at least one server")
    _check_finite_loads(loads)
    if np.any(loads < 0):
        raise ValueError("loads must be non-negative")
    if not np.isfinite(rates).all() or np.any(rates <= 0):
        raise ValueError("rates must be positive and finite")
    if not math.isfinite(expected_arrivals) or expected_arrivals < 0:
        raise ValueError(
            f"expected_arrivals must be finite and non-negative, "
            f"got {expected_arrivals}"
        )

    virtual = loads / rates  # expected drain time per server
    if expected_arrivals == 0.0:
        minimum = virtual.min()
        probabilities = (virtual == minimum).astype(np.float64)
        return probabilities / probabilities.sum()

    order = np.argsort(virtual, kind="stable")
    sorted_virtual = virtual[order]
    load_prefix = np.cumsum(loads[order])
    rate_prefix = np.cumsum(rates[order])
    levels = (load_prefix + expected_arrivals) / rate_prefix
    feasible = levels >= sorted_virtual
    c = int(np.nonzero(feasible)[0].max()) + 1
    level = levels[c - 1]

    deficits = np.maximum(level * rates - loads, 0.0)
    total = deficits.sum()
    if total <= 0.0:
        minimum = virtual.min()
        probabilities = (virtual == minimum).astype(np.float64)
        return probabilities / probabilities.sum()
    return deficits / total


def equalization_boundaries(
    sorted_loads: np.ndarray, total_arrival_rate: float
) -> np.ndarray:
    """Subinterval boundaries for Aggressive LI (Eq. 5).

    Given loads sorted ascending and the aggregate arrival rate
    ``Λ = λ · n``, subinterval ``j`` (1-based) sends jobs uniformly to the
    ``j`` least-loaded servers and lasts ``j · (q_{j+1} - q_j) / Λ`` time
    units — the time for ``j`` servers to fill from level ``q_j`` to
    ``q_{j+1}``.

    Returns
    -------
    numpy.ndarray
        ``boundaries`` of length ``n - 1`` where ``boundaries[j-1]`` is the
        cumulative time at which subinterval ``j`` ends (so at elapsed time
        ``e`` the dispatcher spreads uniformly over the ``m`` least-loaded
        servers, ``m = searchsorted(boundaries, e, side='right') + 1``).
        After the final boundary all ``n`` servers are equalized and
        dispatch is uniform over all of them.
    """
    sorted_loads = np.asarray(sorted_loads, dtype=np.float64)
    if not math.isfinite(total_arrival_rate) or total_arrival_rate <= 0:
        raise ValueError(
            f"total_arrival_rate must be finite and positive, "
            f"got {total_arrival_rate}"
        )
    n = sorted_loads.size
    if n == 0:
        raise ValueError("need at least one server")
    _check_finite_loads(sorted_loads)
    if np.any(np.diff(sorted_loads) < 0):
        raise ValueError("sorted_loads must be non-decreasing")
    if n == 1:
        return np.empty(0)
    gaps = np.diff(sorted_loads)  # q_{j+1} - q_j for j = 1..n-1
    durations = np.arange(1, n, dtype=np.float64) * gaps / total_arrival_rate
    return np.cumsum(durations)
