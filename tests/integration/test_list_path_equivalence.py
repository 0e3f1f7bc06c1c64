"""Event ≡ fast ≡ vector on both sides of the small-cluster list cutover.

Clusters of at most :data:`~repro.core.weights.LIST_MAX_SERVERS` servers
run the water-fill and Basic LI's draw lookup on Python lists, and when
the servers plus the expected arrivals of a phase fit within the same
bound, the phase-batch kernel also keeps its board on lists.  Each cell
below runs at the cutover, one server past it, or straddling the board
rule, on short (T = 0.1) and long (T = 2) phases, and every
:class:`~repro.cluster.simulation.SimulationResult` field and the job
trace must be bitwise equal across the three engines.  The phase counts
in ``last_batch_summary`` are pinned to the values the all-numpy kernel
produced for the same cells.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster.simulation import ClusterSimulation
from repro.core.li_basic import BasicLIPolicy
from repro.core.weights import LIST_MAX_SERVERS
from repro.engine import fastpath
from repro.staleness.lossy import LossyPeriodicUpdate
from repro.staleness.periodic import PeriodicUpdate
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.service import exponential_service

LOAD = 0.9
JOBS = 3_000
SEED = 5

#: ``(n, T)``: the cutover and one past it, on short and long phases;
#: then n=10 with the servers plus expected arrivals per phase just
#: inside the list-board bound (10 + 9·4.2 = 47.8) and just past it.
CELLS = [
    (LIST_MAX_SERVERS, 0.1),
    (LIST_MAX_SERVERS, 2.0),
    (LIST_MAX_SERVERS + 1, 0.1),
    (LIST_MAX_SERVERS + 1, 2.0),
    (10, 4.2),
    (10, 4.25),
]


def _features(n: int) -> dict:
    return {
        "queue-length": {},
        "work-backlog": {"metric": "work-backlog"},
        "lossy-timestamp-aware": {
            "lossy": True,
            "policy": BasicLIPolicy(timestamp_aware=True),
        },
        "heterogeneous-rates": {
            "server_rates": [2.0, 0.5, 1.0, 1.5] * (n // 4) + [1.0] * (n % 4)
        },
        "client-latency": {
            "client_latency": np.linspace(0.0, 0.4, n).reshape(1, n)
        },
    }


FEATURES = sorted(_features(4))


def _simulation(engine: str, n: int, period: float, feature: str) -> ClusterSimulation:
    options = dict(_features(n)[feature])
    metric = options.pop("metric", "queue-length")
    if options.pop("lossy", False):
        staleness = LossyPeriodicUpdate(
            period=period, drop_probability=0.4, metric=metric
        )
    else:
        staleness = PeriodicUpdate(period=period, metric=metric)
    options.setdefault("policy", BasicLIPolicy())
    return ClusterSimulation(
        num_servers=n,
        arrivals=PoissonArrivals(LOAD * n),
        service=exponential_service(),
        staleness=staleness,
        total_jobs=JOBS,
        seed=SEED,
        trace_jobs=True,
        trace_response_times=True,
        engine=engine,
        **options,
    )


def _assert_results_identical(expected, actual) -> None:
    for field in dataclasses.fields(expected):
        want = getattr(expected, field.name)
        got = getattr(actual, field.name)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray), field.name
            assert want.dtype == got.dtype, field.name
            assert want.tobytes() == got.tobytes(), field.name
        else:
            assert type(want) is type(got), field.name
            assert want == got, field.name


#: ``last_batch_summary`` of each (n, T, feature) cell under
#: ``engine="auto"``: (phases, empty, scalar, vector).  The vector engine
#: puts every non-empty phase on the rounds integrator.
AUTO_SUMMARIES = {
    (48, 0.1, "client-latency"): (689, 14, 675, 0),
    (48, 0.1, "heterogeneous-rates"): (689, 14, 675, 0),
    (48, 0.1, "lossy-timestamp-aware"): (416, 7, 409, 0),
    (48, 0.1, "queue-length"): (689, 14, 675, 0),
    (48, 0.1, "work-backlog"): (689, 14, 675, 0),
    (48, 2.0, "client-latency"): (35, 0, 14, 21),
    (48, 2.0, "heterogeneous-rates"): (35, 0, 16, 19),
    (48, 2.0, "lossy-timestamp-aware"): (19, 0, 3, 16),
    (48, 2.0, "queue-length"): (35, 0, 14, 21),
    (48, 2.0, "work-backlog"): (35, 0, 8, 27),
    (49, 0.1, "client-latency"): (675, 10, 665, 0),
    (49, 0.1, "heterogeneous-rates"): (675, 10, 665, 0),
    (49, 0.1, "lossy-timestamp-aware"): (408, 3, 405, 0),
    (49, 0.1, "queue-length"): (675, 10, 665, 0),
    (49, 0.1, "work-backlog"): (675, 10, 665, 0),
    (49, 2.0, "client-latency"): (34, 0, 15, 19),
    (49, 2.0, "heterogeneous-rates"): (34, 0, 11, 23),
    (49, 2.0, "lossy-timestamp-aware"): (19, 0, 7, 12),
    (49, 2.0, "queue-length"): (34, 0, 15, 19),
    (49, 2.0, "work-backlog"): (34, 0, 14, 20),
    (10, 4.2, "client-latency"): (79, 0, 79, 0),
    (10, 4.2, "heterogeneous-rates"): (79, 0, 79, 0),
    (10, 4.2, "lossy-timestamp-aware"): (44, 0, 44, 0),
    (10, 4.2, "queue-length"): (79, 0, 79, 0),
    (10, 4.2, "work-backlog"): (79, 0, 79, 0),
    (10, 4.25, "client-latency"): (78, 0, 78, 0),
    (10, 4.25, "heterogeneous-rates"): (78, 0, 78, 0),
    (10, 4.25, "lossy-timestamp-aware"): (43, 0, 43, 0),
    (10, 4.25, "queue-length"): (78, 0, 78, 0),
    (10, 4.25, "work-backlog"): (78, 0, 78, 0),
}


@pytest.mark.parametrize("feature", FEATURES)
@pytest.mark.parametrize(("n", "period"), CELLS)
def test_event_fast_vector_bit_identical(n, period, feature):
    event = _simulation("event", n, period, feature).run()
    fast_sim = _simulation("fast", n, period, feature)
    fast = fast_sim.run()
    vector_sim = _simulation("vector", n, period, feature)
    vector = vector_sim.run()

    _assert_results_identical(event, fast)
    _assert_results_identical(event, vector)
    assert event.trace is not None and len(event.trace) == JOBS
    assert fast.trace == event.trace
    assert vector.trace == event.trace

    phases, empty, scalar, rounds = AUTO_SUMMARIES[(n, period, feature)]
    assert fast_sim.last_batch_summary == {
        "phases": phases,
        "empty_phases": empty,
        "scalar_phases": scalar,
        "vector_phases": rounds,
    }
    assert vector_sim.last_batch_summary == {
        "phases": phases,
        "empty_phases": empty,
        "scalar_phases": 0,
        "vector_phases": phases - empty,
    }


@pytest.mark.parametrize("metric", ["queue-length", "work-backlog"])
def test_list_board_samples_like_the_array_board(metric):
    # Completions exactly at a sampling instant have departed on both
    # boards (the event queue's order); continuous draws almost never
    # produce such ties, so they are built here.
    servers = [0, 1, 0, 2, 1, 0]
    completions = [1.0, 1.5, 2.0, 2.0, 3.25, 4.0]
    array_board = fastpath._ArrayBoard(3, metric, len(servers))
    list_board = fastpath._ListBoard(3, metric)
    for board in (array_board, list_board):
        board.last_completion[:] = [4.0, 3.25, 2.0]
    array_board.dispatched(np.array(servers), np.array(completions))
    list_board.dispatched(servers, completions)
    for at_time in (0.5, 1.0, 1.5, 2.0, 3.0, 3.25, 4.0):
        expected = array_board.sample(at_time)
        assert list_board.sample(at_time).tobytes() == expected.tobytes(), at_time


@pytest.mark.parametrize(
    ("metric", "scalar", "rounds"),
    [("queue-length", 30, 2), ("work-backlog", 29, 3)],
)
def test_list_board_hands_state_between_integrators(metric, scalar, rounds):
    # Nine refreshes in ten lost: merged phases of dozens of arrivals on a
    # list board reach the rounds integrator, and the short ones between
    # them stay on the scalar loop, so the last-completion list passes
    # from one integrator to the other.
    def build(engine):
        return ClusterSimulation(
            num_servers=36,
            arrivals=PoissonArrivals(LOAD * 36),
            service=exponential_service(),
            policy=BasicLIPolicy(),
            staleness=LossyPeriodicUpdate(
                period=0.3, drop_probability=0.9, metric=metric
            ),
            total_jobs=JOBS,
            seed=SEED,
            trace_jobs=True,
            trace_response_times=True,
            engine=engine,
        )

    event = build("event").run()
    fast_sim = build("fast")
    fast = fast_sim.run()
    _assert_results_identical(event, fast)
    assert fast.trace == event.trace
    assert fast_sim.last_batch_summary == {
        "phases": 32,
        "empty_phases": 0,
        "scalar_phases": scalar,
        "vector_phases": rounds,
    }


@pytest.mark.parametrize(
    ("n", "period", "lists"),
    [
        (LIST_MAX_SERVERS, 0.1, False),
        (10, 4.2, True),
        (10, 4.25, False),
        (36, 0.3, True),
        (2, 0.1, True),
    ],
)
def test_board_follows_the_cutover(monkeypatch, n, period, lists):
    # The list board serves a run when its servers plus its expected
    # arrivals per phase fit within LIST_MAX_SERVERS.
    built = []

    class Spy(fastpath._ListBoard):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fastpath, "_ListBoard", Spy)
    _simulation("fast", n, period, "queue-length").run()
    assert bool(built) is lists
