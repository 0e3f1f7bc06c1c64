"""Exact pins on the dispatch pipeline: admission, breaker reroute, retry.

Three seeded cells drive every branch of the dispatcher's decision
pipeline on the event engine — shedding, breaker-blocked reroutes and
refusals, half-open probes, timeout discovery with exclusion resets,
queue-full rejections and retry storms — and pin their results exactly:
floats with ``==``, plus a SHA-256 over the job trace.  Any change to the
order of decisions, to which server a reroute or retry picks, or to the
random draws behind them moves these values.

* ``periodic-everything``: periodic board with faults, bounded queues,
  probabilistic shedding, jittered breakers and a retry storm.
* ``continuous-reread``: a continuous-update board, whose ``view()``
  draws from the staleness stream, so the board re-read before each
  reroute and retry is observable here.
* ``three-dispatchers``: ``dispatchers=3`` with bounded queues,
  admission and jittered breakers (each front-end owns its breakers and
  reuses its one view for a reroute).

If a change is *meant* to move simulation results, regenerate with::

    PYTHONPATH=src python tests/integration/test_dispatch_goldens.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster.simulation import ClusterSimulation
from repro.core.li_basic import BasicLIPolicy
from repro.faults.parse import parse_fault_spec
from repro.overload import (
    BreakerConfig,
    OverloadConfig,
    ProbabilisticShed,
    RetryStormConfig,
)
from repro.staleness.continuous import ContinuousUpdate
from repro.staleness.periodic import PeriodicUpdate
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.distributions import Exponential

SERVERS = 8
JOBS = 5000
SEED = 3
LOAD = 0.9
FAULTS = "mttf=200,mttr=10,mode=abort,timeout=0.5,backoff=0.25"


def _breakers() -> BreakerConfig:
    return BreakerConfig(failure_threshold=2, cooldown=4.0, cooldown_jitter=0.2)


def _build(cell: str) -> ClusterSimulation:
    kwargs: dict = {}
    if cell == "periodic-everything":
        staleness = PeriodicUpdate(2.0)
        kwargs["faults"] = parse_fault_spec(FAULTS)
        kwargs["overload"] = OverloadConfig(
            queue_capacity=6,
            admission=ProbabilisticShed(0.02),
            breaker=_breakers(),
            retry_storm=RetryStormConfig(),
        )
    elif cell == "continuous-reread":
        staleness = ContinuousUpdate(Exponential(0.5))
        kwargs["faults"] = parse_fault_spec(FAULTS)
        kwargs["overload"] = OverloadConfig(
            queue_capacity=6, breaker=_breakers()
        )
    else:
        staleness = PeriodicUpdate(2.0)
        kwargs["dispatchers"] = 3
        kwargs["overload"] = OverloadConfig(
            queue_capacity=6,
            admission=ProbabilisticShed(0.02),
            breaker=_breakers(),
        )
    return ClusterSimulation(
        num_servers=SERVERS,
        arrivals=PoissonArrivals(rate=LOAD * SERVERS),
        service=Exponential(1.0),
        policy=BasicLIPolicy(),
        staleness=staleness,
        total_jobs=JOBS,
        seed=SEED,
        trace_jobs=True,
        engine="event",
        **kwargs,
    )


def _trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for job in trace:
        digest.update(
            repr(
                (
                    job.index,
                    job.server_id,
                    job.completion_time,
                    job.retries,
                    job.penalty,
                )
            ).encode()
        )
    return digest.hexdigest()


def _observe(cell: str) -> dict:
    result = _build(cell).run()
    return {
        "mean_response_time": result.mean_response_time,
        "jobs_total": result.jobs_total,
        "jobs_failed": result.jobs_failed,
        "retries_total": result.retries_total,
        "retry_penalty": result.retry_penalty,
        "jobs_rejected": result.jobs_rejected,
        "jobs_shed": result.jobs_shed,
        "jobs_dropped": result.jobs_dropped,
        "storm_resubmits": result.storm_resubmits,
        "breaker_trips": result.breaker_trips,
        "dispatch_counts": [int(c) for c in result.dispatch_counts],
        "trace_sha256": _trace_digest(result.trace),
    }


#: Observed results per cell (see the module docstring to regenerate).
GOLDENS: dict = {
    "continuous-reread": {
        "mean_response_time": 2.7070905646005685,
        "jobs_total": 5000,
        "jobs_failed": 65,
        "retries_total": 86,
        "retry_penalty": 65.0,
        "jobs_rejected": 97,
        "jobs_shed": 0,
        "jobs_dropped": 97,
        "storm_resubmits": 0,
        "breaker_trips": 92,
        "dispatch_counts": [623, 592, 567, 633, 592, 623, 637, 636],
        "trace_sha256": (
            "c1e6dfc0c6277a1dde012f55fc178be9"
            "b60f515b540837518566e76896d7ff78"
        ),
    },
    "periodic-everything": {
        "mean_response_time": 4.314426171156812,
        "jobs_total": 5000,
        "jobs_failed": 90,
        "retries_total": 43,
        "retry_penalty": 63.617869303450846,
        "jobs_rejected": 901,
        "jobs_shed": 122,
        "jobs_dropped": 2,
        "storm_resubmits": 2189,
        "breaker_trips": 454,
        "dispatch_counts": [639, 616, 555, 627, 605, 690, 651, 615],
        "trace_sha256": (
            "ea275f66a5f197a5125f63a5adf15508"
            "8ffd42fc06ee7fa6d9fede10c32f107d"
        ),
    },
    "three-dispatchers": {
        "mean_response_time": 2.600207905355737,
        "jobs_total": 5000,
        "jobs_failed": 0,
        "retries_total": 0,
        "retry_penalty": 0.0,
        "jobs_rejected": 225,
        "jobs_shed": 100,
        "jobs_dropped": 325,
        "storm_resubmits": 0,
        "breaker_trips": 44,
        "dispatch_counts": [563, 600, 595, 602, 581, 587, 576, 571],
        "trace_sha256": (
            "1dc7df26302b4d1797292eb2a7205aea"
            "3c8a72247f50b8f415b705b6010b3c45"
        ),
    },
}


@pytest.mark.parametrize("cell", sorted(GOLDENS))
def test_dispatch_pipeline_is_pinned(cell):
    assert _observe(cell) == GOLDENS[cell]


def test_every_cell_exercises_the_pipeline():
    # Guard against a regenerated golden that no longer reaches the
    # branches it exists to pin.
    assert GOLDENS["periodic-everything"]["retries_total"] > 0
    assert GOLDENS["periodic-everything"]["storm_resubmits"] > 0
    assert GOLDENS["periodic-everything"]["jobs_shed"] > 0
    assert GOLDENS["continuous-reread"]["retries_total"] > 0
    for cell in GOLDENS:
        assert GOLDENS[cell]["breaker_trips"] > 0
    assert GOLDENS["three-dispatchers"]["jobs_rejected"] > 0


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import pprint

    pprint.pprint(
        {
            cell: _observe(cell)
            for cell in (
                "continuous-reread",
                "periodic-everything",
                "three-dispatchers",
            )
        },
        sort_dicts=False,
        width=72,
    )
