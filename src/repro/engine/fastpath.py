"""Phase-batch kernel for periodic-board simulations.

The event-driven engine pays one heap event, one ``LoadView``, one scalar
policy draw and one scalar service draw per arrival.  Under the periodic
(and lossy-periodic) bulletin board none of that generality is needed:
within one phase every arrival samples from the *same* frozen board, so a
whole phase can be replayed with batched numpy draws.  One driver,
:func:`run_fast_path`, owns the draws, phase bounds, views, board state,
Welford fold and job trace; each phase's FCFS step then runs on one of two
integrators, chosen from the batch's shape (:data:`VECTOR_MIN_JOBS_PER_ROUND`):
:func:`_fcfs_scalar`, one Python iteration per job, or
:func:`_fcfs_rounds`, one numpy step per round of a ``(rounds, n)`` grid.
The per-server state both advance lives on one of two boards, chosen per
run: :class:`_ListBoard` on Python lists when the servers plus the
expected arrivals of a phase fit within
:data:`~repro.core.weights.LIST_MAX_SERVERS`, so a short phase on a small
cluster pays almost no numpy call overhead, and :class:`_ArrayBoard`
otherwise.

The contract this module guarantees — and the cross-engine equivalence
tests enforce — is **bit-identity**: the kernel consumes the same named
RNG streams as :meth:`~repro.cluster.simulation.ClusterSimulation.run`'s
event loop in exactly the same order, and every floating-point operation
on the measurement path (arrival-time accumulation, the FCFS completion
recurrence, Welford's mean update) is performed with the same arithmetic
in the same order, whichever integrator ran.  The resulting
:class:`~repro.cluster.simulation.SimulationResult` is therefore equal
bit-for-bit to the event engine's, not merely statistically equivalent.

Stream-order guarantee, stream by stream:

* ``arrivals`` — the event loop draws one exponential gap per arrival
  plus one never-used gap at the final arrival.  The kernel batch-draws
  ``total_jobs`` gaps (``Generator.exponential`` is bitwise-identical
  whether drawn as an array or one at a time), accumulates them with
  ``np.cumsum`` (sequential, like the event clock), then makes the same
  trailing unused draw so the stream parks in the identical state.
* ``staleness`` — the periodic board draws nothing; the lossy board draws
  one uniform per refresh *attempt* in time order.  Attempt times do not
  depend on drop outcomes (both outcomes reschedule ``now + period``), so
  the kernel enumerates attempts first and batch-draws their uniforms.
* ``policy`` — delegated to each policy's
  :meth:`~repro.core.policy.Policy.select_batch`, which must replay one
  phase of scalar ``select`` calls with batched draws (the
  ``phase_batchable`` contract).  A phase with no arrivals makes no call.
* ``service`` — one draw per arrival in arrival order; batched via
  :meth:`~repro.workloads.distributions.Distribution.sample_array`, which
  is only trusted when the distribution declares
  ``batch_matches_scalar = True``.

Anything that breaks one of those replay arguments (faults, probes,
non-phase boards, per-client arrival streams, online λ estimators,
subset-drawing policies, distributions whose vectorized transform is not
bitwise equal to the scalar one) is rejected by
:meth:`ClusterSimulation.fast_path_blocker`, and the simulation falls back
to the event engine.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from repro.cluster.job import Job
from repro.core.weights import LIST_MAX_SERVERS
from repro.engine.rng import RandomStreams
from repro.staleness.base import LoadView
from repro.staleness.lossy import LossyPeriodicUpdate

__all__ = ["VECTOR_MIN_JOBS_PER_ROUND", "run_fast_path", "validate_fast_path_inputs"]

#: Crossover between the FCFS integrators: a phase runs on the numpy
#: rounds recurrence when its arrivals number at least this many times
#: its rounds (the largest per-server count in the phase), i.e. when one
#: vector step advances this many jobs on average.  Below it, numpy's
#: per-call overhead costs more than the scalar loop it replaces.
#: Measured on a 2-vCPU x86-64 VM (DESIGN.md §8 has the table).
VECTOR_MIN_JOBS_PER_ROUND = 12


def validate_fast_path_inputs(
    num_servers: int,
    arrival_rate: float,
    period: float,
    server_rates,
    total_jobs: int,
) -> None:
    """Validate the knobs the batched kernel integrates over.

    Component constructors reject most bad configurations; this re-asserts
    the invariants the kernel relies on, so a hand-built or mutated
    simulation fails loudly instead of producing a silently wrong batch.
    """
    if num_servers < 1:
        raise ValueError(f"need at least one server, got {num_servers}")
    if not math.isfinite(arrival_rate) or arrival_rate <= 0:
        raise ValueError(
            f"arrival rate must be positive and finite, got {arrival_rate}"
        )
    if not math.isfinite(period) or period <= 0:
        raise ValueError(
            f"refresh period must be positive and finite, got {period}"
        )
    if total_jobs < 1:
        raise ValueError(f"total_jobs must be >= 1, got {total_jobs}")
    rates = np.asarray(server_rates, dtype=np.float64)
    if rates.shape != (num_servers,):
        raise ValueError(
            f"server_rates must have shape ({num_servers},), got {rates.shape}"
        )
    if not np.isfinite(rates).all() or np.any(rates <= 0):
        raise ValueError("server_rates must be positive and finite")


def _refresh_attempt_times(period: float, last_arrival: float) -> list[float]:
    """Board-refresh attempt times, accumulated like the event clock.

    The first refresh is scheduled at absolute time ``period``; every
    attempt (delivered or dropped) reschedules ``now + period``, so the
    sequence must be generated by repeated addition — ``k * period`` would
    round differently and break bit-identity.  Attempts fire while they do
    not exceed the final arrival time (a refresh at exactly that instant
    still fires first, thanks to its negative event priority).
    """
    times: list[float] = []
    t = period
    while t <= last_arrival:
        times.append(t)
        t += period
    return times


def _checked_array(selections, count: int, num_servers: int, policy) -> np.ndarray:
    """``select_batch`` output as an int64 array, or a loud error."""
    selections = np.asarray(selections)
    if selections.shape != (count,) or (
        (selections < 0) | (selections >= num_servers)
    ).any():
        _invalid_selections(policy, count, num_servers)
    return selections.astype(np.int64, copy=False)


def _invalid_selections(policy, count: int, num_servers: int):
    raise RuntimeError(
        f"{type(policy).__name__}.select_batch returned invalid "
        f"selections for a batch of {count} arrivals "
        f"(cluster size {num_servers})"
    )


class _ArrayBoard:
    """Per-server FCFS state both integrators advance, and its board view.

    ``last_completion`` is each server's latest completion time.  The
    outstanding set holds (server, completion) pairs of dispatched jobs
    not yet seen departed; each sample filters it, so a sample costs
    O(outstanding + latest batch), not O(all jobs so far).  Every
    dispatch is also recorded in arrival order for the run's result.
    """

    def __init__(self, num_servers: int, metric: str, total_jobs: int) -> None:
        self.num_servers = num_servers
        self.metric = metric
        self.last_completion = np.zeros(num_servers, dtype=np.float64)
        self._servers = np.empty(0, dtype=np.int64)
        self._completions = np.empty(0, dtype=np.float64)
        self._all_servers = np.empty(total_jobs, dtype=np.int64)
        self._all_completions = np.empty(total_jobs, dtype=np.float64)
        self._recorded = 0

    def checked(self, selections, count: int, policy) -> np.ndarray:
        return _checked_array(selections, count, self.num_servers, policy)

    def fcfs_scalar(self, arrivals, services, servers, rates) -> list[float]:
        last = self.last_completion.tolist()
        completions = _fcfs_scalar(
            last, arrivals.tolist(), services.tolist(), servers.tolist(), rates
        )
        self.last_completion[:] = last
        return completions

    def fcfs_rounds(self, arrivals, services, servers, counts, rates) -> np.ndarray:
        return _fcfs_rounds(
            self.last_completion, arrivals, services, servers, counts, rates
        )

    def dispatched(self, servers: np.ndarray, completions) -> None:
        low = self._recorded
        self._recorded = high = low + servers.size
        self._all_servers[low:high] = servers
        self._all_completions[low:high] = completions
        self._servers = np.concatenate((self._servers, servers))
        self._completions = np.concatenate(
            (self._completions, self._all_completions[low:high])
        )

    def record(self) -> tuple[np.ndarray, np.ndarray]:
        """Every dispatch's server and completion time, in arrival order."""
        return self._all_servers, self._all_completions

    def sample(self, at_time: float) -> np.ndarray:
        """The load report the event engine would sample at ``at_time``.

        Every job dispatched so far arrived strictly before ``at_time``
        (phase bounds use ``side="left"``), so a queue length is a count
        of completions after ``at_time`` — one exactly at it has departed,
        as in the event queue — and a busy server's work backlog is
        ``last_completion - at_time``, the event engine's subtraction.
        """
        busy = self._completions > at_time
        self._servers = self._servers[busy]
        self._completions = self._completions[busy]
        queue_lengths = np.bincount(self._servers, minlength=self.num_servers)
        if self.metric == "work-backlog":
            return np.where(
                queue_lengths == 0, 0.0, self.last_completion - at_time
            )
        return queue_lengths.astype(np.float64)


class _ListBoard:
    """:class:`_ArrayBoard` on Python lists, for small clusters.

    Each server keeps a list of its outstanding completion times.  FCFS
    completions of one server never decrease, so the list stays sorted:
    a sample cuts off the prefix at or before ``at_time`` with one
    ``bisect_right``, leaving exactly the jobs still queued.  The queue
    length is the list's length and the work backlog of a busy server is
    ``last_completion - at_time``, the same floats the array board
    reports.  Selections, arrivals and service times arrive as lists, so
    a scalar phase makes no numpy call here but building the sampled
    ``loads``.
    """

    def __init__(self, num_servers: int, metric: str) -> None:
        self.num_servers = num_servers
        self.metric = metric
        self.last_completion = [0.0] * num_servers
        self._queues: list[list[float]] = [[] for _ in range(num_servers)]
        self._all_servers: list[int] = []
        self._all_completions: list[float] = []

    def checked(self, selections, count: int, policy) -> list[int]:
        if type(selections) is not list:
            return _checked_array(
                selections, count, self.num_servers, policy
            ).tolist()
        if (
            len(selections) != count
            or min(selections) < 0
            or max(selections) >= self.num_servers
        ):
            _invalid_selections(policy, count, self.num_servers)
        return selections

    def fcfs_scalar(self, arrivals, services, servers, rates) -> list[float]:
        return _fcfs_scalar(self.last_completion, arrivals, services, servers, rates)

    def fcfs_rounds(self, arrivals, services, servers, counts, rates) -> list[float]:
        last = np.array(self.last_completion)
        completions = _fcfs_rounds(
            last, arrivals, services, np.array(servers, dtype=np.int64), counts, rates
        )
        self.last_completion = last.tolist()
        return completions.tolist()

    def dispatched(self, servers: list[int], completions: list[float]) -> None:
        queues = self._queues
        for server, completion in zip(servers, completions):
            queues[server].append(completion)
        self._all_servers += servers
        self._all_completions += completions

    def record(self) -> tuple[np.ndarray, np.ndarray]:
        count = len(self._all_servers)
        return (
            np.fromiter(self._all_servers, dtype=np.int64, count=count),
            np.fromiter(self._all_completions, dtype=np.float64, count=count),
        )

    def sample(self, at_time: float) -> np.ndarray:
        queues = self._queues
        for queue in queues:
            departed = bisect_right(queue, at_time)
            if departed:
                del queue[:departed]
        if self.metric == "work-backlog":
            return np.array(
                [
                    last - at_time if queue else 0.0
                    for queue, last in zip(queues, self.last_completion)
                ],
                dtype=np.float64,
            )
        return np.array(list(map(len, queues)), dtype=np.float64)


def _fcfs_scalar(last, arrivals, services, servers, rates) -> list[float]:
    """FCFS completions of one phase, one Python iteration per job:
    ``completion = max(arrival, last) + service / rate`` per server.
    Takes and advances ``last``, the per-server last completions, as a
    list; the other arguments are sequences of Python numbers."""
    completions = []
    append = completions.append
    for arrival, service, server in zip(arrivals, services, servers):
        previous = last[server]
        completion = (
            arrival if arrival > previous else previous
        ) + service / rates[server]
        last[server] = completion
        append(completion)
    return completions


def _fcfs_rounds(last, arrivals, services, servers, counts, rates) -> np.ndarray:
    """FCFS completions of one phase, one numpy step per round.

    Jobs are grouped by server (stable sort: within-server order holds)
    into a ``(rounds, n)`` grid whose row ``r`` holds each server's
    ``r``-th job of the phase.  IEEE 754 elementwise ``maximum``, ``/``
    and ``+`` are bitwise equal to the scalar loop's operations, and a
    padding cell (arrival 0, service 0) gives ``max(0.0, last) + 0.0 ==
    last`` exactly, since completions are non-negative.  ``last``, the
    per-server last completions, is an array advanced in place.
    """
    num_servers = last.size
    # Server ids fit in 16 bits for clusters up to 65,536 servers, where
    # numpy's stable sort is a radix sort: O(batch) instead of O(b log b).
    key = servers.astype(np.min_scalar_type(num_servers - 1))
    order = np.argsort(key, kind="stable")
    sorted_servers = servers[order]
    position = np.arange(servers.size) - (np.cumsum(counts) - counts)[sorted_servers]
    grid = np.zeros((int(counts.max()), num_servers), dtype=np.float64)
    scaled = np.zeros_like(grid)
    grid[position, sorted_servers] = arrivals[order]
    scaled[position, sorted_servers] = services[order] / rates[sorted_servers]
    # In place: each row turns from arrivals into completions.
    previous = last
    for row, work in zip(grid, scaled):
        np.maximum(row, previous, out=row)
        row += work
        previous = row
    last[:] = previous
    completions = np.empty(servers.size, dtype=np.float64)
    completions[order] = grid[position, sorted_servers]
    return completions


def run_fast_path(simulation, min_jobs_per_round: int = VECTOR_MIN_JOBS_PER_ROUND):
    """Run ``simulation`` with the phase-batch kernel.

    Callers should not invoke this directly: :class:`ClusterSimulation`
    selects it (``engine="auto"``/``"fast"``; ``"vector"`` passes
    ``min_jobs_per_round=0`` to put every phase on the numpy integrator)
    after checking eligibility.  The precondition is that
    ``simulation.fast_path_blocker()`` returned ``None``.  After the run,
    ``simulation.last_batch_summary`` counts phases by integrator.
    """
    from repro.cluster.simulation import SimulationResult

    num_servers = simulation.num_servers
    staleness = simulation.staleness
    period = staleness.period
    arrival_rate = simulation.arrivals.total_rate
    total_jobs = simulation.total_jobs
    rates = simulation.server_rates
    if rates is None:
        rates = [1.0] * num_servers
    validate_fast_path_inputs(
        num_servers, arrival_rate, period, rates, total_jobs
    )

    streams = RandomStreams(simulation.seed)
    arrivals_rng = streams.stream("arrivals")
    staleness_rng = streams.stream("staleness")
    simulation.rate_estimator.bind(num_servers, simulation._per_server_rate())
    rate_vector = np.asarray(rates, dtype=np.float64)
    simulation.policy.bind(
        num_servers,
        streams.stream("policy"),
        simulation.rate_estimator,
        server_rates=rate_vector,
    )
    service_rng = streams.stream("service")

    # -- arrivals: batch the gap draws, accumulate sequentially ---------
    mean_gap = 1.0 / arrival_rate
    arrival_times = np.cumsum(arrivals_rng.exponential(mean_gap, total_jobs))
    arrivals_rng.exponential(mean_gap)  # the event loop's final, unused gap
    last_arrival = float(arrival_times[-1])

    # -- board refreshes: attempts, drop draws, phase boundaries --------
    attempt_times = _refresh_attempt_times(period, last_arrival)
    if isinstance(staleness, LossyPeriodicUpdate):
        drops = staleness_rng.random(len(attempt_times)) < staleness.drop_probability
        success_times = [
            t for t, dropped in zip(attempt_times, drops) if not dropped
        ]
        staleness.refreshes_attempted = len(attempt_times)
        staleness.refreshes_dropped = len(attempt_times) - len(success_times)
    else:
        success_times = attempt_times
    # An arrival at exactly a refresh instant sees the *new* board
    # (refreshes carry negative priority), so the first arrival of phase j
    # is the first one at or after the j-th delivered refresh.
    bounds = np.searchsorted(arrival_times, success_times, side="left")
    phase_bounds = [0, *bounds.tolist(), total_jobs]

    # -- service times: one batch draw, identical to per-arrival draws --
    service_times = simulation.service.sample_array(service_rng, total_jobs)

    policy = simulation.policy
    rate_list = rate_vector.tolist()
    # Short phases on small clusters run on Python lists: list work grows
    # with the servers sampled plus the jobs dispatched per phase, while
    # the array board's cost is nearly flat.  The arrays are then touched
    # once per run here and once per phase by the policy's draw.
    if num_servers + arrival_rate * period <= LIST_MAX_SERVERS:
        board = _ListBoard(num_servers, staleness.metric)
        arrival_seq = arrival_times.tolist()
        service_seq = service_times.tolist()
    else:
        board = _ArrayBoard(num_servers, staleness.metric, total_jobs)
        arrival_seq = arrival_times
        service_seq = service_times
    scalar_phases = vector_phases = 0

    for phase, (low, high) in enumerate(zip(phase_bounds, phase_bounds[1:])):
        if high == low:
            continue  # a phase with no arrivals consumes no draws
        if phase > 0:
            info_time = success_times[phase - 1]
            loads = board.sample(info_time)
        else:
            info_time = 0.0
            loads = np.zeros(num_servers, dtype=np.float64)  # exact at t = 0
        batch_times = arrival_times[low:high]
        first_arrival = float(arrival_seq[low])
        view = LoadView(
            loads=loads,
            version=phase,
            info_time=info_time,
            now=first_arrival,
            horizon=period,
            elapsed=first_arrival - info_time,
            known_age=True,
            phase_based=True,
            client_id=0,
        )
        selections = board.checked(
            policy.select_batch(view, batch_times), high - low, policy
        )

        # A round holds at most one job per server, so a phase with fewer
        # arrivals or a cluster with fewer servers than the crossover
        # cannot average that many jobs per round: skip the count.
        counts = None
        if high - low >= min_jobs_per_round and num_servers >= min_jobs_per_round:
            counts = np.bincount(selections, minlength=num_servers)
        if counts is not None and high - low >= min_jobs_per_round * counts.max():
            vector_phases += 1
            completions = board.fcfs_rounds(
                batch_times, service_times[low:high], selections, counts, rate_vector
            )
        else:
            scalar_phases += 1
            completions = board.fcfs_scalar(
                arrival_seq[low:high], service_seq[low:high], selections, rate_list
            )
        board.dispatched(selections, completions)

    phases = len(phase_bounds) - 1
    simulation.last_batch_summary = {
        "phases": phases,
        "empty_phases": phases - scalar_phases - vector_phases,
        "scalar_phases": scalar_phases,
        "vector_phases": vector_phases,
    }

    all_selections, all_completions = board.record()
    responses = all_completions - arrival_times
    if simulation.client_latency is not None:
        # PoissonArrivals emits client id 0 only.
        latency_row = simulation.client_latency[0 % simulation.client_latency.shape[0]]
        responses += latency_row[all_selections]

    # -- measurement fold: sequential Welford, identical to the event
    # engine's RunningStats.add (float summation is order-sensitive).
    # The event engine folds python floats — except when a latency row
    # promotes each response (and thus the mean) to np.float64; matching
    # the element type makes the mean's type match too.
    measured_tail = responses[int(total_jobs * simulation.warmup_fraction):]
    responses_seq = (
        list(measured_tail)
        if simulation.client_latency is not None
        else measured_tail.tolist()
    )
    measured = 0
    mean = 0.0
    for response in responses_seq:
        measured += 1
        delta = response - mean
        mean += delta / measured

    job_trace = None
    if simulation.trace_jobs:
        job_trace = [
            Job(
                index=index,
                client_id=0,
                server_id=server_id,
                arrival_time=arrival,
                service_time=service,
                completion_time=completion,
                retries=0,
                penalty=0.0,
            )
            for index, (server_id, arrival, service, completion) in enumerate(
                zip(
                    all_selections.tolist(),
                    arrival_times.tolist(),
                    service_times.tolist(),
                    all_completions.tolist(),
                )
            )
        ]

    return SimulationResult(
        mean_response_time=mean if measured else 0.0,
        jobs_measured=measured,
        jobs_total=total_jobs,
        duration=last_arrival,
        dispatch_counts=np.bincount(all_selections, minlength=num_servers),
        response_times=(
            measured_tail.copy() if simulation.trace_response_times else None
        ),
        trace=job_trace,
    )
