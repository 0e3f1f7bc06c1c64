"""Receiver-driven rebalancing: the paper's third coping strategy.

§2 of the paper lists three techniques systems use against stale
information: k-subsets, thresholds, and *receiver-driven* rebalancing, in
which lightly-loaded or idle servers remove jobs from heavily loaded
ones.  The paper studies the first two and names "examining the
performance of LI-based algorithms in comparison with and combination
with receiver-driven algorithms" as important future work.  This module
implements that combination.

Because jobs can migrate after dispatch, completion times are no longer
known at arrival, so this driver uses a fully event-driven server
(:class:`MigratingServer`) with explicit start-of-service and completion
events, rather than the closed-form FIFO recurrence of
:class:`~repro.cluster.server.Server`.

The stealing protocol is the classic receiver-initiated design (Eager,
Lazowska & Zahorjan): whenever a server goes idle, it polls a few random
peers *directly* (receiver polls are fresh by construction — that is
their advantage over stale sender-side information) and transfers one
waiting job from the most loaded polled victim if that victim has at
least ``steal_threshold`` jobs waiting.  An optional migration delay
models the job-transfer cost.

Historical load queries are impossible once jobs migrate, so the
continuous-update staleness model (which reads the past) is rejected;
the periodic, update-on-access and individual-update models all query
only current state and work unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.cluster.metrics import ClusterMetrics
from repro.cluster.simulation import SimulationResult
from repro.core.dispatch import DispatchCore
from repro.core.policy import Policy
from repro.core.rate_estimators import ExactRate, RateEstimator
from repro.engine.rng import RandomStreams
from repro.engine.simulator import Simulator
from repro.staleness.base import StalenessModel
from repro.staleness.continuous import ContinuousUpdate
from repro.workloads.arrivals import ArrivalSource
from repro.workloads.distributions import Distribution

__all__ = ["StealingConfig", "MigratingServer", "StealingClusterSimulation"]


@dataclass(frozen=True, slots=True)
class StealingConfig:
    """Receiver-initiated rebalancing parameters.

    Attributes
    ----------
    poll_count:
        Peers an idle server polls (the literature finds 1–3 suffice).
    steal_threshold:
        Minimum number of *waiting* (not in-service) jobs a victim must
        hold for a transfer to happen.
    migration_delay:
        Time a stolen job spends in transit before it can start at the
        thief, in units of mean service time.
    """

    poll_count: int = 2
    steal_threshold: int = 1
    migration_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.poll_count < 1:
            raise ValueError(f"poll_count must be >= 1, got {self.poll_count}")
        if self.steal_threshold < 1:
            raise ValueError(
                f"steal_threshold must be >= 1, got {self.steal_threshold}"
            )
        if self.migration_delay < 0:
            raise ValueError(
                f"migration_delay must be >= 0, got {self.migration_delay}"
            )


@dataclass(slots=True)
class _PendingJob:
    """A job that has been dispatched but not yet completed."""

    arrival_time: float
    service_time: float


class MigratingServer:
    """An event-driven FIFO server whose waiting jobs can be stolen.

    Unlike :class:`~repro.cluster.server.Server`, queue state here is
    live (current-time only): once jobs migrate between queues there is
    no closed form for past states.
    """

    __slots__ = (
        "server_id",
        "service_rate",
        "_sim",
        "waiting",
        "in_service",
        "_in_service_completion",
        "jobs_started",
    )

    def __init__(
        self, server_id: int, sim: Simulator, service_rate: float = 1.0
    ) -> None:
        if service_rate <= 0:
            raise ValueError(f"service_rate must be positive, got {service_rate}")
        self.server_id = server_id
        self.service_rate = float(service_rate)
        self._sim = sim
        self.waiting: deque[_PendingJob] = deque()
        self.in_service: _PendingJob | None = None
        self._in_service_completion = 0.0
        self.jobs_started = 0

    @property
    def idle(self) -> bool:
        """Whether the server currently has nothing to do."""
        return self.in_service is None and not self.waiting

    def queue_length(self, at_time: float) -> int:
        """Jobs present now (queued + in service).

        ``at_time`` is accepted for interface compatibility with
        :class:`~repro.cluster.server.Server` but must be the current
        simulation time — historical queries are impossible once jobs
        migrate.
        """
        if at_time < self._sim.now - 1e-9:
            raise ValueError(
                "MigratingServer cannot answer historical load queries "
                f"(asked for t={at_time}, now={self._sim.now}); "
                "use the non-stealing Server for continuous-update models"
            )
        return len(self.waiting) + (1 if self.in_service is not None else 0)

    def work_remaining(self, at_time: float) -> float:
        """Unfinished work present now, in time units."""
        if at_time < self._sim.now - 1e-9:
            raise ValueError(
                "MigratingServer cannot answer historical load queries"
            )
        total = sum(job.service_time for job in self.waiting) / self.service_rate
        if self.in_service is not None:
            total += max(self._in_service_completion - self._sim.now, 0.0)
        return total

    def steal_candidate_count(self) -> int:
        """Number of *waiting* jobs (the in-service job cannot migrate)."""
        return len(self.waiting)

    def pop_newest_waiting(self) -> _PendingJob:
        """Remove and return the most recently queued waiting job.

        Stealing the newest job (rather than the oldest) preserves FIFO
        fairness at the victim as closely as possible.
        """
        if not self.waiting:
            raise IndexError(f"server {self.server_id} has no waiting jobs")
        return self.waiting.pop()


class StealingClusterSimulation:
    """A cluster simulation with optional receiver-driven rebalancing.

    Accepts the same workload/policy/staleness components as
    :class:`~repro.cluster.simulation.ClusterSimulation` plus a
    :class:`StealingConfig`; with ``stealing=None`` it reproduces the
    sender-driven-only behavior (useful for apples-to-apples comparison
    on the same event-driven substrate).

    Measurement notes: response times are recorded at *completion* (they
    are unknown at dispatch once jobs can migrate), so warm-up truncation
    applies in completion order, and per-server dispatch counts attribute
    each job to the server that actually ran it.
    """

    #: Work stealing rewires completion events dynamically, which the
    #: phase-batched fast path cannot replay; this simulation always runs
    #: on the event engine.  Mirrors ClusterSimulation.engine_used so
    #: callers can assert on either class uniformly.
    engine_used = "event"

    def __init__(
        self,
        num_servers: int,
        arrivals: ArrivalSource,
        service: Distribution,
        policy: Policy,
        staleness: StalenessModel,
        stealing: StealingConfig | None = None,
        rate_estimator: RateEstimator | None = None,
        total_jobs: int = 100_000,
        warmup_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        if num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {num_servers}")
        if total_jobs < 1:
            raise ValueError(f"total_jobs must be >= 1, got {total_jobs}")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        if isinstance(staleness, ContinuousUpdate):
            raise ValueError(
                "the continuous-update model reads historical server state, "
                "which is undefined once jobs migrate; use PeriodicUpdate, "
                "UpdateOnAccess or IndividualUpdate with stealing"
            )
        self.num_servers = num_servers
        self.arrivals = arrivals
        self.service = service
        self.policy = policy
        self.staleness = staleness
        self.stealing = stealing
        self.rate_estimator = rate_estimator or ExactRate()
        self.total_jobs = total_jobs
        self.warmup_fraction = warmup_fraction
        self.seed = seed
        self.steals_performed = 0

    def run(self) -> SimulationResult:
        """Execute the simulation and return its measurements."""
        streams = RandomStreams(self.seed)
        sim = Simulator()
        servers = [MigratingServer(i, sim) for i in range(self.num_servers)]

        self.staleness.attach(sim, servers, streams.stream("staleness"))
        self.rate_estimator.bind(
            self.num_servers, self.arrivals.total_rate / self.num_servers
        )
        self.policy.bind(
            self.num_servers, streams.stream("policy"), self.rate_estimator
        )
        core = DispatchCore(self.num_servers, self.policy)
        steal_rng = streams.stream("stealing")
        service_rng = streams.stream("service")
        metrics = ClusterMetrics(
            num_servers=self.num_servers,
            warmup_jobs=int(self.total_jobs * self.warmup_fraction),
        )
        self.steals_performed = 0
        jobs_dispatched = 0
        jobs_completed = 0

        def begin_service(server: MigratingServer) -> None:
            job = server.waiting.popleft()
            server.in_service = job
            duration = job.service_time / server.service_rate
            completion_time = sim.now + duration
            server._in_service_completion = completion_time
            sim.schedule(completion_time, lambda: complete(server, job))
            server.jobs_started += 1

        def complete(server: MigratingServer, job: _PendingJob) -> None:
            nonlocal jobs_completed
            server.in_service = None
            metrics.record(server.server_id, sim.now - job.arrival_time)
            jobs_completed += 1
            if jobs_dispatched >= self.total_jobs and jobs_completed >= self.total_jobs:
                sim.stop()
                return
            if server.waiting:
                begin_service(server)
            elif self.stealing is not None:
                attempt_steal(server)

        def attempt_steal(thief: MigratingServer) -> None:
            config = self.stealing
            assert config is not None
            peers = [s for s in servers if s is not thief]
            polled_count = min(config.poll_count, len(peers))
            if polled_count == 0:
                return
            indices = steal_rng.choice(len(peers), size=polled_count, replace=False)
            polled = [peers[int(i)] for i in indices]
            victim = max(polled, key=MigratingServer.steal_candidate_count)
            if victim.steal_candidate_count() < config.steal_threshold:
                return
            job = victim.pop_newest_waiting()
            self.steals_performed += 1
            if config.migration_delay > 0.0:
                sim.schedule_after(
                    config.migration_delay, lambda: deliver(thief, job)
                )
            else:
                deliver(thief, job)

        def deliver(thief: MigratingServer, job: _PendingJob) -> None:
            thief.waiting.append(job)
            if thief.in_service is None:
                begin_service(thief)

        def on_arrival(client_id: int) -> None:
            nonlocal jobs_dispatched
            if jobs_dispatched >= self.total_jobs:
                return  # drain phase: ignore further arrivals
            now = sim.now
            self.rate_estimator.observe_arrival(now)
            server_id = core.dispatch(self.staleness.view(client_id, now), now)
            server = servers[server_id]
            job = _PendingJob(
                arrival_time=now,
                service_time=self.service.sample(service_rng),
            )
            server.waiting.append(job)
            if server.in_service is None:
                begin_service(server)
            self.staleness.on_dispatch(client_id, server_id, now)
            jobs_dispatched += 1

        self.arrivals.start(sim, streams.stream("arrivals"), on_arrival)
        sim.run()

        return SimulationResult(
            mean_response_time=metrics.mean_response_time,
            jobs_measured=metrics.jobs_measured,
            jobs_total=metrics.jobs_seen,
            duration=sim.now,
            dispatch_counts=metrics.dispatch_counts.copy(),
        )
