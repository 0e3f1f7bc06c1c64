"""The top-level simulation driver.

:class:`ClusterSimulation` wires an arrival source, a service-time process,
a staleness model and a selection policy into one discrete-event run and
reports response-time statistics, matching the methodology of §5 of the
paper: a stream of arrivals is dispatched on arrival to FIFO server queues;
the first fraction of jobs warms the system up; the mean response time of
the remainder is the headline metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.job import Job
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.server import Server
from repro.core.dispatch import BLOCKED, SHED, DispatchCore
from repro.core.policy import Policy
from repro.core.rate_estimators import ExactRate, RateEstimator
from repro.engine.rng import RandomStreams
from repro.engine.simulator import Simulator
from repro.faults.injector import FaultInjector
from repro.overload.admission import ProbabilisticShed
from repro.overload.breaker import BreakerBoard
from repro.overload.config import OverloadConfig
from repro.staleness.base import StalenessModel
from repro.workloads.arrivals import ArrivalSource
from repro.workloads.distributions import Distribution

__all__ = [
    "ClusterSimulation",
    "SimulationResult",
    "validate_dispatcher_count",
]


def validate_dispatcher_count(value) -> int:
    """Validate a dispatcher count at the configuration boundary.

    Accepts integers (and integer-valued floats, for CLI/JSON round
    trips) that are >= 1; rejects booleans, NaN/inf and fractional
    values with a message naming the offending input — mirroring the
    non-finite-period validation in :mod:`repro.staleness`.
    """
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ValueError(
            f"dispatchers must be an integer >= 1, got {value!r}"
        )
    as_float = float(value)
    if not math.isfinite(as_float) or as_float != int(as_float):
        raise ValueError(
            f"dispatchers must be an integer >= 1, got {value!r}"
        )
    count = int(as_float)
    if count < 1:
        raise ValueError(f"dispatchers must be >= 1, got {count}")
    return count


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    mean_response_time:
        Mean response time (queueing + service) of measured jobs.
    jobs_measured:
        Number of jobs contributing to the statistics (post warm-up).
    jobs_total:
        Total arrivals dispatched, including warm-up.
    duration:
        Simulation time at which the run stopped.
    dispatch_counts:
        Jobs sent to each server (including warm-up).
    jobs_failed:
        Jobs that never completed: stalled in a permanent outage, aborted
        by a crash, or dropped after exhausting their retry budget.
        Always 0 on fault-free runs.
    jobs_retried:
        Jobs that needed at least one re-dispatch after a timeout.
    retries_total:
        Re-dispatch attempts summed over all jobs.
    retry_penalty:
        Total timeout + backoff latency paid by completed jobs (already
        included in their measured response times).
    jobs_rejected:
        Dispatches refused by a full server queue (bounded-queue runs);
        a job can be rejected several times before landing or dropping.
    jobs_shed:
        Arrivals refused by admission control before server selection.
    jobs_dropped:
        Jobs refused for good — shed/rejected with no retry storm, or a
        storm that exhausted its re-submission budget.  Disjoint from
        ``jobs_failed`` (fault losses); both subtract from goodput.
    storm_resubmits:
        Retry-storm re-submissions (refused jobs re-entering the arrival
        pipeline after client backoff).
    breaker_trips:
        Circuit-breaker CLOSED/HALF_OPEN → OPEN transitions summed over
        servers.
    rejected_counts:
        Per-server queue-full rejections, or ``None`` when no overload
        protection was active.
    response_times:
        Per-job response times when tracing was enabled, else ``None``.
    trace:
        Full per-job records when job tracing was enabled, else ``None``.
    """

    mean_response_time: float
    jobs_measured: int
    jobs_total: int
    duration: float
    dispatch_counts: np.ndarray
    jobs_failed: int = 0
    jobs_retried: int = 0
    retries_total: int = 0
    retry_penalty: float = 0.0
    jobs_rejected: int = 0
    jobs_shed: int = 0
    jobs_dropped: int = 0
    storm_resubmits: int = 0
    breaker_trips: int = 0
    rejected_counts: np.ndarray | None = None
    response_times: np.ndarray | None = None
    trace: list[Job] | None = field(default=None, repr=False)

    @property
    def goodput(self) -> float:
        """Fraction of all arrivals that completed service.

        Counts both overload drops and fault failures against the run;
        1.0 on a healthy unbounded-queue run.
        """
        if self.jobs_total == 0:
            return 0.0
        lost = self.jobs_failed + self.jobs_dropped
        return (self.jobs_total - lost) / self.jobs_total

    @property
    def drop_rate(self) -> float:
        """Fraction of all arrivals lost (``1 - goodput``)."""
        if self.jobs_total == 0:
            return 0.0
        return (self.jobs_failed + self.jobs_dropped) / self.jobs_total

    @property
    def dispatch_fractions(self) -> np.ndarray:
        """Fraction of all dispatched jobs sent to each server."""
        total = self.dispatch_counts.sum()
        if total == 0:
            return np.zeros_like(self.dispatch_counts, dtype=float)
        return self.dispatch_counts / float(total)

    def response_time_percentile(self, quantile: float) -> float:
        """Tail-latency percentile of measured jobs (e.g. 0.99 for p99).

        Requires the run to have been traced
        (``trace_response_times=True``); the paper reports means only, but
        tail behavior is where the herd effect bites hardest.
        """
        if self.response_times is None:
            raise RuntimeError(
                "per-job response times were not traced; construct the "
                "simulation with trace_response_times=True"
            )
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        return float(np.percentile(self.response_times, quantile * 100.0))


class ClusterSimulation:
    """One complete load-balancing simulation.

    Parameters
    ----------
    num_servers:
        Cluster size ``n`` (the paper's default is 10).
    arrivals:
        The arrival source; its aggregate rate defines the offered load
        ``λ = total_rate / (n · service_rate)``.
    service:
        Service-time distribution (mean 1.0 reproduces the paper's units).
    policy:
        The server-selection policy under study.
    staleness:
        The information model connecting servers to the policy.
    rate_estimator:
        λ estimator handed to the policy; defaults to the exact oracle the
        paper's main experiments assume.
    total_jobs:
        Arrivals to dispatch before stopping (paper: 500,000).
    warmup_fraction:
        Leading fraction of arrivals excluded from statistics.
    seed:
        Master seed; arrivals, service times, the staleness model and the
        policy each draw from independent substreams, so swapping one
        component does not perturb the others' randomness.
    trace_jobs:
        Keep a full :class:`~repro.cluster.job.Job` record per measured
        job (memory-heavy; off by default).
    trace_response_times:
        Keep per-job response times for percentile summaries.
    server_rates:
        Optional per-server service rates for the heterogeneous-cluster
        extension; defaults to 1.0 everywhere (the paper's setting).
    client_latency:
        Optional ``(num_clients, num_servers)`` round-trip-time matrix in
        units of mean service time, for the wide-area extension: each
        job's measured response time gains the round trip between its
        client and its chosen server.  Queue dynamics are unaffected (a
        first-order model in which propagation delays requests and
        replies without reordering queue entries).  Client ids index rows
        modulo the matrix height.
    probes:
        Optional observability probes (:class:`repro.obs.Probe`); they
        observe dispatches, job lifecycles and board refreshes passively
        and cannot perturb the simulation.  When empty or ``None`` the
        probe code paths reduce to a single ``None`` check per arrival.
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector` driving
        per-server crash/recovery and degraded-service lifecycles off the
        dedicated ``"faults"`` random stream, plus the dispatcher's
        timeout/retry behavior.  ``None`` (and an injector with the null
        schedule) leaves the run bit-identical to a fault-free one.
    overload:
        Optional :class:`~repro.overload.config.OverloadConfig` enabling
        bounded server queues, admission control, circuit breakers
        and/or retry storms.  ``None`` (and a config with every knob at
        its default) leaves the run bit-identical to an unprotected one;
        any active knob forces the event engine (see
        :meth:`fast_path_blocker`).
    autoscaler:
        Optional :class:`~repro.nonstationary.autoscale.Autoscaler`
        enabling elastic capacity: a controller ticks periodically,
        reads the *stale* bulletin board and λ estimate, and starts or
        stops servers.  At run time the configured ``faults`` injector
        (or a null one) is wrapped in an
        :class:`~repro.nonstationary.autoscale.ElasticCapacityInjector`,
        so inactive servers look exactly like crashed ones: dispatches
        time out and retry, and the board keeps their last stale entry.
        ``None`` leaves every code path untouched; any autoscaler forces
        the event engine and is incompatible with ``dispatchers > 1``.
    engine:
        ``"auto"`` (default) runs the phase-batched kernel
        (:mod:`repro.engine.fastpath`) whenever the configuration permits
        it and the event-driven loop otherwise; the kernel picks its FCFS
        integrator per phase — a scalar loop for small batches, a numpy
        rounds recurrence when each round covers many servers — so wide
        clusters run vectorized by default.  ``"event"`` forces the event
        loop; ``"fast"`` forces the kernel and raises :class:`ValueError`
        with the blocking reason if it is unavailable.  ``"vector"`` also
        forces the kernel but puts every phase on the numpy integrator.
        ``"event"``/``"fast"``/``"vector"`` all produce bit-identical
        :class:`SimulationResult` objects, so among those the choice is
        purely a performance knob.
        ``"fluid"`` solves the mean-field (n → ∞) fixed point instead of
        simulating jobs (:mod:`repro.engine.fluid`); it is an explicit
        opt-in, asymptotic rather than bit-identical, and raises
        :class:`ValueError` (see :meth:`fluid_blocker`) when the
        configuration has no fluid translation.  After :meth:`run`,
        :attr:`engine_used` records which engine executed.
    dispatchers:
        Number of concurrent front-ends ``m``.  The default 1 is the
        paper's single-dispatcher model and leaves every code path (and
        every random draw) untouched.  With ``m > 1`` the run is handed
        to :class:`~repro.multidispatch.simulation.MultiDispatchSimulation`
        with a shared board and the honest dispatcher-local λ_d = λ/m
        view; this requires :class:`PoissonArrivals` (the aggregate
        stream is split ``m`` ways) and is incompatible with server
        ``faults`` (use ``MultiDispatchSimulation`` directly for
        front-end faults).
    """

    #: Engine selected by the most recent :meth:`run`
    #: ("event", "fast", "vector" or "fluid").
    engine_used: str | None = None

    #: Breaker digest of the most recent :meth:`run` (``None`` unless the
    #: run had circuit breakers enabled).
    last_breaker_summary: dict | None = None

    #: Fluid-solution digest of the most recent :meth:`run` (``None``
    #: unless the run executed on the fluid engine).
    last_fluid_summary: dict | None = None

    #: Phase counts of the most recent fast or vector :meth:`run`:
    #: ``phases``, ``empty_phases``, ``scalar_phases``, ``vector_phases``
    #: (``None`` until a run takes the phase-batched kernel).
    last_batch_summary: dict | None = None

    #: Scaling-history digest of the most recent :meth:`run` (``None``
    #: unless the run had an autoscaler).
    last_scaling_summary: dict | None = None

    def __init__(
        self,
        num_servers: int,
        arrivals: ArrivalSource,
        service: Distribution,
        policy: Policy,
        staleness: StalenessModel,
        rate_estimator: RateEstimator | None = None,
        total_jobs: int = 100_000,
        warmup_fraction: float = 0.1,
        seed: int = 0,
        trace_jobs: bool = False,
        trace_response_times: bool = False,
        server_rates: list[float] | None = None,
        client_latency: np.ndarray | None = None,
        probes: list | None = None,
        faults: FaultInjector | None = None,
        overload: OverloadConfig | None = None,
        autoscaler=None,
        engine: str = "auto",
        dispatchers: int = 1,
    ) -> None:
        if num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {num_servers}")
        if total_jobs < 1:
            raise ValueError(f"total_jobs must be >= 1, got {total_jobs}")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        if server_rates is not None:
            # One form for every engine (and for run IDs): a list of
            # floats, whether the caller passed a list, tuple or array.
            server_rates = [float(rate) for rate in server_rates]
            if len(server_rates) != num_servers:
                raise ValueError(
                    f"server_rates has {len(server_rates)} entries for "
                    f"{num_servers} servers"
                )
        if client_latency is not None:
            client_latency = np.asarray(client_latency, dtype=np.float64)
            if client_latency.ndim != 2 or client_latency.shape[1] != num_servers:
                raise ValueError(
                    "client_latency must be a (num_clients, num_servers) "
                    f"matrix; got shape {client_latency.shape} for "
                    f"{num_servers} servers"
                )
            if np.any(client_latency < 0):
                raise ValueError("client_latency entries must be non-negative")

        self.num_servers = num_servers
        self.arrivals = arrivals
        self.service = service
        self.policy = policy
        self.staleness = staleness
        self.rate_estimator = rate_estimator or ExactRate()
        self.total_jobs = total_jobs
        self.warmup_fraction = warmup_fraction
        self.seed = seed
        self.trace_jobs = trace_jobs
        self.trace_response_times = trace_response_times
        if faults is not None and not isinstance(faults, FaultInjector):
            raise TypeError(
                "faults must be a FaultInjector (or None), got "
                f"{type(faults).__name__}"
            )
        if overload is not None and not isinstance(overload, OverloadConfig):
            raise TypeError(
                "overload must be an OverloadConfig (or None), got "
                f"{type(overload).__name__}"
            )
        if autoscaler is not None:
            from repro.nonstationary.autoscale import Autoscaler

            if not isinstance(autoscaler, Autoscaler):
                raise TypeError(
                    "autoscaler must be an Autoscaler (or None), got "
                    f"{type(autoscaler).__name__}"
                )
        self.server_rates = server_rates
        self.client_latency = client_latency
        self.probes = list(probes) if probes else None
        self.faults = faults
        self.overload = overload
        self.autoscaler = autoscaler
        if engine not in ("auto", "event", "fast", "vector", "fluid"):
            raise ValueError(
                "engine must be 'auto', 'event', 'fast', 'vector' or "
                f"'fluid', got {engine!r}"
            )
        self.engine = engine
        self.dispatchers = validate_dispatcher_count(dispatchers)

    @property
    def offered_load(self) -> float:
        """Per-server offered load λ (arrival rate / aggregate capacity).

        A cluster whose every server is rate-profiled to zero has no
        capacity at all: any positive arrival rate overloads it
        infinitely, so the ratio is reported as ``inf`` rather than
        raising ``ZeroDivisionError``.
        """
        total_capacity = (
            float(sum(self.server_rates))
            if self.server_rates is not None
            else float(self.num_servers)
        )
        offered = self.arrivals.total_rate * self.service.mean
        if total_capacity == 0.0:
            return math.inf if offered > 0 else 0.0
        return offered / total_capacity

    def fast_path_blocker(self) -> str | None:
        """Why the phase-batched fast path cannot run, or ``None`` if it can.

        This is the fallback matrix documented in DESIGN.md §8: every
        feature that would make batched draws diverge from the event
        loop's scalar draw sequence (or change event interleaving at all)
        names itself here and forces the event engine.
        """
        from repro.staleness.lossy import LossyPeriodicUpdate
        from repro.staleness.periodic import PeriodicUpdate
        from repro.workloads.arrivals import (
            PoissonArrivals,
            TimeVaryingPoissonArrivals,
        )

        if type(self) is not ClusterSimulation:
            return (
                f"{type(self).__name__} subclasses the driver and may add "
                "event-loop behavior the batched kernel cannot replay"
            )
        if self.dispatchers > 1:
            return (
                f"multi_dispatcher: m={self.dispatchers} front-ends "
                "interleave per-dispatcher draws by event order"
            )
        if self.faults is not None:
            return "fault injection (timeouts and retries are event-driven)"
        if self.autoscaler is not None:
            return (
                "autoscaler: elastic capacity schedules controller ticks "
                "and per-dispatch availability checks in the event loop"
            )
        if self.overload is not None and self.overload.active:
            return (
                f"{self.overload.blocker_reason()}: per-arrival refusal "
                "decisions are sequential, not phase-batchable"
            )
        if self.probes and any(
            getattr(p, "requires_event_loop", True) for p in self.probes
        ):
            return "observability probes need the event loop's per-event hooks"
        if type(self.staleness) not in (PeriodicUpdate, LossyPeriodicUpdate):
            return (
                f"staleness model {type(self.staleness).__name__} is not a "
                "phase-based bulletin board"
            )
        if self.staleness.phase_offset != 0.0:
            return (
                "periodic board has a non-zero phase_offset; the batched "
                "refresh clock replays the unstaggered schedule only"
            )
        if type(self.arrivals) is TimeVaryingPoissonArrivals:
            if not self.arrivals.program.is_constant:
                return (
                    "nonstationary_arrivals: a time-varying rate program "
                    "thins candidate arrivals per event; only a constant "
                    "program replays the stationary draw sequence"
                )
            # A constant program replays PoissonArrivals' exact draws and
            # only its total_rate is consumed by the batch kernels.
        elif type(self.arrivals) is not PoissonArrivals:
            return (
                f"arrival source {type(self.arrivals).__name__} interleaves "
                "per-client draws by event order"
            )
        if not self.service.batch_matches_scalar:
            return (
                f"service distribution {type(self.service).__name__} does "
                "not draw bitwise-identically in batches"
            )
        if (
            type(self.rate_estimator).observe_arrival
            is not RateEstimator.observe_arrival
        ):
            return (
                f"rate estimator {type(self.rate_estimator).__name__} "
                "updates its estimate at every arrival"
            )
        if not self.policy.phase_batchable(self.num_servers):
            return (
                f"policy {type(self.policy).__name__} cannot replay a phase "
                "with batched draws"
            )
        if not self._policy_batch_consistent():
            return (
                f"policy {type(self.policy).__name__} overrides select() "
                "without a matching select_batch(), so the batched replay "
                "could diverge from the scalar path"
            )
        return None

    def _policy_batch_consistent(self) -> bool:
        """Whether the policy's ``select_batch`` can stand in for ``select``.

        A subclass that overrides ``select`` while inheriting its parent's
        ``select_batch`` would batch-replay the *parent's* behavior; the
        batch method is only trusted when it is defined at (or below) the
        class that defines ``select``.
        """

        def defining_class(name: str) -> type:
            for klass in type(self.policy).__mro__:
                if name in vars(klass):
                    return klass
            raise AttributeError(name)  # unreachable: Policy defines both

        return issubclass(
            defining_class("select_batch"), defining_class("select")
        )

    def fluid_blocker(self) -> str | None:
        """Why the mean-field fluid engine cannot run, or ``None`` if it can.

        The fluid engine replaces the finite cluster with its n → ∞
        mean-field limit, so it needs every component to have an exact
        fluid translation: Poisson arrivals, exponential service, a
        deterministic periodic board, homogeneous rates and a policy
        whose per-phase routing reduces to a probability vector over
        reported load levels (see DESIGN.md §11).
        """
        from repro.core.ksubset import KSubsetPolicy
        from repro.core.li_basic import BasicLIPolicy
        from repro.core.random_policy import RandomPolicy
        from repro.core.threshold import ThresholdPolicy
        from repro.staleness.periodic import PeriodicUpdate
        from repro.workloads.arrivals import (
            PoissonArrivals,
            TimeVaryingPoissonArrivals,
        )
        from repro.workloads.distributions import Exponential

        if type(self) is not ClusterSimulation:
            return (
                f"{type(self).__name__} subclasses the driver and may add "
                "behavior with no mean-field translation"
            )
        if self.dispatchers > 1:
            return "multi_dispatcher runs have no single-board fluid model"
        if self.faults is not None:
            return "fault injection has no fluid translation"
        if self.autoscaler is not None:
            return (
                "autoscaler: the fluid fixed point assumes a constant "
                "server population"
            )
        if self.overload is not None and self.overload.active:
            return f"{self.overload.blocker_reason()}: no fluid translation"
        if self.probes and any(
            getattr(p, "requires_event_loop", True) for p in self.probes
        ):
            return "observability probes need per-event hooks; the fluid "\
                "engine simulates no events"
        if type(self.staleness) is not PeriodicUpdate:
            return (
                f"staleness model {type(self.staleness).__name__} is not "
                "the deterministic periodic board the fluid phase map models"
            )
        if self.staleness.phase_offset != 0.0:
            return "periodic board phase_offset must be 0 for the fluid map"
        if self.staleness.metric != "queue-length":
            return (
                f"board metric {self.staleness.metric!r} has no fluid "
                "translation (levels must be integer queue lengths)"
            )
        if type(self.arrivals) is TimeVaryingPoissonArrivals:
            if not self.arrivals.program.is_constant:
                return (
                    "nonstationary_arrivals: the fluid fixed point assumes "
                    "a stationary arrival rate"
                )
        elif type(self.arrivals) is not PoissonArrivals:
            return (
                f"arrival source {type(self.arrivals).__name__} is not the "
                "Poisson stream the fluid arrival terms assume"
            )
        if type(self.service) is not Exponential:
            return (
                f"service distribution {type(self.service).__name__} is not "
                "exponential; the fluid occupancy chains are Markovian"
            )
        if self.server_rates is not None and len(set(self.server_rates)) > 1:
            return "heterogeneous server_rates have no single-class fluid model"
        if self.client_latency is not None:
            return "client_latency matrices have no fluid translation"
        if (
            type(self.rate_estimator).observe_arrival
            is not RateEstimator.observe_arrival
        ):
            return (
                f"rate estimator {type(self.rate_estimator).__name__} "
                "updates per arrival; the fluid engine has no arrivals"
            )
        policy = self.policy
        if type(policy) is RandomPolicy:
            return None
        if type(policy) is KSubsetPolicy:
            return None
        if type(policy) is BasicLIPolicy:
            if policy.timestamp_aware:
                return (
                    "timestamp-aware LI changes interpretation within a "
                    "phase; the fluid map is phase-constant"
                )
            return None
        if type(policy) is ThresholdPolicy:
            if (
                policy.k is not None
                and policy.k != self.num_servers
                and policy.fallback != "random"
            ):
                return (
                    "threshold with a k-subset probe and least-loaded "
                    "fallback has no closed fluid routing law"
                )
            return None
        return (
            f"policy {type(policy).__name__} has no fluid routing "
            "translation (supported: random, k-subset, threshold, basic LI)"
        )

    def engine_decision(self) -> tuple[str, str]:
        """Resolve the ``engine`` setting to ``(engine, reason)``.

        Raises :class:`ValueError` when ``engine="fast"``, ``"vector"``
        or ``"fluid"`` was requested but the configuration is ineligible
        (the reason names the blocking feature).
        """
        if self.engine == "event":
            return "event", "engine='event' requested"
        if self.engine == "fluid":
            blocker = self.fluid_blocker()
            if blocker is not None:
                raise ValueError(
                    "engine='fluid' requested but the fluid engine is "
                    f"unavailable: {blocker}"
                )
            return "fluid", "mean-field fixed point requested"
        blocker = self.fast_path_blocker()
        if self.engine == "vector":
            if blocker is not None:
                raise ValueError(
                    "engine='vector' requested but the vector kernel is "
                    f"unavailable: {blocker}"
                )
            return "vector", "vectorized batch kernel requested"
        if blocker is None:
            return "fast", "periodic board with batchable components"
        if self.engine == "fast":
            raise ValueError(
                f"engine='fast' requested but the fast path is unavailable: "
                f"{blocker}"
            )
        return "event", blocker

    def run(self) -> SimulationResult:
        """Execute the simulation and return its measurements.

        Selects the engine per :meth:`engine_decision`; the event, fast
        and vector engines produce bit-identical results, the fluid
        engine a mean-field asymptote.
        """
        validate_warmup = getattr(self.arrivals, "validate_warmup", None)
        if validate_warmup is not None:
            validate_warmup(self.warmup_fraction, self.total_jobs)
        engine, reason = self.engine_decision()
        self.engine_used = engine
        if self.probes:
            for probe in self.probes:
                hook = getattr(probe, "on_engine", None)
                if hook is not None:
                    hook(engine, reason, self)
        if self.dispatchers > 1:
            return self._run_multidispatch()
        if engine in ("fast", "vector"):
            from repro.engine.fastpath import run_fast_path

            if engine == "vector":
                return run_fast_path(self, min_jobs_per_round=0)
            return run_fast_path(self)
        if engine == "fluid":
            from repro.engine.fluid import run_fluid

            return run_fluid(self)
        return self._run_event()

    def _run_multidispatch(self) -> SimulationResult:
        """Delegate an m > 1 run to the multi-dispatcher driver.

        The configuration maps to a shared bulletin board read by
        ``dispatchers`` front-ends, each owning a deep copy of the policy
        and rate estimator bound to the honest local rate λ_d = λ/m.
        """
        from repro.multidispatch.simulation import MultiDispatchSimulation
        from repro.workloads.arrivals import PoissonArrivals

        if type(self.arrivals) is not PoissonArrivals:
            raise ValueError(
                "dispatchers > 1 splits one aggregate Poisson stream "
                f"across front-ends; {type(self.arrivals).__name__} cannot "
                "be split (construct MultiDispatchSimulation directly for "
                "custom setups)"
            )
        if self.faults is not None:
            raise ValueError(
                "server fault injection is not supported with "
                "dispatchers > 1; use MultiDispatchSimulation("
                "dispatcher_faults=...) for front-end faults"
            )
        if self.autoscaler is not None:
            raise ValueError(
                "autoscaling is not supported with dispatchers > 1: the "
                "controller assumes a single dispatcher's board and λ "
                "estimate as its observation channel"
            )
        if self.overload is not None and self.overload.retry_storm is not None:
            raise ValueError(
                "retry storms are not supported with dispatchers > 1: "
                "re-submissions would need a per-client home dispatcher "
                "the split-arrival model does not define"
            )
        delegate = MultiDispatchSimulation(
            num_servers=self.num_servers,
            total_rate=self.arrivals.total_rate,
            service=self.service,
            policy=self.policy,
            staleness=self.staleness,
            num_dispatchers=self.dispatchers,
            board="shared",
            rate_estimator=self.rate_estimator,
            lambda_view="local",
            total_jobs=self.total_jobs,
            warmup_fraction=self.warmup_fraction,
            seed=self.seed,
            trace_jobs=self.trace_jobs,
            trace_response_times=self.trace_response_times,
            server_rates=self.server_rates,
            client_latency=self.client_latency,
            probes=self.probes,
            overload=self.overload,
        )
        return delegate.run()

    def _run_event(self) -> SimulationResult:
        """The reference event-driven engine (one heap event per arrival)."""
        streams = RandomStreams(self.seed)
        sim = Simulator()
        rates = self.server_rates
        if rates is None:
            rates = [1.0] * self.num_servers

        overload = self.overload if self.overload is not None else None
        overload_active = overload is not None and overload.active
        queue_capacity = overload.queue_capacity if overload_active else None
        admission = overload.admission if overload_active and overload.sheds else None
        storm = overload.retry_storm if overload_active else None

        servers = [
            Server(i, rate, queue_capacity=queue_capacity)
            for i, rate in enumerate(rates)
        ]

        probe_set = None
        if self.probes:
            from repro.obs.probes import ProbeSet

            probe_set = ProbeSet(self.probes)
            probe_set.on_attach(sim, servers)

        faults = self.faults
        if self.autoscaler is not None:
            from repro.nonstationary.autoscale import ElasticCapacityInjector

            # Elastic capacity rides the fault interface: the wrapper makes
            # inactive servers indistinguishable from crashed ones to the
            # dispatcher and the board, composing with any inner injector.
            faults = ElasticCapacityInjector(self.autoscaler, inner=self.faults)
        retry = faults.retry if faults is not None else None
        faults_rng = None
        if faults is not None:
            faults_rng = streams.stream("faults")
            faults.attach(sim, servers, faults_rng, probes=probe_set)

        breakers = None
        if overload_active and overload.breaker is not None:
            on_transition = None
            if probe_set is not None:
                on_transition = probe_set.on_breaker_transition
            breakers = BreakerBoard(
                self.num_servers,
                overload.breaker,
                rng=(
                    streams.stream("breaker")
                    if overload.breaker.cooldown_jitter > 0
                    else None
                ),
                on_transition=on_transition,
            )
        if admission is not None:
            admission.bind(
                self.num_servers,
                (
                    streams.stream("admission")
                    if isinstance(admission, ProbabilisticShed)
                    else None
                ),
            )
        storm_rng = (
            streams.stream("retry-storm")
            if storm is not None and storm.jitter > 0
            else None
        )

        self.staleness.attach(
            sim,
            servers,
            streams.stream("staleness"),
            probes=probe_set,
            faults=faults,
        )
        self.rate_estimator.bind(self.num_servers, self._per_server_rate())
        if self.autoscaler is not None:
            # The controller observes through the same stale channels the
            # dispatcher uses: the bulletin board and the λ estimator.
            faults.connect(self.staleness, self.rate_estimator)
        self.policy.bind(
            self.num_servers,
            streams.stream("policy"),
            self.rate_estimator,
            server_rates=np.asarray(rates, dtype=np.float64),
        )
        core = DispatchCore(
            self.num_servers, self.policy, admission, breakers, retry, faults_rng
        )

        metrics = ClusterMetrics(
            num_servers=self.num_servers,
            warmup_jobs=int(self.total_jobs * self.warmup_fraction),
            trace_response_times=self.trace_response_times,
        )
        service_rng = streams.stream("service")
        trace: list[Job] | None = [] if self.trace_jobs else None
        arrivals_seen = 0
        pending_retries = 0
        pending_storm = 0

        def maybe_stop() -> None:
            if (
                arrivals_seen >= self.total_jobs
                and pending_retries == 0
                and pending_storm == 0
            ):
                sim.stop()

        def attempt_dispatch(
            index: int,
            client_id: int,
            arrival_time: float,
            service_time: float,
            server_id: int,
            excluded: frozenset[int],
            retries_done: int,
            resubmits_done: int = 0,
        ) -> None:
            nonlocal pending_retries
            now = sim.now
            if server_id < 0:
                # The breaker knows what the stale board does not: the
                # chosen server has been refusing work.  Route around it,
                # on a fresh read of the board, or refuse the job outright
                # if every server is blocked.
                if server_id == BLOCKED:
                    refuse(
                        index,
                        client_id,
                        arrival_time,
                        service_time,
                        resubmits_done,
                        "breaker-blocked",
                    )
                    return
                server_id = core.reroute(
                    self.staleness.view(client_id, now).loads, now, excluded
                )
            server = servers[server_id]
            if faults is not None and faults.is_down(server_id, now):
                # The board said otherwise; the dispatcher discovers the
                # crash the hard way, by waiting out the timeout — which
                # is exactly the signal that trips a breaker.
                discovered = core.discover(
                    server_id, retries_done, excluded, now
                )
                if discovered is None:
                    metrics.record_failure(server_id, retries=retries_done)
                    if probe_set is not None:
                        probe_set.on_job_failed(
                            now + retry.timeout, server_id, "retries-exhausted"
                        )
                    return
                delay, excluded = discovered
                next_attempt = retries_done + 1
                if probe_set is not None:
                    probe_set.on_retry(now, client_id, server_id, next_attempt)
                pending_retries += 1

                def redispatch() -> None:
                    nonlocal pending_retries
                    pending_retries -= 1
                    target = core.redispatch(
                        self.staleness.view(client_id, sim.now).loads,
                        sim.now,
                        excluded,
                    )
                    attempt_dispatch(
                        index,
                        client_id,
                        arrival_time,
                        service_time,
                        target,
                        excluded,
                        next_attempt,
                        resubmits_done,
                    )
                    maybe_stop()

                sim.schedule_after(delay, redispatch)
                return

            if queue_capacity is None:
                completion = server.assign(now, service_time)
            else:
                accepted = server.try_assign(now, service_time)
                if accepted is None:
                    # Queue full: the dispatch bounced off the capacity
                    # limit.  Charged to the server's rejection count and
                    # to its breaker, then the job is refused (and may
                    # come back as a storm re-submission).
                    metrics.record_reject(server_id)
                    core.rejected(server_id, now)
                    if probe_set is not None:
                        probe_set.on_job_rejected(now, server_id)
                    refuse(
                        index,
                        client_id,
                        arrival_time,
                        service_time,
                        resubmits_done,
                        "queue-full",
                    )
                    return
                completion = accepted
            core.accepted(server_id, now)
            aborted = server.last_assign_aborted
            if aborted or not math.isfinite(completion):
                metrics.record_failure(server_id, retries=retries_done)
                if probe_set is not None:
                    probe_set.on_dispatch(
                        now, client_id, server_id, server.queue_length(now)
                    )
                    probe_set.on_job_failed(
                        completion if aborted else now,
                        server_id,
                        "aborted" if aborted else "stalled",
                    )
                return
            self.staleness.on_dispatch(client_id, server_id, now)
            penalty = now - arrival_time
            response = completion - arrival_time
            if self.client_latency is not None:
                response += self.client_latency[
                    client_id % self.client_latency.shape[0], server_id
                ]
            metrics.record(
                server_id, response, retries=retries_done, penalty=penalty
            )
            if probe_set is not None:
                if server.timeline is None:
                    start = completion - service_time / server.service_rate
                else:
                    start = max(now, completion - service_time / server.service_rate)
                probe_set.on_dispatch(
                    now, client_id, server_id, server.queue_length(now)
                )
                probe_set.on_job_start(server_id, start, service_time)
                probe_set.on_job_complete(server_id, completion, response)
            if trace is not None:
                trace.append(
                    Job(
                        index=index,
                        client_id=client_id,
                        server_id=server_id,
                        arrival_time=arrival_time,
                        service_time=service_time,
                        completion_time=completion,
                        retries=retries_done,
                        penalty=penalty,
                    )
                )

        def refuse(
            index: int,
            client_id: int,
            arrival_time: float,
            service_time: float | None,
            resubmits_done: int,
            reason: str,
        ) -> None:
            # A job the system would not take: shed by admission, bounced
            # by a full queue, or blocked by breakers on every server.
            # Without a retry storm the client gives up immediately; with
            # one, the job comes back as a fresh arrival after a jittered
            # backoff — the feedback loop that makes overload metastable.
            nonlocal pending_storm
            if storm is None or resubmits_done >= storm.max_resubmits:
                metrics.record_drop()
                if probe_set is not None:
                    probe_set.on_job_failed(
                        sim.now,
                        -1,
                        "storm-exhausted" if storm is not None else reason,
                    )
                return
            next_resubmit = resubmits_done + 1
            metrics.record_resubmit()
            pending_storm += 1

            def resubmit() -> None:
                nonlocal pending_storm
                pending_storm -= 1
                self.rate_estimator.observe_arrival(sim.now)
                submit(index, client_id, arrival_time, next_resubmit, service_time)
                maybe_stop()

            sim.schedule_after(storm.delay(next_resubmit, storm_rng), resubmit)

        def submit(
            index: int,
            client_id: int,
            arrival_time: float,
            resubmits_done: int,
            service_time: float | None,
        ) -> None:
            # The dispatcher's full pipeline for one (re-)submission:
            # stale view -> admission -> server selection -> dispatch.
            # The job's service demand is sampled once, at its first
            # dispatch attempt, and carried across re-submissions.
            now = sim.now
            view = self.staleness.view(client_id, now)
            server_id = core.dispatch(view, now)
            if server_id == SHED:
                metrics.record_shed()
                if probe_set is not None:
                    probe_set.on_job_shed(now, client_id)
                refuse(
                    index, client_id, arrival_time, service_time,
                    resubmits_done, "shed",
                )
                return
            if service_time is None:
                service_time = self.service.sample(service_rng)
            attempt_dispatch(
                index,
                client_id,
                arrival_time,
                service_time,
                server_id,
                frozenset(),
                0,
                resubmits_done,
            )

        def on_arrival(client_id: int) -> None:
            nonlocal arrivals_seen
            if arrivals_seen >= self.total_jobs:
                return  # quota reached; the run is only draining retries
            now = sim.now
            self.rate_estimator.observe_arrival(now)
            index = arrivals_seen
            arrivals_seen += 1
            submit(index, client_id, now, 0, None)
            maybe_stop()

        self.arrivals.start(sim, streams.stream("arrivals"), on_arrival)
        sim.run()
        if breakers is not None:
            breakers.finalize(sim.now)
            self.last_breaker_summary = breakers.summary()
        if self.autoscaler is not None:
            self.last_scaling_summary = faults.scaling_summary(sim.now)
        if probe_set is not None:
            probe_set.on_finish(sim.now)

        return SimulationResult(
            mean_response_time=metrics.mean_response_time,
            jobs_measured=metrics.jobs_measured,
            jobs_total=metrics.jobs_seen,
            duration=sim.now,
            dispatch_counts=metrics.dispatch_counts.copy(),
            jobs_failed=metrics.jobs_failed,
            jobs_retried=metrics.jobs_retried,
            retries_total=metrics.retries_total,
            retry_penalty=metrics.retry_penalty_total,
            jobs_rejected=metrics.jobs_rejected,
            jobs_shed=metrics.jobs_shed,
            jobs_dropped=metrics.jobs_dropped,
            storm_resubmits=metrics.storm_resubmits,
            breaker_trips=breakers.trips_total if breakers is not None else 0,
            rejected_counts=(
                metrics.rejected_counts.copy() if overload_active else None
            ),
            response_times=(
                metrics.response_times if self.trace_response_times else None
            ),
            trace=trace,
        )

    def _per_server_rate(self) -> float:
        return self.arrivals.total_rate / self.num_servers
