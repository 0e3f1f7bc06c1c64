"""m concurrent stale-view dispatchers against one server cluster.

Dahlin's analysis has a single front-end interpreting stale load, but the
herd effect is worst when *many* dispatchers act on the same stale
bulletin board.  :class:`MultiDispatchSimulation` runs ``m`` concurrent
dispatchers inside the existing event engine:

* each dispatcher owns named RNG substreams — ``"arrivals[d]"`` and
  ``"policy[d]"`` (plus ``"staleness[d]"`` for independent boards) — so
  the common-random-numbers discipline extends across ``m``: changing
  one dispatcher's policy never perturbs another's draws;
* each dispatcher owns a *policy instance* and a *rate estimator
  instance*, bound to the dispatcher-local arrival rate λ_d
  (``lambda_view="local"``, the honest split λ/m) or to the global λ
  (``lambda_view="global"``, the coordinated upper bound) — so
  per-dispatcher Basic/Aggressive LI interprets staleness with the λ the
  dispatcher can actually know;
* the staleness view is either one **shared** board (all dispatchers
  read the same stale vector — the worst herd regime) or **independent**
  per-dispatcher boards (periodic boards are phase-staggered by
  ``period·d/m`` unless ``stagger_phases=False``; lossy boards lose
  refreshes independently per dispatcher);
* dispatchers may receive **heterogeneous** shares of the aggregate
  Poisson stream via ``dispatcher_weights``;
* dispatchers may **crash and recover** on lifecycle timelines reused
  from :mod:`repro.faults` (``dispatcher_faults``): arrivals at a down
  front-end are redirected to the next live one (wrap-around scan), and
  when every front-end is down the job is lost.

When ``m == 1`` the substream labels collapse to the plain
``"arrivals"``/``"policy"``/``"staleness"``/``"service"`` labels of
:class:`~repro.cluster.simulation.ClusterSimulation` and the event loop
replays its draw order exactly, so a one-dispatcher run is bit-identical
to the single-dispatcher driver (enforced by tests).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.cluster.job import Job
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.server import Server
from repro.cluster.simulation import SimulationResult, validate_dispatcher_count
from repro.core.dispatch import REROUTE, SHED, DispatchCore
from repro.core.policy import Policy
from repro.core.rate_estimators import ExactRate, RateEstimator
from repro.engine.rng import RandomStreams
from repro.engine.simulator import Simulator
from repro.faults.schedule import FaultSchedule, ServerTimeline
from repro.multidispatch.coordinator import ClusterCoordinator
from repro.multidispatch.policies import MultiDispatcherPolicy
from repro.overload.admission import ProbabilisticShed
from repro.overload.breaker import BreakerBoard
from repro.overload.config import OverloadConfig
from repro.staleness.base import StalenessModel
from repro.staleness.periodic import PeriodicUpdate
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.distributions import Distribution

__all__ = ["MultiDispatchSimulation", "MultiDispatchResult"]


@dataclass(frozen=True, slots=True)
class MultiDispatchResult(SimulationResult):
    """A :class:`SimulationResult` with per-dispatcher accounting.

    Attributes
    ----------
    dispatcher_jobs:
        Jobs *handled* by each dispatcher (after any fault redirects),
        including warm-up.
    dispatch_matrix:
        ``(m, n)`` dispatcher-by-server job counts, including warm-up;
        its row sums are ``dispatcher_jobs`` and its column sums are
        ``dispatch_counts`` minus nothing (lost jobs touch no server).
    jobs_redirected:
        Arrivals whose home dispatcher was down and that a live one
        picked up.
    messages:
        Coordinator communication cost (``idle_reports``,
        ``load_polls``); all zeros for board-only policies.
    """

    dispatcher_jobs: np.ndarray | None = None
    dispatch_matrix: np.ndarray | None = field(default=None, repr=False)
    jobs_redirected: int = 0
    messages: dict | None = None


def _instantiate(component, kind: str):
    """Build one per-dispatcher component from a factory or a template.

    Factories (zero-argument callables) are simply called; template
    *instances* are deep-copied so dispatchers never share mutable policy
    or estimator state.
    """
    if isinstance(component, (Policy, RateEstimator, StalenessModel)):
        return copy.deepcopy(component)
    if callable(component):
        return component()
    raise TypeError(
        f"{kind} must be an instance or a zero-argument factory, got "
        f"{type(component).__name__}"
    )


class MultiDispatchSimulation:
    """One multi-dispatcher load-balancing simulation.

    Parameters
    ----------
    num_servers:
        Cluster size ``n``.
    total_rate:
        Aggregate Poisson arrival rate λ, split across dispatchers
        (evenly, or by ``dispatcher_weights``).
    service:
        Service-time distribution, shared by all jobs in global event
        order (one ``"service"`` stream, exactly like the
        single-dispatcher driver).
    policy:
        Per-dispatcher selection policy: a zero-argument factory (called
        once per dispatcher) or a template instance (deep-copied).
    staleness:
        The information model.  With ``board="shared"`` a factory or
        instance yielding the one board every dispatcher reads; with
        ``board="independent"`` a factory called once per dispatcher.
    num_dispatchers:
        ``m``, the number of concurrent front-ends.
    board:
        ``"shared"`` (one bulletin board, the paper's worst herd regime)
        or ``"independent"`` (per-dispatcher boards with staggered
        refresh phases).
    dispatcher_weights:
        Optional ``m`` positive weights; dispatcher ``d`` receives the
        fraction ``w_d / Σw`` of the aggregate stream (the heterogeneous
        dispatcher-rate mode).  Defaults to an even split.
    rate_estimator:
        Per-dispatcher λ estimator factory or template (default
        :class:`ExactRate`).
    lambda_view:
        ``"local"`` binds each estimator to the dispatcher-local rate
        λ_d/n — the honest value a front-end can know, which makes LI
        under-estimate window arrivals by a factor of ``m`` (the §5.6
        dangerous direction); ``"global"`` binds the aggregate λ/n,
        modeling dispatchers that are told the total rate.
    dispatcher_faults:
        Optional :class:`~repro.faults.schedule.FaultSchedule` realized
        per *dispatcher* from the ``"dispatcher-faults"`` stream
        (scripted events address dispatchers by their id via
        ``server_id``).  Only UP/DOWN matters for a front-end; degraded
        spans are treated as UP.
    stagger_phases:
        With independent periodic boards, offset board ``d`` by
        ``period·d/m`` so refreshes interleave instead of firing in
        lockstep.  Set ``False`` to keep all boards phase-aligned.
    probes:
        Observability probes; ``client_id`` in probe hooks carries the
        *handling* dispatcher's id.
    overload:
        Optional :class:`~repro.overload.config.OverloadConfig`.  Bounded
        queues live on the *shared* servers, so every dispatcher sees
        rejections consistently; circuit breakers and admission policies
        are per dispatcher (each front-end learns only from its own
        failed dispatches, off ``"breaker[d]"``/``"admission[d]"``
        streams).  Refused jobs are dropped — retry storms are not
        supported here (re-submission needs a home dispatcher the
        split-arrival model does not define) and raise ``ValueError``.

    The remaining parameters (``total_jobs``, ``warmup_fraction``,
    ``seed``, ``trace_jobs``, ``trace_response_times``, ``server_rates``,
    ``client_latency``) match
    :class:`~repro.cluster.simulation.ClusterSimulation`.
    """

    def __init__(
        self,
        num_servers: int,
        total_rate: float,
        service: Distribution,
        policy,
        staleness,
        num_dispatchers: int = 1,
        board: str = "shared",
        dispatcher_weights: list[float] | None = None,
        rate_estimator=None,
        lambda_view: str = "local",
        dispatcher_faults: FaultSchedule | None = None,
        stagger_phases: bool = True,
        total_jobs: int = 100_000,
        warmup_fraction: float = 0.1,
        seed: int = 0,
        trace_jobs: bool = False,
        trace_response_times: bool = False,
        server_rates: list[float] | None = None,
        client_latency: np.ndarray | None = None,
        probes: list | None = None,
        overload: OverloadConfig | None = None,
    ) -> None:
        if num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {num_servers}")
        if not math.isfinite(total_rate) or total_rate <= 0:
            raise ValueError(
                f"total_rate must be positive and finite, got {total_rate}"
            )
        if total_jobs < 1:
            raise ValueError(f"total_jobs must be >= 1, got {total_jobs}")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        self.num_dispatchers = validate_dispatcher_count(num_dispatchers)
        if board not in ("shared", "independent"):
            raise ValueError(
                f"board must be 'shared' or 'independent', got {board!r}"
            )
        if board == "independent" and isinstance(staleness, StalenessModel):
            raise ValueError(
                "board='independent' needs a staleness *factory* (one "
                "board per dispatcher); got a single instance"
            )
        if lambda_view not in ("local", "global"):
            raise ValueError(
                f"lambda_view must be 'local' or 'global', got {lambda_view!r}"
            )
        if dispatcher_weights is not None:
            weights = [float(w) for w in dispatcher_weights]
            if len(weights) != self.num_dispatchers:
                raise ValueError(
                    f"dispatcher_weights has {len(weights)} entries for "
                    f"{self.num_dispatchers} dispatchers"
                )
            if any(not math.isfinite(w) or w <= 0 for w in weights):
                raise ValueError(
                    "dispatcher_weights must be positive and finite, got "
                    f"{dispatcher_weights!r}"
                )
            self.dispatcher_weights = weights
        else:
            self.dispatcher_weights = None
        if dispatcher_faults is not None and not isinstance(
            dispatcher_faults, FaultSchedule
        ):
            raise TypeError(
                "dispatcher_faults must be a FaultSchedule (or None), got "
                f"{type(dispatcher_faults).__name__}"
            )
        if server_rates is not None:
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
        if overload is not None:
            if not isinstance(overload, OverloadConfig):
                raise TypeError(
                    "overload must be an OverloadConfig (or None), got "
                    f"{type(overload).__name__}"
                )
            if overload.retry_storm is not None:
                raise ValueError(
                    "retry storms are not supported with multiple "
                    "dispatchers: re-submissions would need a per-client "
                    "home dispatcher the split-arrival model does not define"
                )

        self.num_servers = num_servers
        self.total_rate = float(total_rate)
        self.service = service
        self.policy = policy
        self.staleness = staleness
        self.board = board
        self.rate_estimator = rate_estimator
        self.lambda_view = lambda_view
        self.dispatcher_faults = dispatcher_faults
        self.stagger_phases = stagger_phases
        self.total_jobs = total_jobs
        self.warmup_fraction = warmup_fraction
        self.seed = seed
        self.trace_jobs = trace_jobs
        self.trace_response_times = trace_response_times
        self.server_rates = server_rates
        self.client_latency = client_latency
        self.probes = list(probes) if probes else None
        self.overload = overload

    # -- configuration helpers -------------------------------------------

    def dispatcher_rates(self) -> list[float]:
        """Per-dispatcher arrival rates λ_d (sums to ``total_rate``)."""
        m = self.num_dispatchers
        if self.dispatcher_weights is None:
            return [self.total_rate / m] * m
        total = sum(self.dispatcher_weights)
        return [self.total_rate * w / total for w in self.dispatcher_weights]

    def _stream_label(self, base: str, dispatcher_id: int) -> str:
        # One dispatcher collapses to the single-dispatcher labels so the
        # m=1 run is bit-identical to ClusterSimulation's event engine.
        if self.num_dispatchers == 1:
            return base
        return f"{base}[{dispatcher_id}]"

    def _make_boards(
        self, sim: Simulator, servers, streams: RandomStreams, probe_set
    ) -> list[StalenessModel]:
        m = self.num_dispatchers
        if self.board == "shared":
            # Attach the caller's instance directly (attach() resets model
            # state), so post-run info_summary() reflects this run exactly
            # like the single-dispatcher driver's does.
            board = (
                self.staleness
                if isinstance(self.staleness, StalenessModel)
                else _instantiate(self.staleness, "staleness")
            )
            board.attach(
                sim, servers, streams.stream("staleness"), probes=probe_set
            )
            return [board] * m
        boards: list[StalenessModel] = []
        for d in range(m):
            model = _instantiate(self.staleness, "staleness")
            if (
                self.stagger_phases
                and isinstance(model, PeriodicUpdate)
                and model.phase_offset == 0.0
                and d > 0
            ):
                model.phase_offset = model.period * d / m
            model.attach(
                sim,
                servers,
                streams.stream(self._stream_label("staleness", d)),
                probes=probe_set,
            )
            boards.append(model)
        return boards

    def _realize_dispatcher_timelines(
        self, rng: np.random.Generator
    ) -> list[ServerTimeline] | None:
        """One lifecycle timeline per dispatcher (mirrors FaultInjector)."""
        schedule = self.dispatcher_faults
        if schedule is None:
            return None
        m = self.num_dispatchers
        scripted = schedule.scripted
        child_seeds = rng.integers(0, 2**63 - 1, size=m)
        timelines: list[ServerTimeline] = []
        for d in range(m):
            events = tuple(e for e in scripted if e.server_id == d)
            if events:
                timelines.append(ServerTimeline(schedule, scripted=events))
            elif schedule.is_null or scripted:
                timelines.append(ServerTimeline(schedule))
            else:
                child = np.random.Generator(
                    np.random.PCG64(int(child_seeds[d]))
                )
                timelines.append(ServerTimeline(schedule, rng=child))
        return timelines

    # -- the event loop ---------------------------------------------------

    def run(self) -> MultiDispatchResult:
        """Execute the simulation and return per-dispatcher measurements."""
        streams = RandomStreams(self.seed)
        sim = Simulator()
        rates = self.server_rates
        if rates is None:
            rates = [1.0] * self.num_servers
        m = self.num_dispatchers
        n = self.num_servers

        overload = self.overload
        overload_active = overload is not None and overload.active
        queue_capacity = overload.queue_capacity if overload_active else None
        # Bounded queues are a property of the shared servers: one
        # capacity, one rejection count, regardless of which dispatcher's
        # job overflowed it.
        servers = [
            Server(i, rate, queue_capacity=queue_capacity)
            for i, rate in enumerate(rates)
        ]

        probe_set = None
        if self.probes:
            from repro.obs.probes import ProbeSet

            probe_set = ProbeSet(self.probes)
            probe_set.on_attach(sim, servers)

        boards = self._make_boards(sim, servers, streams, probe_set)

        # Breakers and admission are dispatcher-local: each front-end
        # learns only from the dispatches it issued itself.
        breaker = overload.breaker if overload_active else None
        admission = (
            overload.admission if overload_active and overload.sheds else None
        )
        on_transition = (
            probe_set.on_breaker_transition if probe_set is not None else None
        )

        server_rates_arr = np.asarray(rates, dtype=np.float64)
        rates_d = self.dispatcher_rates()
        estimators: list[RateEstimator] = []
        cores: list[DispatchCore] = []
        coordinator: ClusterCoordinator | None = None
        track_idle = False
        for d in range(m):
            estimator = (
                ExactRate()
                if self.rate_estimator is None
                else _instantiate(self.rate_estimator, "rate_estimator")
            )
            bound_rate = (
                self.total_rate if self.lambda_view == "global" else rates_d[d]
            )
            estimator.bind(n, bound_rate / n)
            policy = _instantiate(self.policy, "policy")
            policy.bind(
                n,
                streams.stream(self._stream_label("policy", d)),
                estimator,
                server_rates=server_rates_arr,
            )
            if isinstance(policy, MultiDispatcherPolicy):
                if coordinator is None:
                    coordinator = ClusterCoordinator(
                        sim, servers, m, streams.stream("coordination")
                    )
                policy.attach_coordinator(coordinator, d)
                track_idle = track_idle or policy.needs_idle_reports
            breakers_d = admission_d = None
            if breaker is not None:
                breakers_d = BreakerBoard(
                    n,
                    breaker,
                    rng=(
                        streams.stream(self._stream_label("breaker", d))
                        if breaker.cooldown_jitter > 0
                        else None
                    ),
                    on_transition=on_transition,
                )
            if admission is not None:
                admission_d = copy.deepcopy(admission)
                admission_d.bind(
                    n,
                    (
                        streams.stream(self._stream_label("admission", d))
                        if isinstance(admission_d, ProbabilisticShed)
                        else None
                    ),
                )
            estimators.append(estimator)
            cores.append(DispatchCore(n, policy, admission_d, breakers_d))

        timelines = None
        if self.dispatcher_faults is not None:
            timelines = self._realize_dispatcher_timelines(
                streams.stream("dispatcher-faults")
            )

        metrics = ClusterMetrics(
            num_servers=n,
            warmup_jobs=int(self.total_jobs * self.warmup_fraction),
            trace_response_times=self.trace_response_times,
        )
        service_rng = streams.stream("service")
        trace: list[Job] | None = [] if self.trace_jobs else None
        dispatch_matrix = np.zeros((m, n), dtype=np.int64)
        dispatcher_jobs = np.zeros(m, dtype=np.int64)
        arrivals_seen = 0
        jobs_redirected = 0
        latency = self.client_latency
        latency_rows = latency.shape[0] if latency is not None else 0

        def on_arrival(origin: int) -> None:
            nonlocal arrivals_seen, jobs_redirected
            if arrivals_seen >= self.total_jobs:
                return
            now = sim.now
            handler = origin
            if timelines is not None and timelines[origin].is_down(now):
                handler = -1
                for step in range(1, m):
                    candidate = (origin + step) % m
                    if not timelines[candidate].is_down(now):
                        handler = candidate
                        break
                if handler < 0:
                    # Every front-end is down at once: the job is lost.
                    arrivals_seen += 1
                    metrics.record_lost()
                    if probe_set is not None:
                        probe_set.on_job_failed(now, -1, "dispatchers-down")
                    if arrivals_seen >= self.total_jobs:
                        sim.stop()
                    return
                jobs_redirected += 1
            estimators[handler].observe_arrival(now)
            view = boards[handler].view(handler, now)
            core = cores[handler]
            server_id = core.dispatch(view, now)
            if server_id == REROUTE:
                # Route around the tripped server by this dispatcher's own
                # view and breakers.
                server_id = core.reroute(view.loads, now)
            elif server_id < 0:
                # Shed, or blocked on every server: the job is dropped.
                shed = server_id == SHED
                arrivals_seen += 1
                if shed:
                    metrics.record_shed()
                metrics.record_drop()
                if probe_set is not None:
                    if shed:
                        probe_set.on_job_shed(now, handler)
                    probe_set.on_job_failed(
                        now, -1, "shed" if shed else "breaker-blocked"
                    )
                if arrivals_seen >= self.total_jobs:
                    sim.stop()
                return
            service_time = self.service.sample(service_rng)
            index = arrivals_seen
            arrivals_seen += 1
            server = servers[server_id]
            if queue_capacity is None:
                completion = server.assign(now, service_time)
            else:
                accepted = server.try_assign(now, service_time)
                if accepted is None:
                    metrics.record_reject(server_id)
                    metrics.record_drop()
                    core.rejected(server_id, now)
                    if probe_set is not None:
                        probe_set.on_job_rejected(now, server_id)
                        probe_set.on_job_failed(now, -1, "queue-full")
                    if arrivals_seen >= self.total_jobs:
                        sim.stop()
                    return
                completion = accepted
            core.accepted(server_id, now)
            boards[handler].on_dispatch(handler, server_id, now)
            response = completion - now
            if latency is not None:
                response += latency[handler % latency_rows, server_id]
            metrics.record(server_id, response)
            dispatch_matrix[handler, server_id] += 1
            dispatcher_jobs[handler] += 1
            if probe_set is not None:
                start = completion - service_time / server.service_rate
                probe_set.on_dispatch(
                    now, handler, server_id, server.queue_length(now)
                )
                probe_set.on_job_start(server_id, start, service_time)
                probe_set.on_job_complete(server_id, completion, response)
            if track_idle:
                assert coordinator is not None
                sim.schedule(
                    completion, partial(coordinator.idle_check, server_id)
                )
            if trace is not None:
                trace.append(
                    Job(
                        index=index,
                        client_id=handler,
                        server_id=server_id,
                        arrival_time=now,
                        service_time=service_time,
                        completion_time=completion,
                        retries=0,
                        penalty=0.0,
                    )
                )
            if arrivals_seen >= self.total_jobs:
                sim.stop()

        for d, rate_d in enumerate(rates_d):
            PoissonArrivals(rate_d).start(
                sim,
                streams.stream(self._stream_label("arrivals", d)),
                partial(self._fire, on_arrival, d),
            )
        sim.run()
        if breaker is not None:
            for core in cores:
                core.breakers.finalize(sim.now)
        if probe_set is not None:
            probe_set.on_finish(sim.now)

        messages = (
            coordinator.message_summary()
            if coordinator is not None
            else {"idle_reports": 0, "load_polls": 0}
        )
        return MultiDispatchResult(
            mean_response_time=metrics.mean_response_time,
            jobs_measured=metrics.jobs_measured,
            jobs_total=metrics.jobs_seen,
            duration=sim.now,
            dispatch_counts=metrics.dispatch_counts.copy(),
            jobs_failed=metrics.jobs_failed,
            jobs_rejected=metrics.jobs_rejected,
            jobs_shed=metrics.jobs_shed,
            jobs_dropped=metrics.jobs_dropped,
            breaker_trips=(
                sum(core.breakers.trips_total for core in cores)
                if breaker is not None
                else 0
            ),
            rejected_counts=(
                metrics.rejected_counts.copy() if overload_active else None
            ),
            response_times=(
                metrics.response_times if self.trace_response_times else None
            ),
            trace=trace,
            dispatcher_jobs=dispatcher_jobs,
            dispatch_matrix=dispatch_matrix,
            jobs_redirected=jobs_redirected,
            messages=messages,
        )

    @staticmethod
    def _fire(on_arrival, dispatcher_id: int, _client_id: int) -> None:
        # PoissonArrivals reports client id 0; the dispatcher id is the
        # identity that matters here.
        on_arrival(dispatcher_id)

    def __repr__(self) -> str:
        return (
            f"MultiDispatchSimulation(num_servers={self.num_servers!r}, "
            f"total_rate={self.total_rate!r}, "
            f"num_dispatchers={self.num_dispatchers!r}, "
            f"board={self.board!r}, lambda_view={self.lambda_view!r})"
        )
