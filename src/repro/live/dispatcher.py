"""The asyncio dispatcher: an unmodified core Policy fronting real sockets.

For each incoming request the dispatcher asks the bulletin board for the
current (stale) :class:`~repro.core.views.LoadView` and hands it to a
:class:`~repro.core.dispatch.DispatchCore` — the decision object the
simulators drive — which admits or sheds, lets the configured
:class:`~repro.core.policy.Policy` pick a backend, and reroutes around
breaker-blocked or drained backends.  The dispatcher forwards the job
over a persistent per-backend connection and feeds outcomes, timeouts
and health-check drains back to the core.

Requests are served concurrently (one task per request, pipelined on the
backend connections), so dispatch decisions interleave with completions
exactly as they would in production — the event-loop scheduling itself
is part of what the sim-vs-wire comparison validates.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.dispatch import BLOCKED, REROUTE, SHED, DispatchCore
from repro.core.policy import Policy
from repro.core.rate_estimators import ExactRate, RateEstimator
from repro.faults.retry import RetryPolicy
from repro.live.board import BulletinBoard
from repro.live.protocol import LiveClock, read_message, send_message
from repro.overload.admission import AdmissionPolicy
from repro.overload.breaker import BreakerBoard, BreakerConfig

__all__ = [
    "DispatcherStats",
    "HealthConfig",
    "LiveDispatcher",
    "parse_health_spec",
]

#: How long ``stop()`` waits for in-flight requests before cancelling.
_DRAIN_TIMEOUT = 10.0


@dataclass(frozen=True)
class HealthConfig:
    """Active health checking: probe backends, drain the dead, rejoin.

    All times are in normalized units (mean service times).  Every
    ``interval`` the dispatcher probes each backend on a fresh
    connection with a ``timeout``-bounded load request; ``down_after``
    consecutive failures drain the backend (the policy stops selecting
    it; requests already in flight still complete) and ``up_after``
    consecutive successes rejoin it.  ``None`` on the dispatcher keeps
    health checking off — the simulator has no analogue, so default
    faulted comparisons run without it.
    """

    interval: float = 1.0
    timeout: float = 0.5
    down_after: int = 2
    up_after: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.interval) or self.interval <= 0:
            raise ValueError(
                f"health interval must be positive, got {self.interval}"
            )
        if not math.isfinite(self.timeout) or self.timeout <= 0:
            raise ValueError(
                f"health timeout must be positive, got {self.timeout}"
            )
        if self.down_after < 1 or self.up_after < 1:
            raise ValueError(
                "health down_after/up_after must be >= 1, got "
                f"{self.down_after}/{self.up_after}"
            )

    def describe(self) -> dict:
        """JSON-serializable configuration digest (for manifests)."""
        return {
            "interval": self.interval,
            "timeout": self.timeout,
            "down_after": self.down_after,
            "up_after": self.up_after,
        }


def parse_health_spec(spec: str) -> HealthConfig:
    """Parse ``"interval=1,timeout=0.5,down_after=2,up_after=1"``.

    The bare string ``"on"`` (or an empty spec) selects every default.
    """
    text = spec.strip()
    if text in ("", "on"):
        return HealthConfig()
    kwargs: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad health spec item {part!r} (expected key=value)"
            )
        key, _, value = part.partition("=")
        key = key.strip()
        if key in ("interval", "timeout"):
            kwargs[key] = float(value)
        elif key in ("down_after", "up_after"):
            kwargs[key] = int(value)
        else:
            raise ValueError(f"unknown health spec key {key!r}")
    return HealthConfig(**kwargs)


@dataclass
class DispatcherStats:
    """Counters accumulated over one dispatcher lifetime.

    ``latencies`` holds per-completed-request response times in
    normalized units (mean service times), in completion order.
    """

    offered: int = 0
    completed: int = 0
    shed: int = 0
    rejected: int = 0
    breaker_blocked: int = 0
    retries: int = 0
    failed: int = 0
    dispatch_counts: np.ndarray | None = None
    latencies: list = field(default_factory=list)

    @property
    def dropped(self) -> int:
        """Requests refused for good (shed or rejected, never served)."""
        return self.shed + self.rejected

    @property
    def goodput(self) -> float:
        """Fraction of offered requests that completed service."""
        return self.completed / self.offered if self.offered else 0.0

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else float("nan")

    def summary(self) -> dict:
        """JSON-serializable digest (for manifests).

        ``retries``/``failed`` appear only when nonzero: fault-free runs
        must stay byte-identical to their pre-chaos manifests.
        """
        summary = {
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "rejected": self.rejected,
            "breaker_blocked": self.breaker_blocked,
            "goodput": self.goodput,
            "mean_latency": self.mean_latency,
            "dispatch_counts": (
                self.dispatch_counts.tolist()
                if self.dispatch_counts is not None
                else None
            ),
        }
        if self.retries:
            summary["retries"] = self.retries
        if self.failed:
            summary["failed"] = self.failed
        return summary


def _done(writer: asyncio.StreamWriter, request_id, **fields) -> None:
    """Send a request's final ``done`` reply."""
    send_message(writer, {"op": "done", "id": request_id, **fields})


class _BackendLink:
    """One persistent, pipelined connection to one backend.

    Work messages are tagged with a sequence number; a reader task
    resolves the matching future when the backend's (possibly reordered)
    reply arrives.  Losing the connection fails every pending future —
    the dispatcher surfaces those as rejections rather than hanging.
    """

    def __init__(self, server_id: int, host: str, port: int) -> None:
        self.server_id = server_id
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._reader_task: asyncio.Task | None = None
        self._next_id = 0
        # Serializes reconnection: concurrent retrying requests must not
        # interleave close/connect and orphan each other's reader tasks.
        self._conn_lock = asyncio.Lock()

    async def connect(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._reader, self._writer = reader, writer
        self._reader_task = asyncio.create_task(
            self._read_loop(reader),
            name=f"backend-link-{self.server_id}-reader",
        )

    @property
    def connected(self) -> bool:
        """A live reader means the connection has not dropped on us."""
        return (
            self._reader_task is not None
            and not self._reader_task.done()
            and self._writer is not None
            and not self._writer.is_closing()
        )

    async def ensure_connected(self, timeout: float | None = None) -> bool:
        """Redial a dropped connection; ``False`` when the dial fails.

        This is how the dispatcher rediscovers a restarted backend: the
        old stream died with the crash, the next attempt redials the
        pinned port.  A backend still down simply refuses the dial.
        """
        async with self._conn_lock:
            if self.connected:
                return True
            await self.close()
            try:
                await asyncio.wait_for(self.connect(), timeout=timeout)
            except (OSError, asyncio.TimeoutError, TimeoutError):
                await self.close()
                return False
            return True

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
        self._reader = None
        self._fail_pending()

    async def submit(
        self, timeout: float | None = None, alive_check=None
    ) -> dict:
        """Send one job; await its reply (``{"ok": ..., "queue": ...}``).

        Never raises on backend trouble: an unreachable backend, a lost
        connection and an expired wait all come back as ``ok=False``
        replies (errors ``backend-unreachable`` /
        ``backend-connection-lost`` / ``timeout``), so callers decide
        retry-vs-refuse without exception plumbing — and an abandoned
        task can never leak an unretrieved exception into the loop.

        ``alive_check`` disambiguates silence: a reply can be late
        because the backend is *dead* or merely *queued*, and only the
        first is the simulator's "discovery" event.  When the wait
        expires and ``await alive_check()`` answers True, the wait is
        re-armed instead of failing — a slow backend is not a crashed
        one.  Only a failed check (or no checker) turns silence into a
        ``timeout`` reply.
        """
        if self._writer is None or self._writer.is_closing():
            return {"ok": False, "error": "backend-unreachable"}
        job_id = self._next_id
        self._next_id += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[job_id] = future
        try:
            send_message(self._writer, {"op": "work", "id": job_id})
            await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            self._pending.pop(job_id, None)
            return {"ok": False, "error": "backend-unreachable"}
        try:
            while True:
                try:
                    # shield: an expired wait must not kill the future —
                    # a True alive_check re-awaits the same reply.
                    return await asyncio.wait_for(
                        asyncio.shield(future), timeout=timeout
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    if alive_check is not None and await alive_check():
                        continue
                    return {"ok": False, "error": "timeout"}
        finally:
            self._pending.pop(job_id, None)

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        while True:
            try:
                message = await read_message(reader)
            except ValueError:
                message = None
            if message is None:
                self._fail_pending()
                return
            future = self._pending.get(message.get("id"))
            if future is not None and not future.done():
                future.set_result(message)

    def _fail_pending(self) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_result(
                    {"ok": False, "error": "backend-connection-lost"}
                )
        self._pending.clear()


class LiveDispatcher:
    """The load balancer process: board + policy + overload machinery.

    Parameters
    ----------
    addresses:
        Backend ``(host, port)`` pairs in server-id order.
    board:
        A started (or about-to-be-started) :class:`BulletinBoard`.
    policy:
        An *unbound* :class:`~repro.core.policy.Policy`; the dispatcher
        binds it to the cluster size, its private random stream and the
        rate estimator, exactly as ``ClusterSimulation`` would.
    clock:
        The experiment's shared clock.
    rate_estimator:
        Optional λ estimator (``None`` keeps the policy's default
        :class:`~repro.core.rate_estimators.ExactRate`); the dispatcher
        feeds it every arrival via ``observe_arrival``.
    true_rate:
        The configured per-server arrival rate, passed to the
        estimator's ``bind`` (the oracle value for ``ExactRate``).
    admission:
        Optional :class:`~repro.overload.admission.AdmissionPolicy`
        consulted before dispatch with the same stale view.
    breaker_config:
        Optional :class:`~repro.overload.breaker.BreakerConfig`; enables
        per-server circuit breakers fed by queue-full rejections.
    retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` — the same
        object the simulator's fault path uses.  When set, a request
        whose backend cannot answer (connection refused/lost, or silence
        past ``retry.timeout`` normalized units *and* a failed liveness
        probe — a slow backend is not a crashed one) is re-dispatched
        by the same :class:`~repro.core.dispatch.DispatchCore` retry
        decisions the simulator makes, after the full discovery timeout
        plus capped exponential backoff, billed in real wall-clock
        sleeps.  ``None`` keeps the single-shot behavior.
    health:
        Optional :class:`HealthConfig`; enables active health probes
        with drain/rejoin.  Independent of ``retry`` (retries *react* to
        a discovered crash; health checks *anticipate* the next one).
    probes:
        Optional object with ``on_dispatch(now, client_id, server_id,
        queue_length)`` and ``on_job_complete(server_id, completion_time,
        response_time)`` hooks (e.g. :class:`repro.obs.live.LiveTrace`).
        ``on_retry(now, client_id, server_id, attempt)`` and
        ``on_health(now, server_id, healthy)`` are consulted via
        ``getattr`` so probe objects only implement what they care
        about.
    """

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]],
        board: BulletinBoard,
        policy: Policy,
        clock: LiveClock,
        *,
        rate_estimator: RateEstimator | None = None,
        true_rate: float = 1.0,
        admission: AdmissionPolicy | None = None,
        breaker_config: BreakerConfig | None = None,
        retry: RetryPolicy | None = None,
        health: HealthConfig | None = None,
        probes=None,
        seed: int | np.random.SeedSequence = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float | None = 60.0,
    ) -> None:
        if not addresses:
            raise ValueError("LiveDispatcher needs at least one backend")
        self.board = board
        self.clock = clock
        self.health = health
        self.probes = probes
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.stats = DispatcherStats(
            dispatch_counts=np.zeros(len(addresses), dtype=np.int64)
        )
        seed_seq = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        # spawn(4), not (3): SeedSequence children are keyed by spawn
        # order, so appending the retry stream keeps the first three
        # children — and every pre-chaos random draw — bit-identical.
        policy_seed, admission_seed, breaker_seed, retry_seed = seed_seq.spawn(
            4
        )
        self._links = [
            _BackendLink(i, host_, port_)
            for i, (host_, port_) in enumerate(addresses)
        ]
        rng = np.random.default_rng(policy_seed)
        # Mirror the simulator's default: an oracle estimator bound to
        # the true per-server rate when no explicit estimator is given.
        if rate_estimator is None:
            rate_estimator = ExactRate()
        rate_estimator.bind(len(addresses), true_rate)
        self._estimator = rate_estimator
        policy.bind(len(addresses), rng, rate_estimator)
        if admission is not None:
            admission.bind(len(addresses), np.random.default_rng(admission_seed))
        self.breakers = (
            BreakerBoard(
                len(addresses),
                breaker_config,
                rng=np.random.default_rng(breaker_seed),
            )
            if breaker_config is not None
            else None
        )
        self.core = DispatchCore(
            len(addresses), policy, admission, self.breakers, retry,
            np.random.default_rng(retry_seed),
        )
        self._server: asyncio.base_events.Server | None = None
        self._in_flight: set[asyncio.Task] = set()
        self._connections: set[asyncio.Task] = set()
        self._accepting = True
        self._health_task: asyncio.Task | None = None
        self._health_failures = [0] * len(addresses)
        self._health_successes = [0] * len(addresses)

    @property
    def num_servers(self) -> int:
        return len(self._links)

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Connect every backend link and open the client listener."""
        if self._server is not None:
            raise RuntimeError("LiveDispatcher is already running")
        for link in self._links:
            await link.connect()
        self._accepting = True
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.health is not None:
            self._health_task = asyncio.create_task(
                self._health_loop(), name="dispatcher-health-checker"
            )

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, close links.

        Ordering matters: the listener closes first (no new work), then
        every in-flight request task is awaited (draining), and only
        then are the backend links torn down — so no accepted request is
        ever abandoned by its own dispatcher.
        """
        self._accepting = False
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._in_flight:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*self._in_flight, return_exceptions=True),
                    timeout=_DRAIN_TIMEOUT,
                )
            except (asyncio.TimeoutError, TimeoutError):
                for task in self._in_flight:
                    task.cancel()
                await asyncio.gather(*self._in_flight, return_exceptions=True)
        # Snapshot once: a cancelled handler discards itself from
        # _connections on its way out, so re-listing would skip it and
        # leak the task mid-teardown.
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        for task in connections:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._connections.clear()
        for link in self._links:
            await link.close()

    # -- health checking -------------------------------------------------

    @property
    def unhealthy(self) -> frozenset[int]:
        """Backends currently drained by the health checker."""
        return frozenset(self.core.drained)

    async def _probe_backend(self, server_id: int) -> bool:
        """One health probe; ``True`` == answered inside the timeout."""
        return await self._probe_load(
            server_id, self.clock.to_wall(self.health.timeout)
        )

    async def _probe_load(self, server_id: int, timeout: float) -> bool:
        """Load-probe a backend on a fresh connection.

        A fresh dial per probe keeps a stalled backend's half-open
        streams from wedging the caller, and doubles as the liveness
        signal itself: a killed backend refuses the dial, a stalled one
        accepts but never answers inside the timeout.  Shared by the
        health checker and the retry path's silence disambiguation.
        """
        link = self._links[server_id]
        writer = None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(link.host, link.port),
                timeout=timeout,
            )
            send_message(writer, {"op": "load"})
            await writer.drain()
            reply = await asyncio.wait_for(
                read_message(reader), timeout=timeout
            )
            return reply is not None and reply.get("op") == "load"
        except (OSError, asyncio.TimeoutError, TimeoutError, ValueError):
            return False
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass

    def _record_health(self, server_id: int, answered: bool) -> None:
        """Update the consecutive counters; drain or rejoin on threshold."""
        drained = self.core.drained
        if answered:
            self._health_failures[server_id] = 0
            self._health_successes[server_id] += 1
            if (
                server_id in drained
                and self._health_successes[server_id] >= self.health.up_after
            ):
                drained.discard(server_id)
                self._notify_health(server_id, healthy=True)
        else:
            self._health_successes[server_id] = 0
            self._health_failures[server_id] += 1
            if (
                server_id not in drained
                and self._health_failures[server_id] >= self.health.down_after
            ):
                drained.add(server_id)
                self._notify_health(server_id, healthy=False)

    def _notify_health(self, server_id: int, healthy: bool) -> None:
        on_health = getattr(self.probes, "on_health", None)
        if on_health is not None:
            on_health(self.clock.now(), server_id, healthy)

    async def _health_loop(self) -> None:
        """Probe every backend each interval; maintain the drain set."""
        interval = self.clock.to_wall(self.health.interval)
        while True:
            await asyncio.sleep(interval)
            results = await asyncio.gather(
                *(self._probe_backend(s) for s in range(self.num_servers))
            )
            for server_id, answered in enumerate(results):
                self._record_health(server_id, answered)

    # -- request path ----------------------------------------------------

    async def _serve_request(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        request_id = request.get("id")
        client_id = int(request.get("client", 0))
        arrival = self.clock.now()
        self.stats.offered += 1
        self._estimator.observe_arrival(arrival)
        view = self.board.view(client_id, arrival)
        core = self.core
        server = core.dispatch(view, arrival)
        if server == SHED:
            self.stats.shed += 1
            _done(writer, request_id, ok=False, error="shed")
            return
        if server < 0:
            self.stats.breaker_blocked += 1
            if server == BLOCKED:
                self.stats.rejected += 1
                _done(writer, request_id, ok=False, error="breaker-open")
                return
            server = core.reroute(view.loads, arrival)
        if self.probes is not None:
            self.probes.on_dispatch(
                arrival, client_id, server, int(view.loads[server]) + 1
            )
        reply, server = await self._dispatch_with_retries(server, client_id)
        done = self.clock.now()
        if reply.get("ok"):
            latency = done - arrival
            self.stats.completed += 1
            self.stats.dispatch_counts[server] += 1
            self.stats.latencies.append(latency)
            core.accepted(server, done)
            if self.probes is not None:
                self.probes.on_job_complete(server, done, latency)
            _done(writer, request_id, ok=True, server=server, latency=latency)
            return
        error = reply.get("error", "rejected")
        if error == "retries-exhausted":
            # A failure, as in the simulator, charged to the server that
            # failed it; each discovery already fed the breaker.
            self.stats.failed += 1
            self.stats.dispatch_counts[server] += 1
        elif error == "breaker-open":
            # A retry found every remaining backend breaker-blocked.
            self.stats.breaker_blocked += 1
            self.stats.rejected += 1
        else:
            self.stats.rejected += 1
            core.rejected(server, done)
        _done(writer, request_id, ok=False, server=server, error=error)

    async def _dispatch_with_retries(
        self, server: int, client_id: int
    ) -> tuple[dict, int]:
        """Submit to ``server``; with a retry policy, survive crashes.

        A refused dial, a lost stream, or silence past ``retry.timeout``
        confirmed by a failed liveness probe discovers a dead backend; the
        dispatch core then decides the retry exactly as in the simulator,
        and the full discovery timeout plus backoff is slept out before
        redispatching by a fresh board view.  Queue-full rejections are
        refused, never retried.  Stall-mode infidelities: DESIGN.md §15.
        """
        core = self.core
        retry = core.retry
        if retry is None:
            link = self._links[server]
            if not link.connected:
                # Heal a link lost to network impairment even without a
                # retry policy: the single shot deserves a live socket.
                await link.ensure_connected(timeout=self.request_timeout)
            reply = await link.submit(timeout=self.request_timeout)
            return reply, server
        loop = asyncio.get_running_loop()
        timeout_wall = self.clock.to_wall(retry.timeout)
        excluded: frozenset[int] = frozenset()
        attempt = 0
        while True:
            link = self._links[server]
            started = loop.time()
            if await link.ensure_connected(timeout=timeout_wall):
                remaining = max(
                    0.001, timeout_wall - (loop.time() - started)
                )
                probe = server

                async def _alive() -> bool:
                    return await self._probe_load(probe, timeout_wall)

                reply = await link.submit(
                    timeout=remaining, alive_check=_alive
                )
            else:
                reply = {"ok": False, "error": "backend-unreachable"}
            if reply.get("ok") or reply.get("error") == "queue-full":
                return reply, server
            now = self.clock.now()
            discovered = core.discover(server, attempt, excluded, now)
            if discovered is None:
                return {"ok": False, "error": "retries-exhausted"}, server
            delay, excluded = discovered
            attempt += 1
            self.stats.retries += 1
            on_retry = getattr(self.probes, "on_retry", None)
            if on_retry is not None:
                on_retry(now, client_id, server, attempt)
            # The delay counts from the dispatch: time already spent
            # waiting on the dead backend is part of its timeout.
            penalty_wall = self.clock.to_wall(delay) - min(
                loop.time() - started, timeout_wall
            )
            if penalty_wall > 0:
                await asyncio.sleep(penalty_wall)
            now = self.clock.now()
            loads = self.board.view(client_id, now).loads
            target = core.redispatch(loads, now, excluded)
            if target == BLOCKED:
                return {"ok": False, "error": "breaker-open"}, server
            if target == REROUTE:
                target = core.reroute(loads, now, excluded)
            server = target

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_message(reader)
                except ValueError:
                    send_message(
                        writer, {"op": "error", "error": "bad-message"}
                    )
                    break
                if request is None:
                    break
                if not self._accepting:
                    _done(
                        writer, request.get("id"), ok=False,
                        error="shutting-down",
                    )
                    continue
                serve = asyncio.create_task(
                    self._serve_request(request, writer),
                    name=f"serve-{request.get('id')}",
                )
                self._in_flight.add(serve)
                serve.add_done_callback(self._in_flight.discard)
                await writer.drain()
        except asyncio.CancelledError:
            # stop() cancels connection readers after draining in-flight
            # work; finishing cleanly here keeps the streams-module task
            # wrapper from re-raising into the event loop.
            pass
        finally:
            # Never close the client connection while its own requests
            # are still in service: completions must be deliverable.
            pending = [t for t in self._in_flight if not t.done()]
            if pending:
                try:
                    await asyncio.gather(*pending, return_exceptions=True)
                except asyncio.CancelledError:
                    pass
            writer.close()
            try:
                # CancelledError here means stop() caught this handler
                # already in teardown; absorbing it keeps the task from
                # ending cancelled (the streams accept-callback would
                # re-raise that into the event loop).
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass
            # Deregister only after the last await: once removed from
            # _connections the task must have no remaining suspension
            # points, or stop() could miss it mid-teardown.
            self._connections.discard(task)
