"""Chaos harness tests: real faults on real sockets, sim-model fidelity.

Covers the :class:`~repro.live.chaos.ChaosOrchestrator` (planning and
live injection), the backend's chaos lifecycle (pause/kill/restart,
rate scaling, sleep-debt hygiene across stalls), bulletin-board entry
eviction, the dispatcher's retry/health machinery, and the acceptance
cell: a live DOWN→UP timeline whose measured mean RT matches the
simulator's prediction for the same fault schedule.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.policy import Policy
from repro.faults.parse import parse_fault_spec
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.live.backend import BackendServer
from repro.live.board import BulletinBoard
from repro.live.chaos import (
    ChaosOrchestrator,
    NetworkImpairment,
    parse_impairment_spec,
)
from repro.live.dispatcher import (
    HealthConfig,
    LiveDispatcher,
    parse_health_spec,
)
from repro.live.protocol import LiveClock, read_message, send_message
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.overload.breaker import BreakerConfig


class _Always(Policy):
    """A stub policy that always picks one fixed server."""

    name = "always"

    def __init__(self, choice: int) -> None:
        super().__init__()
        self._choice = choice

    def select(self, view) -> int:
        return self._choice


class _StubServer:
    """Minimal server-shaped object for ``FaultInjector.attach``."""

    def __init__(self, server_id: int) -> None:
        self.server_id = server_id
        self.timeline = None


async def _probe(address, timeout=5.0):
    """One load round-trip on a fresh connection; the reply dict."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        send_message(writer, {"op": "load"})
        await writer.drain()
        return await asyncio.wait_for(read_message(reader), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class TestNetworkImpairment:
    def test_defaults_are_null(self):
        assert NetworkImpairment().is_null
        assert not NetworkImpairment(delay=0.1).is_null

    def test_validation(self):
        with pytest.raises(ValueError, match="delay must be >= 0"):
            NetworkImpairment(delay=-1.0)
        with pytest.raises(ValueError, match="jitter must be >= 0"):
            NetworkImpairment(jitter=-0.1)
        with pytest.raises(ValueError, match="drop_rate must be in"):
            NetworkImpairment(drop_rate=1.0)

    def test_parse_round_trip(self):
        impairment = parse_impairment_spec("delay=0.2, jitter=0.1, drop=0.01")
        assert impairment.delay == 0.2
        assert impairment.jitter == 0.1
        assert impairment.drop_rate == 0.01
        assert impairment.describe() == {
            "delay": 0.2,
            "jitter": 0.1,
            "drop_rate": 0.01,
        }

    def test_parse_rejects_unknown_and_malformed(self):
        with pytest.raises(ValueError, match="unknown --impair key 'loss'"):
            parse_impairment_spec("loss=0.1")
        with pytest.raises(ValueError, match="expected key=value"):
            parse_impairment_spec("delay")
        with pytest.raises(ValueError, match="needs a number"):
            parse_impairment_spec("delay=slow")


class TestHealthSpec:
    def test_on_and_empty_select_defaults(self):
        assert parse_health_spec("on") == HealthConfig()
        assert parse_health_spec("") == HealthConfig()

    def test_explicit_fields(self):
        config = parse_health_spec(
            "interval=2,timeout=0.25,down_after=3,up_after=2"
        )
        assert config == HealthConfig(
            interval=2.0, timeout=0.25, down_after=3, up_after=2
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown health spec key"):
            parse_health_spec("cadence=1")
        with pytest.raises(ValueError, match="interval must be positive"):
            HealthConfig(interval=0.0)
        with pytest.raises(ValueError, match="down_after/up_after"):
            HealthConfig(down_after=0)


class TestPlanning:
    def _orchestrator(self, schedule, n=2, horizon=100.0, seed=7):
        backends = [
            BackendServer(i, time_unit=0.001, seed=i) for i in range(n)
        ]
        clock = LiveClock(0.001)
        return ChaosOrchestrator(
            backends, schedule, clock, horizon=horizon, seed=seed
        )

    def test_scripted_abort_window_plans_kill_then_restart(self):
        schedule = FaultSchedule(
            scripted=(
                FaultEvent(40.0, 0, "crash"),
                FaultEvent(60.0, 0, "recover"),
            ),
            on_crash="abort",
        )
        plan = self._orchestrator(schedule).events
        assert [(e.time, e.server_id, e.action) for e in plan] == [
            (40.0, 0, "kill"),
            (60.0, 0, "restart"),
        ]

    def test_scripted_stall_window_plans_stall_then_resume(self):
        schedule = FaultSchedule(
            scripted=(
                FaultEvent(40.0, 1, "crash"),
                FaultEvent(60.0, 1, "recover"),
            ),
            on_crash="stall",
        )
        plan = self._orchestrator(schedule).events
        assert [(e.time, e.server_id, e.action) for e in plan] == [
            (40.0, 1, "stall"),
            (60.0, 1, "resume"),
        ]

    def test_degrade_window_plans_rate_changes(self):
        schedule = FaultSchedule(
            scripted=(
                FaultEvent(10.0, 0, "degrade", factor=0.5),
                FaultEvent(30.0, 0, "restore"),
            )
        )
        plan = self._orchestrator(schedule).events
        assert [(e.time, e.action, e.factor) for e in plan] == [
            (10.0, "set-rate", 0.5),
            (30.0, "set-rate", 1.0),
        ]

    def test_null_schedule_plans_nothing(self):
        assert self._orchestrator(FaultSchedule()).events == []

    def test_stochastic_realization_matches_the_injector(self):
        # Same seed, same child-seed derivation: the orchestrator's live
        # timelines must span-for-span equal what FaultInjector.attach
        # realizes for the simulator — the property that makes
        # stochastic live-vs-sim comparisons draw from one process.
        schedule = FaultSchedule(mttf=50.0, mttr=5.0)
        orchestrator = self._orchestrator(schedule, n=3, horizon=400.0, seed=11)
        injector = FaultInjector(schedule=schedule)
        injector.attach(
            None,
            [_StubServer(i) for i in range(3)],
            np.random.default_rng(11),
        )
        for server_id in range(3):
            live = orchestrator.timelines[server_id].spans(400.0)
            sim = injector._timelines[server_id].spans(400.0)
            assert live == sim

    def test_horizon_must_be_finite(self):
        with pytest.raises(ValueError, match="horizon must be positive"):
            self._orchestrator(FaultSchedule(), horizon=float("inf"))

    def test_describe_reports_plan_and_impairment(self):
        backends = [BackendServer(0, time_unit=0.001, seed=0)]
        orchestrator = ChaosOrchestrator(
            backends,
            FaultSchedule(
                scripted=(
                    FaultEvent(5.0, 0, "crash"),
                    FaultEvent(6.0, 0, "recover"),
                )
            ),
            LiveClock(0.001),
            horizon=10.0,
            seed=3,
            impairment=NetworkImpairment(delay=0.25),
        )
        described = orchestrator.describe()
        assert described["planned_events"] == 2
        assert described["seed"] == 3
        assert described["impairment"] == {
            "delay": 0.25,
            "jitter": 0.0,
            "drop_rate": 0.0,
        }


class TestBackendChaosLifecycle:
    def test_pause_silences_resume_answers(self):
        async def scenario():
            backend = BackendServer(0, time_unit=0.002, seed=1)
            await backend.start()
            try:
                assert (await _probe(backend.address))["queue"] == 0
                backend.pause()
                assert backend.paused
                with pytest.raises((asyncio.TimeoutError, TimeoutError)):
                    await _probe(backend.address, timeout=0.2)
                backend.resume()
                assert not backend.paused
                assert (await _probe(backend.address))["op"] == "load"
            finally:
                await backend.stop()

        asyncio.run(scenario())

    def test_kill_discards_jobs_and_refuses_dials(self):
        async def scenario():
            backend = BackendServer(
                0, time_unit=0.05, service="deterministic", seed=1
            )
            await backend.start()
            port = backend.port
            try:
                reader, writer = await asyncio.open_connection(
                    *backend.address
                )
                send_message(writer, {"op": "work", "id": 1})
                await writer.drain()
                await asyncio.sleep(0.01)  # let the job enter the system
                assert backend.queue_length == 1
                await backend.kill()
                assert backend.killed
                assert backend.discarded == 1
                assert backend.queue_length == 0
                # The worker died with the process: no reply ever lands.
                assert await read_message(reader) is None
                writer.close()
                with pytest.raises(OSError):
                    await asyncio.open_connection(*backend.address)
                await backend.restart()
                assert not backend.killed
                assert backend.port == port  # same pinned port
                assert (await _probe(backend.address))["queue"] == 0
            finally:
                await backend.stop()

        asyncio.run(scenario())

    def test_restart_of_running_backend_raises(self):
        async def scenario():
            backend = BackendServer(0, time_unit=0.002, seed=1)
            await backend.start()
            try:
                with pytest.raises(RuntimeError, match="already running"):
                    await backend.restart()
            finally:
                await backend.stop()

        asyncio.run(scenario())

    def test_rate_factor_scales_service_and_validates(self):
        backend = BackendServer(
            0, time_unit=0.01, service="deterministic", seed=1
        )
        assert backend._service_time() == pytest.approx(0.01)
        backend.set_rate_factor(0.5)
        assert backend._service_time() == pytest.approx(0.02)
        backend.set_rate_factor(1.0)
        with pytest.raises(ValueError, match="rate factor must be positive"):
            backend.set_rate_factor(0.0)
        with pytest.raises(ValueError, match="rate factor must be positive"):
            backend.set_rate_factor(float("nan"))

    def test_impairment_requires_rng(self):
        backend = BackendServer(0, time_unit=0.002, seed=1)
        with pytest.raises(ValueError, match="needs a random generator"):
            backend.set_impairment(NetworkImpairment(delay=0.1))
        backend.set_impairment(
            NetworkImpairment(delay=0.1), np.random.default_rng(1)
        )
        backend.set_impairment(None)
        assert backend.impairment is None

    def test_stall_mid_service_accrues_no_phantom_sleep_debt(self):
        # A pause landing while a job sleeps must not be booked as timer
        # overshoot: after resume, the debt stays within [0, mean] — the
        # worker never "repays" stall time by racing through its queue.
        async def scenario():
            backend = BackendServer(
                0, time_unit=0.02, service="deterministic", seed=1
            )
            await backend.start()
            try:
                reader, writer = await asyncio.open_connection(
                    *backend.address
                )
                send_message(writer, {"op": "work", "id": 1})
                await writer.drain()
                await asyncio.sleep(0.005)  # job is mid-service now
                backend.pause()
                await asyncio.sleep(0.1)  # stall for 5 mean services
                backend.resume()
                reply = await asyncio.wait_for(read_message(reader), timeout=5)
                assert reply["ok"]
                mean_wall = backend.time_unit / backend.service_rate
                assert 0.0 <= backend._sleep_debt <= mean_wall
                writer.close()
                await writer.wait_closed()
            finally:
                await backend.stop()

        asyncio.run(scenario())


class TestImpairedBackend:
    def test_delay_defers_replies(self):
        async def scenario():
            backend = BackendServer(0, time_unit=0.05, seed=1)
            backend.set_impairment(
                NetworkImpairment(delay=1.0),  # one time unit = 50 ms
                np.random.default_rng(0),
            )
            await backend.start()
            try:
                loop = asyncio.get_running_loop()
                before = loop.time()
                reply = await _probe(backend.address)
                assert reply["op"] == "load"
                assert loop.time() - before >= 0.05
            finally:
                await backend.stop()

        asyncio.run(scenario())

    def test_drop_resets_the_connection(self):
        async def scenario():
            backend = BackendServer(0, time_unit=0.002, seed=1)
            backend.set_impairment(
                NetworkImpairment(drop_rate=0.999999),
                np.random.default_rng(0),
            )
            await backend.start()
            try:
                reader, writer = await asyncio.open_connection(
                    *backend.address
                )
                send_message(writer, {"op": "load"})
                await writer.drain()
                # The draw kills the connection: EOF/reset, no reply.
                try:
                    reply = await asyncio.wait_for(
                        read_message(reader), timeout=5
                    )
                except (ConnectionResetError, ValueError):
                    reply = None
                assert reply is None
                writer.close()
            finally:
                await backend.stop()

        asyncio.run(scenario())


class TestOrchestratorLive:
    def test_replays_kill_and_restart_on_the_clock_grid(self):
        async def scenario():
            backend = BackendServer(0, time_unit=0.002, seed=1)
            await backend.start()
            clock = LiveClock(0.002)
            clock.start()
            schedule = FaultSchedule(
                scripted=(
                    FaultEvent(10.0, 0, "crash"),
                    FaultEvent(20.0, 0, "recover"),
                ),
                on_crash="abort",
            )
            events = []

            class _Probe:
                def on_chaos_event(self, time, server_id, action, factor,
                                   applied):
                    events.append((time, server_id, action))

            orchestrator = ChaosOrchestrator(
                [backend], schedule, clock, horizon=30.0, probes=_Probe()
            )
            try:
                await orchestrator.start()
                with pytest.raises(RuntimeError, match="already running"):
                    await orchestrator.start()
                # Wait past the kill (t=10 → 20 ms) and the restart.
                await asyncio.sleep(0.025)
                assert backend.killed
                await asyncio.sleep(0.03)
                assert not backend.killed
                assert orchestrator.done
                assert events == [(10.0, 0, "kill"), (20.0, 0, "restart")]
                assert [e["action"] for e in orchestrator.injected] == [
                    "kill",
                    "restart",
                ]
            finally:
                await orchestrator.stop()
                await backend.stop()

        asyncio.run(scenario())

    def test_stop_detaches_impairment(self):
        async def scenario():
            backend = BackendServer(0, time_unit=0.002, seed=1)
            await backend.start()
            clock = LiveClock(0.002)
            clock.start()
            orchestrator = ChaosOrchestrator(
                [backend],
                FaultSchedule(),
                clock,
                horizon=10.0,
                impairment=NetworkImpairment(delay=0.5),
            )
            try:
                await orchestrator.start()
                assert backend.impairment is not None
                await orchestrator.stop()
                assert backend.impairment is None
            finally:
                await backend.stop()

        asyncio.run(scenario())


class TestBoardEviction:
    def test_dead_entry_ages_out_and_recovers(self):
        async def scenario():
            backends = [
                BackendServer(i, time_unit=0.01, seed=i) for i in range(2)
            ]
            for backend in backends:
                await backend.start()
            clock = LiveClock(0.01)
            clock.start()
            board = BulletinBoard(
                [backend.address for backend in backends],
                2.0,  # 20 ms polls
                clock,
                max_entry_age=1.5,
            )
            await board.start()
            try:
                backends[0].pause()
                # Polls fail for backend 0; after age > 1.5 periods its
                # entry must be evicted to inf.
                for _ in range(200):
                    await asyncio.sleep(0.02)
                    if np.isinf(board.snapshot.loads[0]):
                        break
                assert np.isinf(board.snapshot.loads[0])
                assert board.snapshot.loads[1] == 0.0
                assert board.entries_evicted >= 1
                assert board.poll_failures >= 1
                last_success = board.snapshot.last_success
                assert last_success is not None
                assert last_success[0] < last_success[1]
                backends[0].resume()
                for _ in range(200):
                    await asyncio.sleep(0.02)
                    if np.isfinite(board.snapshot.loads[0]):
                        break
                assert np.isfinite(board.snapshot.loads[0])
                assert board.reconnects >= 1
            finally:
                await board.stop()
                for backend in backends:
                    await backend.stop()

        asyncio.run(scenario())

    def test_max_entry_age_validation_and_describe(self):
        clock = LiveClock(0.01)
        with pytest.raises(ValueError, match="max_entry_age must be positive"):
            BulletinBoard([("h", 1)], 2.0, clock, max_entry_age=0.0)
        plain = BulletinBoard([("h", 1)], 2.0, clock)
        assert "max_entry_age" not in plain.describe()
        evicting = BulletinBoard([("h", 1)], 2.0, clock, max_entry_age=3.0)
        assert evicting.describe()["max_entry_age"] == 3.0


class _ChaosCluster:
    """Backends + board + dispatcher with retry/health knobs for tests."""

    def __init__(self, n=2, time_unit=0.002, period=2.0, **dispatcher_kwargs):
        self.n = n
        self.time_unit = time_unit
        self.period = period
        self.dispatcher_kwargs = dispatcher_kwargs
        self.backends = []
        self.board = None
        self.dispatcher = None
        self.clock = None

    async def __aenter__(self):
        self.backends = [
            BackendServer(
                i, time_unit=self.time_unit, service="deterministic", seed=i
            )
            for i in range(self.n)
        ]
        for backend in self.backends:
            await backend.start()
        addresses = [backend.address for backend in self.backends]
        self.clock = LiveClock(self.time_unit)
        self.clock.start()
        self.board = BulletinBoard(addresses, self.period, self.clock)
        await self.board.start()
        self.dispatcher = LiveDispatcher(
            addresses,
            self.board,
            self.dispatcher_kwargs.pop("policy", _Always(0)),
            self.clock,
            seed=42,
            **self.dispatcher_kwargs,
        )
        await self.dispatcher.start()
        return self

    async def __aexit__(self, *exc):
        await self.dispatcher.stop()
        await self.board.stop()
        for backend in self.backends:
            await backend.stop()
        if exc[0] is None:
            # Every offered request ends in exactly one terminal state.
            stats = self.dispatcher.stats
            assert stats.offered == (
                stats.completed + stats.shed + stats.rejected + stats.failed
            )

    async def request(self, reader, writer, request_id):
        send_message(writer, {"op": "req", "id": request_id, "client": 0})
        await writer.drain()
        return await asyncio.wait_for(read_message(reader), timeout=30)


class TestRetryPath:
    def test_killed_backend_is_discovered_and_rerouted(self):
        async def scenario():
            retry = RetryPolicy(timeout=0.5, backoff_base=0.1)
            async with _ChaosCluster(n=2, retry=retry) as cluster:
                await cluster.backends[0].kill()
                reader, writer = await asyncio.open_connection(
                    *cluster.dispatcher.address
                )
                reply = await cluster.request(reader, writer, 1)
                writer.close()
                await writer.wait_closed()
                assert reply["ok"]
                assert reply["server"] == 1  # rerouted off the corpse
                stats = cluster.dispatcher.stats
                assert stats.retries >= 1
                assert stats.completed == 1

        asyncio.run(scenario())

    def test_dispatch_counts_charge_the_server_that_served(self):
        async def scenario():
            retry = RetryPolicy(timeout=5.0, backoff_base=0.1)
            async with _ChaosCluster(n=2, retry=retry) as cluster:
                await cluster.backends[0].kill()
                reader, writer = await asyncio.open_connection(
                    *cluster.dispatcher.address
                )
                replies = [
                    await cluster.request(reader, writer, request_id)
                    for request_id in range(3)
                ]
                writer.close()
                await writer.wait_closed()
                assert [reply["server"] for reply in replies] == [1, 1, 1]
                stats = cluster.dispatcher.stats
                # The policy picked backend 0 every time; backend 1 served.
                assert stats.dispatch_counts.tolist() == [0, 3]

        asyncio.run(scenario())

    def test_retry_passes_the_breaker_gate(self):
        async def scenario():
            # A generous timeout: only the kill may count as discovery.
            retry = RetryPolicy(timeout=5.0, backoff_base=0.1)
            breakers = BreakerConfig(failure_threshold=1, cooldown=1e6)
            async with _ChaosCluster(
                n=3, retry=retry, breaker_config=breakers
            ) as cluster:
                await cluster.backends[0].kill()
                cluster.dispatcher.breakers.record_failure(
                    1, cluster.clock.now()
                )
                reader, writer = await asyncio.open_connection(
                    *cluster.dispatcher.address
                )
                reply = await cluster.request(reader, writer, 1)
                writer.close()
                await writer.wait_closed()
                # Backends 1 and 2 tie on the board; 1's breaker is open,
                # so the retry reroutes to 2.
                assert reply["ok"]
                assert reply["server"] == 2
                assert cluster.dispatcher.stats.retries == 1

        asyncio.run(scenario())

    def test_retry_with_every_backend_blocked_is_refused(self):
        async def scenario():
            # A generous timeout: only the kill may count as discovery.
            retry = RetryPolicy(timeout=5.0, backoff_base=0.1)
            breakers = BreakerConfig(failure_threshold=1, cooldown=1e6)
            async with _ChaosCluster(
                n=2, retry=retry, breaker_config=breakers
            ) as cluster:
                await cluster.backends[0].kill()
                cluster.dispatcher.breakers.record_failure(
                    1, cluster.clock.now()
                )
                reader, writer = await asyncio.open_connection(
                    *cluster.dispatcher.address
                )
                reply = await cluster.request(reader, writer, 1)
                writer.close()
                await writer.wait_closed()
                assert reply["ok"] is False
                assert reply["error"] == "breaker-open"
                stats = cluster.dispatcher.stats
                assert stats.retries == 1
                assert stats.rejected == stats.breaker_blocked == 1
                assert stats.dispatch_counts.tolist() == [0, 0]

        asyncio.run(scenario())

    def test_retries_exhausted_is_a_failure_not_a_rejection(self):
        async def scenario():
            retry = RetryPolicy(timeout=0.2, backoff_base=0.05, max_attempts=2)
            async with _ChaosCluster(n=1, retry=retry) as cluster:
                await cluster.backends[0].kill()
                reader, writer = await asyncio.open_connection(
                    *cluster.dispatcher.address
                )
                reply = await cluster.request(reader, writer, 1)
                writer.close()
                await writer.wait_closed()
                assert reply["ok"] is False
                assert reply["error"] == "retries-exhausted"
                stats = cluster.dispatcher.stats
                assert stats.failed == 1
                assert stats.rejected == 0
                assert stats.retries == 2

        asyncio.run(scenario())

    def test_slow_but_healthy_backend_is_not_retried(self):
        # Deterministic service of one time unit = 100 ms against a
        # retry timeout of 0.2 units = 20 ms: the reply wait expires
        # several times over, but the liveness probe answers every time,
        # so the dispatcher keeps waiting — the simulator's timeout is a
        # down-discovery cost, never a slow-request penalty.
        async def scenario():
            retry = RetryPolicy(timeout=0.2, backoff_base=0.05)
            async with _ChaosCluster(
                n=1, time_unit=0.1, retry=retry
            ) as cluster:
                reader, writer = await asyncio.open_connection(
                    *cluster.dispatcher.address
                )
                reply = await cluster.request(reader, writer, 1)
                writer.close()
                await writer.wait_closed()
                assert reply["ok"]
                assert cluster.dispatcher.stats.retries == 0

        asyncio.run(scenario())

    def test_restarted_backend_is_rediscovered(self):
        async def scenario():
            retry = RetryPolicy(timeout=0.5, backoff_base=0.1)
            async with _ChaosCluster(n=1, retry=retry) as cluster:
                await cluster.backends[0].kill()
                await cluster.backends[0].restart()
                reader, writer = await asyncio.open_connection(
                    *cluster.dispatcher.address
                )
                # The old link died with the kill; the retry path must
                # redial the pinned port and succeed.
                reply = await cluster.request(reader, writer, 1)
                writer.close()
                await writer.wait_closed()
                assert reply["ok"]
                assert reply["server"] == 0

        asyncio.run(scenario())


class TestHealthChecks:
    def test_drain_and_rejoin(self):
        async def scenario():
            flips = []

            class _Probe:
                def on_dispatch(self, *args):
                    pass

                def on_job_complete(self, *args):
                    pass

                def on_health(self, now, server_id, healthy):
                    flips.append((server_id, healthy))

            health = HealthConfig(
                interval=1.0, timeout=0.5, down_after=2, up_after=1
            )
            async with _ChaosCluster(
                n=2, time_unit=0.01, health=health, probes=_Probe()
            ) as cluster:
                await cluster.backends[0].kill()
                for _ in range(400):
                    await asyncio.sleep(0.01)
                    if 0 in cluster.dispatcher.unhealthy:
                        break
                assert cluster.dispatcher.unhealthy == {0}
                assert (0, False) in flips
                await cluster.backends[0].restart()
                for _ in range(400):
                    await asyncio.sleep(0.01)
                    if 0 not in cluster.dispatcher.unhealthy:
                        break
                assert cluster.dispatcher.unhealthy == set()
                assert (0, True) in flips

        asyncio.run(scenario())


class TestAcceptance:
    """The issue's bar: a faulted live run vs the simulator's prediction."""

    def test_down_up_timeline_matches_sim_within_tolerance(self):
        from repro.live.harness import (
            LiveSpec,
            compare_live_to_sim,
            run_live_experiment,
        )

        spec = LiveSpec(
            policy="basic-li",
            num_servers=3,
            load=0.6,
            period=4.0,
            jobs=400,
            seed=3,
            time_unit=0.005,
            faults="down=0:40:80,mode=abort,timeout=1.0,backoff=0.5",
        )
        live = run_live_experiment(spec)
        assert live.loop_errors == 0
        assert live.jobs_completed == live.jobs_offered == 400
        assert live.retries > 0
        chaos = live.chaos
        assert chaos is not None
        actions = [e["action"] for e in chaos["injected"]]
        assert actions == ["kill", "restart"]
        recoveries = chaos["trace"]["recoveries"]
        assert len(recoveries) == 1
        assert recoveries[0]["server"] == 0
        assert recoveries[0]["latency"] == pytest.approx(40.0, rel=0.25)
        comparison = compare_live_to_sim(live)
        assert comparison["sim"]["jobs"] == 400  # faulted: same span as live
        assert abs(comparison["relative_error"]) < 0.5
        manifest = live.to_manifest()
        assert manifest["chaos"]["board"]["poll_failures"] >= 1
        assert manifest["results"]["retries"] == live.retries

    def test_fault_free_manifest_has_no_chaos_keys(self):
        from repro.live.harness import LiveSpec, run_live_experiment

        spec = LiveSpec(
            policy="round-robin",
            num_servers=2,
            load=0.5,
            period=2.0,
            jobs=30,
            seed=3,
            time_unit=0.002,
        )
        result = run_live_experiment(spec)
        manifest = result.to_manifest()
        assert "chaos" not in manifest
        for key in ("retries", "jobs_failed", "loop_errors"):
            assert key not in manifest["results"]
        for key in LiveSpec.CHAOS_FIELDS:
            assert key not in manifest["spec"]
