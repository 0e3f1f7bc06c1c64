"""Tests for the live dispatcher: routing, overload machinery, stats."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.policy import Policy
from repro.core.random_policy import RandomPolicy
from repro.live.backend import BackendServer
from repro.live.board import BulletinBoard
from repro.live.dispatcher import DispatcherStats, LiveDispatcher
from repro.live.protocol import LiveClock, read_message, send_message
from repro.obs.live import LiveTrace
from repro.overload.admission import ProbabilisticShed
from repro.overload.breaker import BreakerConfig


class _Always(Policy):
    """A stub policy that always picks one fixed server."""

    name = "always"

    def __init__(self, choice: int) -> None:
        super().__init__()
        self._choice = choice

    def select(self, view) -> int:
        return self._choice


class _Cluster:
    """Backends + board + dispatcher wired up for one test scenario."""

    def __init__(self, n=2, time_unit=0.002, **dispatcher_kwargs):
        self.n = n
        self.time_unit = time_unit
        self.dispatcher_kwargs = dispatcher_kwargs
        self.backends = []
        self.board = None
        self.dispatcher = None

    async def __aenter__(self):
        queue_capacity = self.dispatcher_kwargs.pop("queue_capacity", None)
        self.backends = [
            BackendServer(
                i,
                time_unit=self.time_unit,
                service="deterministic",
                seed=i,
                queue_capacity=queue_capacity,
            )
            for i in range(self.n)
        ]
        for backend in self.backends:
            await backend.start()
        addresses = [backend.address for backend in self.backends]
        clock = LiveClock(self.time_unit)
        clock.start()
        self.board = BulletinBoard(addresses, 4.0, clock)
        await self.board.start()
        self.dispatcher = LiveDispatcher(
            addresses,
            self.board,
            self.dispatcher_kwargs.pop("policy", RandomPolicy()),
            clock,
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
        send_message(
            writer, {"op": "req", "id": request_id, "client": 0}
        )
        await writer.drain()
        return await asyncio.wait_for(read_message(reader), timeout=10)


class TestStats:
    def test_goodput_and_dropped(self):
        stats = DispatcherStats(dispatch_counts=np.zeros(2, dtype=np.int64))
        assert stats.goodput == 0.0
        stats.offered = 10
        stats.completed = 7
        stats.shed = 2
        stats.rejected = 1
        stats.latencies = [1.0, 2.0]
        assert stats.goodput == pytest.approx(0.7)
        assert stats.dropped == 3
        assert stats.mean_latency == pytest.approx(1.5)
        summary = stats.summary()
        assert summary["completed"] == 7
        assert summary["dispatch_counts"] == [0, 0]


class TestEndToEnd:
    def test_serves_requests_and_records_stats(self):
        async def scenario():
            trace = LiveTrace(2)
            async with _Cluster(n=2, probes=trace) as cluster:
                reader, writer = await asyncio.open_connection(
                    *cluster.dispatcher.address
                )
                replies = []
                for request_id in range(20):
                    replies.append(
                        await cluster.request(reader, writer, request_id)
                    )
                writer.close()
                await writer.wait_closed()
                stats = cluster.dispatcher.stats
                assert all(reply["ok"] for reply in replies)
                assert {reply["server"] for reply in replies} <= {0, 1}
                assert all(reply["latency"] > 0 for reply in replies)
                assert stats.offered == stats.completed == 20
                assert stats.goodput == 1.0
                assert int(stats.dispatch_counts.sum()) == 20
                assert int(trace.dispatch_counts.sum()) == 20
                assert len(trace.latencies) == 20
            return trace

        trace = asyncio.run(scenario())
        trace.finish()
        assert trace.summary()["completed"] == 20

    def test_admission_shed_refuses_before_dispatch(self):
        async def scenario():
            # 90% shed probability; the admission stream is seeded, so
            # the exact outcome is reproducible — over 30 requests at
            # least one shed and one admit are certain for any seed that
            # isn't astronomically unlucky.
            async with _Cluster(
                n=2, admission=ProbabilisticShed(0.9)
            ) as cluster:
                reader, writer = await asyncio.open_connection(
                    *cluster.dispatcher.address
                )
                replies = [
                    await cluster.request(reader, writer, request_id)
                    for request_id in range(30)
                ]
                writer.close()
                await writer.wait_closed()
                shed = [r for r in replies if r.get("error") == "shed"]
                served = [r for r in replies if r["ok"]]
                assert shed and served
                assert all("server" not in r for r in shed)
                stats = cluster.dispatcher.stats
                assert stats.shed == len(shed)
                assert stats.completed == len(served)
                assert stats.shed + stats.completed == 30
                assert stats.goodput == pytest.approx(len(served) / 30)

        asyncio.run(scenario())

    def test_queue_full_counts_as_rejection(self):
        async def scenario():
            async with _Cluster(
                n=1, time_unit=0.05, queue_capacity=1, policy=_Always(0)
            ) as cluster:
                reader, writer = await asyncio.open_connection(
                    *cluster.dispatcher.address
                )
                # Two concurrent requests against a capacity-1 backend
                # with 50 ms deterministic service: one must bounce.
                for request_id in range(2):
                    send_message(
                        writer,
                        {"op": "req", "id": request_id, "client": 0},
                    )
                await writer.drain()
                replies = [
                    await asyncio.wait_for(read_message(reader), timeout=10)
                    for _ in range(2)
                ]
                writer.close()
                await writer.wait_closed()
                outcomes = sorted(reply["ok"] for reply in replies)
                assert outcomes == [False, True]
                failed = next(r for r in replies if not r["ok"])
                assert failed["error"] == "queue-full"
                stats = cluster.dispatcher.stats
                assert stats.completed == 1 and stats.rejected == 1

        asyncio.run(scenario())

    def test_breaker_opens_after_queue_full_failures(self):
        async def scenario():
            async with _Cluster(
                n=1,
                time_unit=0.05,
                queue_capacity=1,
                policy=_Always(0),
                breaker_config=BreakerConfig(
                    failure_threshold=1, cooldown=10_000.0
                ),
            ) as cluster:
                reader, writer = await asyncio.open_connection(
                    *cluster.dispatcher.address
                )
                # First wave: fill the backend and trip the breaker.
                for request_id in range(2):
                    send_message(
                        writer,
                        {"op": "req", "id": request_id, "client": 0},
                    )
                await writer.drain()
                for _ in range(2):
                    await asyncio.wait_for(read_message(reader), timeout=10)
                # Second wave: the (only) backend is breaker-open now.
                reply = await cluster.request(reader, writer, 99)
                writer.close()
                await writer.wait_closed()
                assert reply["ok"] is False
                assert reply["error"] == "breaker-open"
                assert cluster.dispatcher.breakers.trips_total >= 1
                assert cluster.dispatcher.stats.breaker_blocked >= 1

        asyncio.run(scenario())
