"""Live workload: a ``repro serve`` child measured from its client.

Each phase window starts its own ``python -m repro serve`` process, reads the
dispatcher address it prints, and drives it over one TCP connection with
the framing of :mod:`repro.live.protocol`.  Nothing runs inside the
server on the benchmark's behalf: its CPU time comes from
``/proc/<pid>/stat`` at the phase boundaries, its peak memory from
``/proc/<pid>/status``, and the dispatcher's view of each request from
the ``latency`` and ``server`` fields of the replies.

``steady``
    Open loop, Poisson arrivals at the cell's own rate (n=4, load 0.6,
    T=4, 2 ms per time unit: 1200 requests/s, the ``serve`` process about
    40% busy), in two windows: one before and one after ``saturate``.
    Each request is timed from the instant it was *due*, so a stalled
    generator or server charges the wait to every request behind it.  At
    n=8 (2400 requests/s, about 57% busy) a shared host's slow spells
    pushed the server past saturation in some runs (p50 136 ms against
    5 ms), so the phase keeps the 2 ms regime at half the rate.
``saturate``
    Closed loop, 32 requests outstanding (n=16, T=4, 2 ms per time
    unit: modelled capacity 8000 requests/s).  The ``serve`` process runs
    CPU-bound below that, so completions per second is the serving
    stack's capacity.  At 0.5 ms per time unit the same cell's capacity
    differed by 30% between seeds (4.5k against 5.8k requests/s), too
    wide to gate on.

Capacity is counted in half-second bins and summarised by their fast
quartile (see :func:`fast_quartile`).

Every request must come back ``ok``; the client's counts must match the
``served X/Y`` line ``serve`` prints as it exits.
"""

from __future__ import annotations

import asyncio
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.live.protocol import read_message, send_message

STEADY = {
    "servers": 4,
    "load": 0.6,
    "period": 4.0,
    "time_unit": 0.002,
}
SATURATE = {
    "servers": 16,
    "load": 0.6,
    "period": 4.0,
    "time_unit": 0.002,
    "outstanding": 32,
}

#: Share of ``--seconds`` given to the two steady windows together;
#: saturate gets the rest.
STEADY_SHARE = 0.3

#: Leading share of each phase left out of its statistics (board and
#: queues filling from empty).
WARMUP_SHARE = 0.1

#: Width of the time bins the saturate window is counted in.
BIN_S = 0.5

#: Wall seconds allowed for ``serve`` to start, and to drain and exit.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size of ``pid`` in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServeSession:
    """One ``repro serve`` child and the client connection to it."""

    def __init__(self, root: Path, seed: int, cell: dict) -> None:
        self.root = root
        self.seed = seed
        self.cell = cell
        self.process: asyncio.subprocess.Process | None = None
        self.reader = self.writer = None
        #: Seconds from spawn until the client connection is open.
        self.setup_s = float("nan")
        self.served_line = ""
        #: Wall time spent reading ``/proc`` for this session.
        self.probe_s = 0.0

    async def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        cell = self.cell
        started = time.perf_counter()
        self.process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "serve",
            "--policy", "basic-li",
            "--servers", str(cell["servers"]),
            "--load", str(cell["load"]),
            "--period", str(cell["period"]),
            "--time-unit", str(cell["time_unit"]),
            "--seed", str(self.seed),
            "--port", "0",
            cwd=str(self.root),
            env=env,
            stdout=asyncio.subprocess.PIPE,
        )
        address = await asyncio.wait_for(self._address(), START_TIMEOUT)
        host, port = address.rsplit(":", 1)
        self.reader, self.writer = await asyncio.open_connection(
            host, int(port)
        )
        self.setup_s = time.perf_counter() - started

    async def _address(self) -> str:
        while True:
            line = await self.process.stdout.readline()
            if not line:
                raise RuntimeError("serve exited before printing its address")
            text = line.decode().strip()
            if text.startswith("dispatcher ("):
                return text.rsplit(" ", 1)[1]

    def cpu_seconds(self) -> float:
        return self._timed(cpu_seconds)

    def peak_rss_mb(self) -> float:
        return self._timed(peak_rss_mb)

    def _timed(self, read) -> float:
        """``read(pid)``, adding its cost to :attr:`probe_s`."""
        tick = time.perf_counter()
        value = read(self.process.pid)
        self.probe_s += time.perf_counter() - tick
        return value

    async def stop(self) -> None:
        """Close the connection, stop ``serve`` and read its last line."""
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        process = self.process
        if process is None:
            return
        if process.returncode is None:
            process.send_signal(signal.SIGTERM)
        try:
            output = await asyncio.wait_for(
                process.stdout.read(), STOP_TIMEOUT
            )
            await asyncio.wait_for(process.wait(), STOP_TIMEOUT)
        except asyncio.TimeoutError:
            process.kill()
            await process.wait()
            output = b""
        for line in output.decode().splitlines():
            if line.startswith("served "):
                self.served_line = line

    def served(self) -> tuple[int, int] | None:
        """``(completed, offered)`` from ``serve``'s exit line."""
        if not self.served_line:
            return None
        completed, offered = self.served_line.split()[1].split("/")
        return int(completed), int(offered)


class Replies:
    """Replies read off one connection, keyed by request id."""

    def __init__(self, reader) -> None:
        self.received: dict[int, tuple[float, dict]] = {}
        self.malformed = 0
        self._reader = reader
        #: Called after each reply is recorded; the closed loop sends its
        #: next request from here.
        self.on_reply = None

    async def read_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                message = await read_message(self._reader)
            except ValueError:
                self.malformed += 1
                continue
            if message is None:
                return
            now = loop.time()
            request_id = message.get("id")
            if not isinstance(request_id, int) or request_id in self.received:
                self.malformed += 1
                continue
            self.received[request_id] = (now, message)
            if self.on_reply is not None:
                self.on_reply()

    async def wait_for(self, count: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while len(self.received) < count and time.monotonic() < deadline:
            await asyncio.sleep(0.01)


def _check_counts(name, session, sent, replies, problems) -> int:
    """Failures of one phase: not-ok replies, lost requests, count drift."""
    ok = sum(1 for _, m in replies.received.values() if m.get("ok") is True)
    failed = sent - ok
    if failed:
        problems.append(f"{name}: {failed} of {sent} requests not answered ok")
    if replies.malformed:
        problems.append(f"{name}: {replies.malformed} malformed replies")
    served = session.served()
    if served is None:
        problems.append(f"{name}: serve printed no 'served X/Y' line")
    elif served != (ok, sent):
        problems.append(
            f"{name}: serve reports {served[0]}/{served[1]} served, "
            f"client counted {ok}/{sent}"
        )
    return failed


async def steady_phase(
    root: Path, seed: int, window: int, seconds: float, result
) -> None:
    """One open-loop window; adds its samples to ``result["steady"]``."""
    cell = STEADY
    rate = cell["servers"] * cell["load"] / cell["time_unit"]
    rng = np.random.default_rng([seed, window])
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 100)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds].tolist()

    session = ServeSession(root, seed, cell)
    try:
        await session.start()
        result["setup"].append(session.setup_s)
        replies = Replies(session.reader)
        reader_task = asyncio.create_task(replies.read_loop())
        loop = asyncio.get_running_loop()
        writer = session.writer
        actual = [0.0] * len(offsets)
        send_s = []
        cpu_start = session.cpu_seconds()
        origin = loop.time() + 0.01
        for request_id, offset in enumerate(offsets):
            due = origin + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tick = time.perf_counter()
            send_message(writer, {"op": "req", "id": request_id, "client": 0})
            send_s.append(time.perf_counter() - tick)
            actual[request_id] = loop.time()
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        await writer.drain()
        await replies.wait_for(len(offsets), STOP_TIMEOUT)
        wall = loop.time() - origin
        cpu = session.cpu_seconds() - cpu_start
        result["rss"].append(session.peak_rss_mb())
        reader_task.cancel()
        try:
            await reader_task
        except asyncio.CancelledError:
            pass
    finally:
        await session.stop()
        result["probe_s"] += session.probe_s

    result["phase_s"] += wall
    result["attempted"] += len(offsets)
    result["failed"] += _check_counts(
        f"steady {window}", session, len(offsets), replies, result["problems"]
    )
    steady = result["steady"]
    tu_ms = cell["time_unit"] * 1e3
    for request_id in range(int(len(offsets) * WARMUP_SHARE), len(offsets)):
        got = replies.received.get(request_id)
        if got is None or got[1].get("ok") is not True:
            continue
        received_at, message = got
        latency = (received_at - origin - offsets[request_id]) * 1e3
        steady["latency_ms"].append(latency)
        steady["hop_ms"].append(
            (received_at - actual[request_id]) * 1e3
            - message["latency"] * tu_ms
        )
        steady["rt_units"].append(message["latency"])
        steady["servers"].append(message["server"])
    steady["lag_ms"].extend(
        (sent - origin - offset) * 1e3 for sent, offset in zip(actual, offsets)
    )
    steady["send_s"].extend(send_s)
    steady["cpu_s"] += cpu
    steady["wall_s"] += wall
    steady["completed"] += len(replies.received)


async def saturate_phase(
    root: Path, seed: int, seconds: float, result
) -> None:
    cell = SATURATE
    session = ServeSession(root, seed, cell)
    try:
        await session.start()
        result["setup"].append(session.setup_s)
        replies = Replies(session.reader)
        loop = asyncio.get_running_loop()
        writer = session.writer
        state = {"next": 0, "open": True}

        def send_one() -> None:
            send_message(
                writer, {"op": "req", "id": state["next"], "client": 0}
            )
            state["next"] += 1

        def on_reply() -> None:
            if state["open"]:
                send_one()

        replies.on_reply = on_reply
        reader_task = asyncio.create_task(replies.read_loop())
        started = loop.time()
        for _ in range(cell["outstanding"]):
            send_one()
        await writer.drain()
        await asyncio.sleep(seconds * WARMUP_SHARE)
        window_start = loop.time()
        cpu_start = session.cpu_seconds()
        await asyncio.sleep(seconds * (1 - WARMUP_SHARE))
        window_end = loop.time()
        cpu = session.cpu_seconds() - cpu_start
        state["open"] = False
        await replies.wait_for(state["next"], STOP_TIMEOUT)
        result["rss"].append(session.peak_rss_mb())
        reader_task.cancel()
        try:
            await reader_task
        except asyncio.CancelledError:
            pass
    finally:
        await session.stop()
        result["probe_s"] += session.probe_s

    result["phase_s"] += loop.time() - started
    result["attempted"] += state["next"]
    result["failed"] += _check_counts(
        "saturate", session, state["next"], replies, result["problems"]
    )
    window = window_end - window_start
    bins = [0] * max(int(window / BIN_S), 1)
    done = 0
    for received_at, _ in replies.received.values():
        if window_start <= received_at < window_end:
            done += 1
            index = int((received_at - window_start) / BIN_S)
            if index < len(bins):
                bins[index] += 1
    result["saturate"] = {
        "rps": fast_quartile(bins),
        "bins": len(bins),
        "completions": done,
        "cpu_util": cpu / window,
        "cpu_ms_per_req": cpu * 1e3 / max(done, 1),
    }


def fast_quartile(completions: list[int]) -> float:
    """Capacity in requests/s: the upper quartile of per-bin completions.

    A shared host alternates between a fast and a slow speed every second
    or two, and a slow spell only ever costs completions.  The upper
    quartile of the bins measures the code at the host's fast speed,
    which moves with the code and not with how long the host stayed
    slow; the median bin flips between the two speeds from run to run.
    """
    if len(completions) < 2:
        return completions[0] / BIN_S
    high = statistics.quantiles(completions, n=4, method="inclusive")[2]
    return high / BIN_S


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def run(root: Path, seed: int, seconds: float) -> dict:
    """Run both phases; return the measurements for ``run.py``."""
    result = {
        "setup": [],
        "rss": [],
        "attempted": 0,
        "failed": 0,
        "problems": [],
        "probe_s": 0.0,
        "phase_s": 0.0,
        "steady": {
            "latency_ms": [],
            "hop_ms": [],
            "rt_units": [],
            "servers": [],
            "lag_ms": [],
            "send_s": [],
            "cpu_s": 0.0,
            "wall_s": 0.0,
            "completed": 0,
        },
    }

    async def phases() -> None:
        # Two steady windows around the saturate phase sample the host at
        # two times; each session's start-up is one set-up sample.
        steady_s = seconds * STEADY_SHARE / 2
        await steady_phase(root, seed, 1, steady_s, result)
        await saturate_phase(
            root, seed, seconds * (1 - STEADY_SHARE), result
        )
        await steady_phase(root, seed, 2, steady_s, result)

    asyncio.run(phases())

    from repro.live.harness import LiveSpec, simulator_prediction

    spec = LiveSpec(
        policy="basic-li",
        num_servers=STEADY["servers"],
        load=STEADY["load"],
        period=STEADY["period"],
        seed=seed,
        time_unit=STEADY["time_unit"],
    )
    predicted = simulator_prediction(spec, seeds=(seed, seed + 1, seed + 2))
    steady = result["steady"]
    saturate = result["saturate"]
    latency = steady["latency_ms"]
    mean_rt_units = statistics.fmean(latency) / (STEADY["time_unit"] * 1e3)
    counts = np.bincount(steady["servers"], minlength=STEADY["servers"])
    rate = STEADY["servers"] * STEADY["load"] / STEADY["time_unit"]
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "e2e": {
            "setup_s": (
                statistics.median(result["setup"]), "s", len(result["setup"])
            ),
            "peak_rss_mb": (max(result["rss"]), "MB", len(result["rss"])),
            "fail_frac": (
                result["failed"] / max(result["attempted"], 1),
                "ratio",
                result["attempted"],
            ),
            "live_p50_ms": (percentile(latency, 50), "ms", len(latency)),
            "live_p99_ms": (percentile(latency, 99), "ms", len(latency)),
            "live_sim_ratio": (
                mean_rt_units / predicted["mean_response_time"],
                "ratio",
                len(latency),
            ),
            "live_max_rps": (saturate["rps"], "1/s", saturate["bins"]),
        },
        "layers": {
            # The client times every request in both modes; tracing adds
            # only the /proc reads at phase boundaries.
            "trace.overhead": 1.0 + result["probe_s"] / result["phase_s"],
            "live.p50_ms": percentile(latency, 50),
            "live.p99_ms": percentile(latency, 99),
            "live.sim_ratio": mean_rt_units / predicted["mean_response_time"],
            "live.server.cpu_util": saturate["cpu_util"],
            "live.server.cpu_ms_per_req": saturate["cpu_ms_per_req"],
            "live.server.cpu_util.steady": steady["cpu_s"] / steady["wall_s"],
            "live.server.cpu_ms_per_req.steady": (
                steady["cpu_s"] * 1e3 / max(steady["completed"], 1)
            ),
            "live.hop_ms": statistics.fmean(steady["hop_ms"]),
            "live.dispatcher.rt_units": statistics.fmean(steady["rt_units"]),
            "live.dispatch.max_share": float(counts.max() / counts.sum()),
            "live.loadgen.lag_p99_ms": percentile(steady["lag_ms"], 99),
            "live.client.send_us": statistics.fmean(steady["send_s"]) * 1e6,
        },
        "info": [
            f"steady: {len(latency)} measured of {len(steady['lag_ms'])} "
            f"sent at {rate:.0f}/s in two windows; simulator mean RT "
            f"{predicted['mean_response_time']:.4f} units "
            f"(seeds {predicted['seeds']}, {predicted['jobs']} jobs each)",
            f"saturate: {saturate['completions']} completions in the "
            f"window, {SATURATE['outstanding']} outstanding",
        ],
    }
