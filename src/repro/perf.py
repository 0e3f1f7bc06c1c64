"""The performance-trajectory harness: timed kernels and ``BENCH_*.json``.

This module gives the repository a *memory* of its own speed.  A fixed set
of named kernels — dispatch loops on both engines plus the hot
water-filling micro-kernels — is timed at pinned knobs and written to
``benchmarks/BENCH_<YYYYMMDD>.json``.  Committing one such file per
significant performance change builds a trajectory that ``repro
bench-trend`` can print and that CI's ``bench-smoke`` job checks new
commits against.

Hardware drift is handled with a *calibration kernel*: a fixed
numpy-plus-interpreter workload timed alongside the real kernels.  Trend
comparisons divide each kernel's wall time by its file's calibration time,
so a faster laptop does not masquerade as a code-level speedup (nor a CI
container as a regression).

Schema of one ``BENCH_*.json`` file::

    {
      "schema": 1,
      "date": "YYYY-MM-DD",
      "commit": "<git rev or 'unknown'>",
      "knobs": {"jobs": ..., "repeats": ..., "num_servers": ...,
                 "offered_load": ..., "period": ...},
      "kernels": {
        "<name>": {"median_s": ..., "jobs_per_sec": ..., "jobs": ...},
        ...
      }
    }

``jobs_per_sec`` is ``jobs / median_s`` for dispatch kernels and ``null``
for micro-kernels whose unit of work is not a job.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import time
from dataclasses import dataclass
from datetime import date as _date
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "PerfKernel",
    "bench_schema_version",
    "default_kernels",
    "run_kernels",
    "write_bench_file",
    "load_bench_files",
    "format_trend",
    "compare_benches",
    "measure_cache_effectiveness",
    "Regression",
]

#: Current on-disk schema version of BENCH_*.json files.
SCHEMA_VERSION = 1

#: Name of the hardware-normalization kernel (always included).
CALIBRATION_KERNEL = "calibrate"

#: Default relative slowdown tolerated before a kernel counts as regressed.
DEFAULT_TOLERANCE = 0.15


def bench_schema_version() -> int:
    """The BENCH_*.json schema version this library reads and writes."""
    return SCHEMA_VERSION


@dataclass(frozen=True)
class PerfKernel:
    """One named, timed workload.

    ``make`` builds a zero-argument callable (setup excluded from timing);
    ``jobs`` is the number of simulated arrivals per call for dispatch
    kernels, or ``None`` for micro-kernels with no job-shaped unit of work.
    ``inner`` is the number of back-to-back calls per timed block, divided
    back out of the recorded time: micro-kernels in the tens of
    microseconds are hopelessly noisy timed one call at a time, so they
    are timed in ~10ms blocks instead.  Fixed per kernel (never
    auto-ranged) so every BENCH point measures the same thing.
    """

    name: str
    make: Callable[[], Callable[[], object]]
    jobs: int | None = None
    inner: int = 1


def _pinned_simulation(
    engine: str,
    jobs: int,
    seed: int = 1,
    num_servers: int = 10,
    period: float = 2.0,
):
    """The pinned dispatch cell every BENCH file times.

    Fig. 2's central configuration: 10 servers, offered load 0.9,
    exponential service with mean 1, periodic board with T = 2 phase —
    the workload the paper's headline sweeps are made of.  The
    phase-batch kernels vary ``num_servers`` and ``period`` at the same
    offered load.
    """
    from repro.cluster.simulation import ClusterSimulation
    from repro.core.li_basic import BasicLIPolicy
    from repro.staleness.periodic import PeriodicUpdate
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.distributions import Exponential

    return ClusterSimulation(
        num_servers=num_servers,
        arrivals=PoissonArrivals(rate=0.9 * num_servers),
        service=Exponential(1.0),
        policy=BasicLIPolicy(),
        staleness=PeriodicUpdate(period=period),
        total_jobs=jobs,
        seed=seed,
        engine=engine,
    )


def _pinned_multidispatch(jobs: int, seed: int = 1):
    """The pinned multi-dispatcher cell: the Fig. 2 configuration split
    across four front-ends sharing one periodic board, each running its
    own basic LI instance with the honest local rate lambda/4."""
    from repro.multidispatch import MultiDispatchSimulation
    from repro.core.li_basic import BasicLIPolicy
    from repro.staleness.periodic import PeriodicUpdate
    from repro.workloads.distributions import Exponential

    return MultiDispatchSimulation(
        num_servers=10,
        total_rate=9.0,
        service=Exponential(1.0),
        policy=BasicLIPolicy,
        staleness=lambda: PeriodicUpdate(period=2.0),
        num_dispatchers=4,
        board="shared",
        total_jobs=jobs,
        seed=seed,
    )


def _pinned_overload(jobs: int, seed: int = 1):
    """The pinned overload cell: the dispatch workload pushed to rho=1.1
    with bounded queues (capacity 16) and circuit breakers on — times the
    per-arrival refusal path (try_assign, breaker bookkeeping, drop
    accounting) that the unprotected kernels never enter."""
    from repro.cluster.simulation import ClusterSimulation
    from repro.core.li_basic import BasicLIPolicy
    from repro.overload import BreakerConfig, OverloadConfig
    from repro.staleness.periodic import PeriodicUpdate
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.distributions import Exponential

    return ClusterSimulation(
        num_servers=10,
        arrivals=PoissonArrivals(rate=11.0),
        service=Exponential(1.0),
        policy=BasicLIPolicy(),
        staleness=PeriodicUpdate(period=2.0),
        total_jobs=jobs,
        seed=seed,
        engine="event",
        overload=OverloadConfig(
            queue_capacity=16, breaker=BreakerConfig()
        ),
    )


def _pinned_flashcrowd(jobs: int, seed: int = 1):
    """The pinned non-stationary cell: repeating 3x flash crowds over the
    dispatch workload at base load 0.6, interpreted through a lagging
    EWMA λ estimate — times the thinning-based arrival path plus the
    per-arrival estimator updates the stationary kernels never run."""
    from repro.cluster.simulation import ClusterSimulation
    from repro.core.li_basic import BasicLIPolicy
    from repro.core.rate_estimators import EWMARate
    from repro.nonstationary import FlashCrowdProgram
    from repro.staleness.periodic import PeriodicUpdate
    from repro.workloads.arrivals import TimeVaryingPoissonArrivals
    from repro.workloads.distributions import Exponential

    program = FlashCrowdProgram(
        6.0, surge_factor=3.0, start=40.0, duration=20.0, every=160.0
    )
    return ClusterSimulation(
        num_servers=10,
        arrivals=TimeVaryingPoissonArrivals(program),
        service=Exponential(1.0),
        policy=BasicLIPolicy(),
        staleness=PeriodicUpdate(period=2.0),
        rate_estimator=EWMARate(),
        total_jobs=jobs,
        seed=seed,
        engine="event",
    )


#: The pinned knobs recorded in every BENCH file, alongside ``jobs``.
PINNED_KNOBS = {"num_servers": 10, "offered_load": 0.9, "period": 2.0}

#: The vector kernel's pinned scale point.  Its job count is fixed (it
#: does NOT follow the ``jobs`` knob): at n=10,000 a small smoke-sized
#: job count would time per-call overhead, not sustained throughput, and
#: a floating count would make BENCH points incomparable.
VECTOR_BENCH_SERVERS = 10_000
VECTOR_BENCH_JOBS = 200_000


def _pinned_vector_simulation(seed: int = 1):
    """The pinned scale cell: the Fig. 2 configuration at n=10,000.

    Offered load and period match :data:`PINNED_KNOBS`; only the cluster
    size (and the aggregate arrival rate that keeps load at 0.9) grows.
    """
    from repro.cluster.simulation import ClusterSimulation
    from repro.core.li_basic import BasicLIPolicy
    from repro.staleness.periodic import PeriodicUpdate
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.distributions import Exponential

    return ClusterSimulation(
        num_servers=VECTOR_BENCH_SERVERS,
        arrivals=PoissonArrivals(rate=0.9 * VECTOR_BENCH_SERVERS),
        service=Exponential(1.0),
        policy=BasicLIPolicy(),
        staleness=PeriodicUpdate(period=2.0),
        total_jobs=VECTOR_BENCH_JOBS,
        seed=seed,
        engine="vector",
    )


def _calibration_workload() -> Callable[[], float]:
    """A fixed workload used to normalize timings across machines.

    Mirrors the instruction blend of the simulation engines — a heap
    event loop of closures, a tight scalar float loop, and small numpy
    batches — WITHOUT calling any repro code: its wall time must move
    with the machine (CPU model, turbo state, neighbors on the host),
    never with the repository, or the normalization would cancel real
    regressions.  Everything here is frozen; do not "optimize" it.
    """
    import heapq

    rng = np.random.default_rng(12345)
    event_times = rng.random(3_000).tolist()
    batch = rng.random(2_000)

    def run() -> float:
        # Heap churn with closure payloads: the event engine's skeleton.
        total = 0.0
        heap: list[tuple[float, int]] = []
        for index, t in enumerate(event_times):
            heapq.heappush(heap, (t, index))
        last = 0.0
        while heap:
            t, index = heapq.heappop(heap)
            # The FIFO recurrence + Welford blend of the hot loop.
            start = t if t > last else last
            last = start + event_times[index % 1000] * 0.1
            total += (last - t - total / (index + 1)) / (index + 1)
        # Batched numpy phase, the fast engine's skeleton.
        acc = np.cumsum(np.sort(batch))
        return total + float(acc[-1])

    return run


def default_kernels(jobs: int) -> list[PerfKernel]:
    """The standard kernel line-up for one BENCH run.

    ``jobs`` pins the arrivals per dispatch-kernel call (the CI smoke job
    uses a small value; local trajectory points use the default or
    ``REPRO_BENCH_JOBS``).
    """
    from repro.core.weights import waterfill_probabilities
    from repro.engine.rng import RandomStreams

    def make_dispatch(
        engine: str, num_servers: int = 10, period: float = 2.0
    ) -> Callable[[], Callable[[], object]]:
        def make() -> Callable[[], object]:
            def run() -> float:
                return (
                    _pinned_simulation(
                        engine, jobs, num_servers=num_servers, period=period
                    )
                    .run()
                    .mean_response_time
                )

            return run

        return make

    def make_waterfill(n: int) -> Callable[[], Callable[[], object]]:
        def make() -> Callable[[], object]:
            loads = RandomStreams(7).stream("perf").uniform(0.0, 100.0, n)
            expected = float(n) * 4.0

            def run():
                return waterfill_probabilities(loads, expected)

            return run

        return make

    def make_multidispatch() -> Callable[[], object]:
        def run() -> float:
            return _pinned_multidispatch(jobs).run().mean_response_time

        return run

    def make_overload() -> Callable[[], object]:
        def run() -> float:
            return _pinned_overload(jobs).run().goodput

        return run

    def make_flashcrowd() -> Callable[[], object]:
        def run() -> float:
            return _pinned_flashcrowd(jobs).run().mean_response_time

        return run

    def make_vector() -> Callable[[], object]:
        def run() -> float:
            return _pinned_vector_simulation().run().mean_response_time

        return run

    def make_fluid() -> Callable[[], object]:
        from repro.core.li_basic import BasicLIPolicy
        from repro.engine.fluid import fluid_fixed_point

        def run() -> float:
            return fluid_fixed_point(
                BasicLIPolicy(),
                arrival_rate=PINNED_KNOBS["offered_load"],
                period=PINNED_KNOBS["period"],
                num_servers=PINNED_KNOBS["num_servers"],
            ).mean_response_time

        return run

    return [
        PerfKernel(CALIBRATION_KERNEL, lambda: _calibration_workload(), inner=50),
        PerfKernel("dispatch-event", make_dispatch("event"), jobs=jobs),
        PerfKernel("dispatch-fast", make_dispatch("fast"), jobs=jobs),
        PerfKernel(
            "dispatch-vector-n10k", make_vector, jobs=VECTOR_BENCH_JOBS
        ),
        # The phase-batch kernel on each side of its integrator
        # crossover: short phases (scalar loop) and a wide cluster (numpy).
        PerfKernel(
            "dispatch-batch-n10-T0.1",
            make_dispatch("auto", period=0.1),
            jobs=jobs,
        ),
        PerfKernel(
            "dispatch-batch-n1000",
            make_dispatch("auto", num_servers=1000),
            jobs=jobs,
        ),
        PerfKernel("dispatch-multi4", make_multidispatch, jobs=jobs),
        PerfKernel("overload-bounded", make_overload, jobs=jobs),
        PerfKernel("dispatch-flashcrowd", make_flashcrowd, jobs=jobs),
        PerfKernel("fluid-fixedpoint", make_fluid),
        PerfKernel("waterfill-n10", make_waterfill(10), inner=500),
        PerfKernel("waterfill-n1000", make_waterfill(1000), inner=250),
    ]


def run_kernels(
    jobs: int, repeats: int = 3, kernels: Iterable[PerfKernel] | None = None
) -> dict:
    """Time every kernel and return the BENCH payload (not yet written).

    Each kernel runs once untimed (warm-up: imports, allocator, caches)
    and then ``repeats`` timed calls; the median wall time is recorded.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    results: dict[str, dict] = {}
    for kernel in kernels if kernels is not None else default_kernels(jobs):
        workload = kernel.make()
        workload()  # warm-up, untimed
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(kernel.inner):
                workload()
            times.append((time.perf_counter() - started) / kernel.inner)
        median = float(np.median(times))
        results[kernel.name] = {
            "median_s": median,
            "jobs": kernel.jobs,
            "jobs_per_sec": (
                kernel.jobs / median if kernel.jobs and median > 0 else None
            ),
        }
    return {
        "schema": SCHEMA_VERSION,
        "date": _date.today().isoformat(),
        "commit": _git_commit(),
        "knobs": {"jobs": jobs, "repeats": repeats, **PINNED_KNOBS},
        "kernels": results,
    }


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_bench_file(
    payload: dict, directory: str | Path, date: str | None = None
) -> Path:
    """Write ``payload`` as ``BENCH_<YYYYMMDD>.json`` into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = (date or payload.get("date") or _date.today().isoformat()).replace(
        "-", ""
    )
    path = directory / f"BENCH_{stamp}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench_files(directory: str | Path) -> list[tuple[Path, dict]]:
    """Load every ``BENCH_*.json`` under ``directory``, oldest first.

    Files with an unreadable payload or a newer schema raise ``ValueError``
    naming the offending file.
    """
    directory = Path(directory)
    out: list[tuple[Path, dict]] = []
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ValueError(f"unreadable bench file {path}: {error}") from error
        if payload.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"{path} has schema {payload.get('schema')!r}; this build "
                f"reads schema {SCHEMA_VERSION}"
            )
        out.append((path, payload))
    return out


def format_trend(benches: list[tuple[Path, dict]]) -> str:
    """A fixed-width table of kernel medians across bench files."""
    if not benches:
        return "no BENCH_*.json files found"
    names: list[str] = []
    for _, payload in benches:
        for name in payload["kernels"]:
            if name not in names:
                names.append(name)
    lines = []
    header = f"{'kernel':<18}" + "".join(
        f"{payload['date']:>14}" for _, payload in benches
    )
    lines.append(header)
    lines.append(
        f"{'(commit)':<18}"
        + "".join(f"{payload['commit']:>14}" for _, payload in benches)
    )
    for name in names:
        row = [f"{name:<18}"]
        for _, payload in benches:
            entry = payload["kernels"].get(name)
            row.append(
                f"{entry['median_s'] * 1e3:>12.2f}ms" if entry else f"{'-':>14}"
            )
        lines.append("".join(row))
    jps_rows = []
    for name in names:
        values = [
            payload["kernels"].get(name, {}).get("jobs_per_sec")
            for _, payload in benches
        ]
        if any(v for v in values):
            jps_rows.append(
                f"{name + ' j/s':<18}"
                + "".join(
                    f"{value:>14,.0f}" if value else f"{'-':>14}"
                    for value in values
                )
            )
    if jps_rows:
        lines.append("")
        lines.extend(jps_rows)
    return "\n".join(lines)


@dataclass(frozen=True)
class Regression:
    """One kernel that got slower than the tolerance allows."""

    kernel: str
    baseline_s: float
    current_s: float
    normalized_ratio: float

    def describe(self) -> str:
        """Human-readable one-liner for CLI and CI output."""
        return (
            f"{self.kernel}: {self.baseline_s * 1e3:.2f}ms -> "
            f"{self.current_s * 1e3:.2f}ms "
            f"({(self.normalized_ratio - 1.0) * 100.0:+.1f}% "
            "hardware-normalized)"
        )


def compare_benches(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[Regression]:
    """Kernels slower in ``current`` than ``baseline`` beyond ``tolerance``.

    Wall times are divided by each payload's calibration-kernel time
    before comparison, so only code-level slowdowns (not hardware
    differences) register.  Falls back to raw wall times when either
    payload lacks the calibration kernel.  Kernels present in only one
    payload are skipped — the trajectory is allowed to grow — and so are
    dispatch kernels whose per-call ``jobs`` differ between the payloads:
    wall times at different scales are not comparable (a small smoke run
    would trivially "beat" a large baseline and mask real regressions).
    """
    if not 0.0 <= tolerance:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")

    def calibration(payload: dict) -> float | None:
        entry = payload["kernels"].get(CALIBRATION_KERNEL)
        if entry and entry["median_s"] > 0:
            return entry["median_s"]
        return None

    current_cal = calibration(current)
    baseline_cal = calibration(baseline)
    normalize = current_cal is not None and baseline_cal is not None

    regressions: list[Regression] = []
    for name, entry in current["kernels"].items():
        if name == CALIBRATION_KERNEL:
            continue
        base_entry = baseline["kernels"].get(name)
        if base_entry is None:
            continue
        if entry.get("jobs") != base_entry.get("jobs"):
            continue
        current_s = entry["median_s"]
        baseline_s = base_entry["median_s"]
        if baseline_s <= 0 or not math.isfinite(current_s):
            continue
        if normalize:
            ratio = (current_s / current_cal) / (baseline_s / baseline_cal)
        else:
            ratio = current_s / baseline_s
        if ratio > 1.0 + tolerance:
            regressions.append(
                Regression(
                    kernel=name,
                    baseline_s=baseline_s,
                    current_s=current_s,
                    normalized_ratio=ratio,
                )
            )
    return regressions


#: Pinned knobs of the cache-effectiveness measurement: small enough to
#: ride along with every BENCH point, fixed so points stay comparable.
CACHE_BENCH_JOBS = 300
CACHE_BENCH_SEEDS = 1


def measure_cache_effectiveness(
    jobs: int = CACHE_BENCH_JOBS,
    seeds: int = CACHE_BENCH_SEEDS,
    figure_ids: Iterable[str] | None = None,
    cache_dir: str | Path | None = None,
) -> dict:
    """Cold-vs-warm wall times for regenerating the registry figure suite.

    Runs every figure (or ``figure_ids``) twice through the cache-aware
    runner against the same content-hashed result cache: the *cold* pass
    executes every cell and fills the cache, the *warm* pass re-resolves
    every cell's run ID and serves all of them from disk.  The warm pass
    is what incremental regeneration costs when nothing changed — spec
    resolution, hashing and cache reads — and its speedup over cold is
    the number CI gates on.

    Returns the ``"cache"`` section of the BENCH payload::

        {"jobs": ..., "seeds": ..., "figures": N, "cells": N,
         "cold_s": ..., "warm_s": ..., "speedup": cold_s / warm_s}

    Raises if any warm cell missed the cache — a miss would mean run IDs
    are unstable between identical invocations, which is a correctness
    bug, not a slow path.
    """
    import tempfile

    from repro.ablation.cache import ResultCache
    from repro.experiments.registry import figure_ids as registry_ids
    from repro.experiments.runner import run_figure

    figures = tuple(figure_ids) if figure_ids is not None else registry_ids()

    def sweep(root: str | Path) -> tuple[float, int, int]:
        cache = ResultCache(root)
        cells = 0
        started = time.perf_counter()
        for figure in figures:
            result = run_figure(figure, jobs=jobs, seeds=seeds, cache=cache)
            cells += result.cache_info["cells"]
        return time.perf_counter() - started, cells, cache.misses

    def run(root: str | Path) -> dict:
        cold_s, cells, _ = sweep(root)
        warm_s, _, warm_misses = sweep(root)
        if warm_misses:
            raise RuntimeError(
                f"{warm_misses} cache misses on the warm pass: run IDs are "
                "not stable across identical invocations"
            )
        return {
            "jobs": jobs,
            "seeds": seeds,
            "figures": len(figures),
            "cells": cells,
            "cold_s": round(cold_s, 3),
            "warm_s": round(warm_s, 3),
            "speedup": round(cold_s / warm_s, 2) if warm_s > 0 else math.inf,
        }

    if cache_dir is not None:
        return run(cache_dir)
    with tempfile.TemporaryDirectory(prefix="repro-cache-bench-") as tmp:
        return run(tmp)


def bench_jobs_from_env(default: int = 15_000) -> int:
    """Dispatch-kernel job count, overridable with ``REPRO_BENCH_JOBS``."""
    raw = os.environ.get("REPRO_BENCH_JOBS")
    if raw is None:
        return default
    value = int(raw)
    if value < 1:
        raise ValueError(f"REPRO_BENCH_JOBS must be >= 1, got {value}")
    return value
