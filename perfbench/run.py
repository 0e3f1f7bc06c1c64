#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

Run it from the repository root; it needs ``src/repro`` and nothing
outside the standard library and numpy.  Workloads:

``sim-short-phase``, ``sim-wide``, ``sim-event-faults``
    ``ClusterSimulation.run()`` with ``engine="auto"`` on one cell,
    repeated for ``--seconds`` in a worker process (``sim.py``); every
    timed run is checked against the event engine's result for the same
    cell and seed.
``live-loopback``
    ``python -m repro serve`` children driven over loopback
    (``live.py``): an open-loop ``steady`` phase and a closed-loop
    ``saturate`` phase, each in its own ``serve`` session.

Standard output holds a table of the workload's metrics (name, value,
unit, sample count) and, as its last line, one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The gated metrics every workload reports.  Throughput is
#: sim_jobs_per_cal_s on the simulator workloads and live_max_rps on the
#: live one.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
}

#: Per-layer metrics of the traced run, with units.  A workload reports
#: 0 for a layer it does not execute (the live layers on a simulator
#: workload, the simulator's packages inside the ``serve`` child).
PER_LAYER = {
    "trace.overhead": "ratio",
    "engine.self_s": "s",
    "engine.events": "count",
    "core.self_s": "s",
    "core.waterfill.calls": "count",
    "core.waterfill.us_per_call": "us",
    "core.select.calls": "count",
    "core.select_batch.calls": "count",
    "staleness.self_s": "s",
    "staleness.view.calls": "count",
    "cluster.self_s": "s",
    "cluster.assign.calls": "count",
    "cluster.dispatch_attempts_per_job": "ratio",
    "workloads.self_s": "s",
    "faults.self_s": "s",
    "overload.self_s": "s",
    "live.p50_ms": "ms",
    "live.p99_ms": "ms",
    "live.sim_ratio": "ratio",
    "live.server.cpu_util": "ratio",
    "live.server.cpu_ms_per_req": "ms",
    "live.server.cpu_util.steady": "ratio",
    "live.server.cpu_ms_per_req.steady": "ms",
    "live.hop_ms": "ms",
    "live.dispatcher.rt_units": "units",
    "live.dispatch.max_share": "ratio",
    "live.loadgen.lag_p99_ms": "ms",
    "live.client.send_us": "us",
}

#: Set-up samples per simulator run: the measuring worker plus this many
#: minus one workers that exit as soon as they are set up.
SIM_SETUP_SAMPLES = 5

#: Wall seconds a simulator worker may take to set up, and to finish
#: beyond ``--seconds`` (the event-engine reference and the checks).
READY_TIMEOUT_S = 60.0
SIM_SLACK_S = 90.0


def time_to_ready(command: list[str]):
    """Start ``command``; return ``(seconds until READY, process)``."""
    started = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    watchdog = threading.Timer(READY_TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        line = process.stdout.readline()
    except BaseException:
        process.kill()
        process.wait()
        raise
    finally:
        watchdog.cancel()
    ready = time.perf_counter() - started
    if line.strip() != "READY":
        process.kill()
        process.wait()
        raise RuntimeError(f"sim worker failed before READY: {line!r}")
    return ready, process


def run_sim(args) -> dict:
    command = [
        sys.executable, str(HERE / "sim.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    setup = []
    for _ in range(SIM_SETUP_SAMPLES - 1):
        sample, process = time_to_ready(command + ["--setup-only"])
        process.communicate(timeout=READY_TIMEOUT_S)
        setup.append(sample)
    sample, process = time_to_ready(command)
    setup.append(sample)
    try:
        output, _ = process.communicate(timeout=args.seconds + SIM_SLACK_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"sim worker exited {process.returncode}")
    worker = json.loads(output.strip().splitlines()[-1])
    walls = worker["walls"]
    jobs = worker["jobs"]
    calibrated = [w * f for w, f in zip(walls, worker["factors"])]
    e2e = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB", 1),
        "fail_frac": (
            worker["failed"] / worker["attempted"],
            "ratio",
            worker["attempted"],
        ),
    }
    if walls:
        e2e["sim_jobs_per_s"] = (
            statistics.median(jobs / w for w in walls), "1/s", len(walls)
        )
        e2e["sim_jobs_per_cal_s"] = (
            statistics.median(jobs / w for w in calibrated),
            "1/cal_s",
            len(walls),
        )
    reference = worker["reference"]
    return {
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "problems": worker["errors"],
        "e2e": e2e,
        "gated": {
            "setup_s": "setup_s",
            "peak_rss_mb": "peak_rss_mb",
            "throughput_per_s": "sim_jobs_per_cal_s",
        },
        "layers": worker["layers"],
        "info": [
            f"engine_used: {worker['engine']} ({worker['reason']})",
            f"cell: {jobs} jobs per run(); event-engine reference mean RT "
            f"{reference['mean_response_time']!r}, failed "
            f"{reference['jobs_failed']}, retried {reference['jobs_retried']}"
            f", rejected {reference['jobs_rejected']}, dropped "
            f"{reference['jobs_dropped']}, breaker trips "
            f"{reference['breaker_trips']}",
        ],
    }


def run_live(args) -> dict:
    sys.path.insert(0, str(SRC))
    import live

    measured = live.run(ROOT, args.seed, args.seconds)
    measured["gated"] = {
        "setup_s": "setup_s",
        "peak_rss_mb": "peak_rss_mb",
        "throughput_per_s": "live_max_rps",
    }
    return measured


def print_table(name: str, measured: dict, trace: bool) -> None:
    print(f"workload {name}")
    for line in measured["info"]:
        print(f"  {line}")
    print(
        "  gated as: "
        + ", ".join(f"{k} <- {v}" for k, v in measured["gated"].items())
    )
    if trace:
        for metric in PER_LAYER:
            value = measured["layers"].get(metric, 0.0)
            print(f"  {metric:<36} {value:>16.6g}")
    else:
        print(f"  {'metric':<20} {'value':>14} {'unit':<6} {'n':>8}")
        for metric, (value, unit, count) in measured["e2e"].items():
            print(f"  {metric:<20} {value:>14.6g} {unit:<6} {count:>8}")
    for problem in measured["problems"]:
        print(f"  FAILED CHECK: {problem}")


def load_workloads() -> dict[str, str]:
    """Workload name -> why it was chosen, from ``BENCHMARK.json``.

    Each reason ends with the seed held out from tuning: a later claim
    of a gain must also hold on it.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["why"] for entry in spec["workloads"]}


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--list",
        action="store_true",
        help="print each workload's rationale and held-out seed",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name, why in workloads.items():
            print(f"{name}\n  {why}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: {SRC / 'repro'} not found; run from a checkout of "
            "the repository",
            file=sys.stderr,
        )
        return 2

    if args.workload == "live-loopback":
        measured = run_live(args)
    else:
        measured = run_sim(args)
    print_table(args.workload, measured, bool(args.trace))

    if args.trace:
        metrics = {
            name: {"value": float(measured["layers"].get(name, 0.0)),
                   "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            source = measured["e2e"].get(measured["gated"][name])
            value = source[0] if source is not None else math.nan
            metrics[name] = {"value": float(value), "unit": unit}
    correct = measured["failed"] == 0 and not measured["problems"]
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    print(
        json.dumps(
            {
                "correct": correct and finite,
                "attempted": int(measured["attempted"]),
                "failed": int(measured["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct and finite else 1


if __name__ == "__main__":
    sys.exit(main())
