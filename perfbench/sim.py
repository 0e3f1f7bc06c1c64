"""Simulator workload worker: time ``ClusterSimulation.run()`` on one cell.

Started by ``run.py`` as its own process so the parent can time set-up
from process start.  The worker imports the library, runs a small
warm-up cell, builds the timed cell and prints ``READY``; everything
after that line is measurement.  It then runs the cell back to back for
``--seconds`` with the default ``engine="auto"``, computes the event
engine's result for the same cell and seed (outside any timed section)
and checks every timed run's statistics against it.  The last stdout
line is one JSON object for the parent.

With ``--trace 1`` a third of the time runs untraced and the rest under
``cProfile``; the profiles give the per-layer metrics and the ratio of
traced to untraced wall time gives ``trace.overhead``.

With ``--setup-only`` the worker exits right after ``READY``; the parent
uses such runs to take several set-up samples per benchmark run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import kernel_s, speed_factor
from layers import LayerProfile, sim_layer_metrics

#: The cells, at the sizes one timed ``run()`` covers.  ``warmup_jobs``
#: sizes the throwaway run that imports the engine modules lazily loaded
#: by ``run()`` and fills numpy's caches before timing starts.
CELLS = {
    "sim-short-phase": {
        "servers": 10,
        "period": 0.1,
        "jobs": 10_000,
        "warmup_jobs": 2_000,
    },
    "sim-wide": {
        "servers": 1000,
        "period": 2.0,
        "jobs": 150_000,
        "warmup_jobs": 10_000,
    },
    "sim-event-faults": {
        "servers": 10,
        "period": 2.0,
        "jobs": 30_000,
        "warmup_jobs": 3_000,
        "faults": "mttf=200,mttr=10,mode=abort,timeout=0.5,backoff=0.25",
        "queue_capacity": 16,
    },
}

#: Per-server offered load of every simulator cell.
LOAD = 0.9

#: The simulated statistics a timed run must reproduce exactly.  The
#: event, fast and vector engines are bit-identical by contract, so any
#: difference is a defect, not rounding.
CHECKED = (
    "mean_response_time",
    "jobs_measured",
    "jobs_total",
    "dispatch_counts",
    "jobs_failed",
    "jobs_retried",
    "retries_total",
    "jobs_rejected",
    "jobs_shed",
    "jobs_dropped",
    "breaker_trips",
)


def build(cell: dict, seed: int, jobs: int, engine: str = "auto"):
    """A fresh simulation of ``cell``; policies and boards carry state."""
    from repro.cluster.simulation import ClusterSimulation
    from repro.core.li_basic import BasicLIPolicy
    from repro.staleness.periodic import PeriodicUpdate
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.distributions import Exponential

    extra = {}
    if "faults" in cell:
        from repro.faults.parse import parse_fault_spec
        from repro.overload import BreakerConfig, OverloadConfig

        extra["faults"] = parse_fault_spec(cell["faults"])
        extra["overload"] = OverloadConfig(
            queue_capacity=cell["queue_capacity"], breaker=BreakerConfig()
        )
    servers = cell["servers"]
    return ClusterSimulation(
        num_servers=servers,
        arrivals=PoissonArrivals(rate=LOAD * servers),
        service=Exponential(1.0),
        policy=BasicLIPolicy(),
        staleness=PeriodicUpdate(period=cell["period"]),
        total_jobs=jobs,
        seed=seed,
        engine=engine,
        **extra,
    )


def summary(result) -> dict:
    """The checked statistics of one result, as JSON-comparable values."""
    values = {name: getattr(result, name) for name in CHECKED}
    values["dispatch_counts"] = [int(c) for c in values["dispatch_counts"]]
    return values


def run_for(cell, seed, seconds, repro_root=None, minimum=3):
    """Run the cell back to back for ``seconds``.

    With ``repro_root`` each run is profiled and attributed to layers.
    Returns the wall times, each run's machine-speed factor (from the
    calibration kernel timed just before and after it), the checked
    statistics of each result, the errors of runs that raised, and the
    per-layer metrics of each profiled run.
    """
    walls, factors, results, errors, layers = [], [], [], [], []
    spent = 0.0
    while spent < seconds or len(walls) + len(errors) < minimum:
        simulation = build(cell, seed, cell["jobs"])
        gc.collect()
        before = kernel_s()
        started = time.perf_counter()
        try:
            if repro_root is None:
                result = simulation.run()
                wall = time.perf_counter() - started
            else:
                result, profile, wall = LayerProfile.run(
                    simulation.run, repro_root
                )
        except Exception as error:  # a raising run is a counted failure
            errors.append(f"{type(error).__name__}: {error}")
            spent += time.perf_counter() - started
            continue
        factors.append(speed_factor(before, kernel_s()))
        spent += wall
        walls.append(wall)
        results.append(summary(result))
        if repro_root is not None:
            layers.append(sim_layer_metrics(profile, result.jobs_total))
    return walls, factors, results, errors, layers


def normalized(walls, factors):
    """Wall times expressed on the calibration kernel's nominal machine."""
    return [wall * factor for wall, factor in zip(walls, factors)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CELLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro

    repro_root = Path(repro.__file__).resolve().parent
    cell = CELLS[args.workload]
    build(cell, args.seed, cell["warmup_jobs"]).run()
    engine, reason = build(cell, args.seed, cell["jobs"]).engine_decision()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    layers: dict = {}
    if args.trace:
        walls, factors, results, errors, _ = run_for(
            cell, args.seed, args.seconds / 3
        )
        traced, traced_factors, traced_results, traced_errors, profiles = (
            run_for(cell, args.seed, args.seconds * 2 / 3, repro_root, 2)
        )
        results += traced_results
        errors += traced_errors
        layers = {
            name: statistics.median(sample[name] for sample in profiles)
            for name in (profiles[0] if profiles else {})
        }
        if walls and traced:
            layers["trace.overhead"] = statistics.median(
                normalized(traced, traced_factors)
            ) / statistics.median(normalized(walls, factors))
    else:
        walls, factors, results, errors, _ = run_for(
            cell, args.seed, args.seconds
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The reference: the event engine on the same cell and seed, run
    # after the timed section so it neither delays nor perturbs it.
    reference_sim = build(cell, args.seed, cell["jobs"], engine="event")
    reference = summary(reference_sim.run())
    mismatches = []
    for index, result in enumerate(results):
        differing = [k for k in CHECKED if result[k] != reference[k]]
        if differing:
            mismatches.append(
                f"run {index}: "
                + ", ".join(
                    f"{k}={result[k]!r} (event engine: {reference[k]!r})"
                    for k in differing
                )
            )
    print(
        json.dumps(
            {
                "engine": engine,
                "reason": reason,
                "jobs": cell["jobs"],
                "walls": walls,
                "factors": factors,
                "attempted": len(results) + len(errors),
                "failed": len(errors) + len(mismatches),
                "errors": errors + mismatches,
                "peak_rss_mb": peak_rss_mb,
                "reference": reference,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
