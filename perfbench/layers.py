"""Attribute a cProfile run to the ``repro.<package>`` layers.

Self time of a function defined under ``src/repro/<package>/`` is billed
to that package.  Time spent in code that is not the repository's own
(numpy, the standard library, builtins) is billed to the repository
function that called it, following the profile's caller edges upward, so
``np.searchsorted`` called from the fast path counts as engine time.

Call counts are taken at the named public entry points the benchmark's
per-layer table watches.  Counts repeat exactly for a fixed cell and
seed; times carry the profiler's per-call cost, so compare them with
each other, not with untraced wall times.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from collections import defaultdict
from pathlib import Path

#: Packages a simulator workload executes, in the order reported.
SIM_LAYERS = (
    "engine",
    "core",
    "staleness",
    "cluster",
    "workloads",
    "faults",
    "overload",
)

#: Bucket for time with no repository caller (the benchmark's own loop).
UNOWNED = "unowned"

#: Recursion limit when billing foreign time up through foreign callers.
_MAX_DEPTH = 64


class LayerProfile:
    """One profiled call, resolved to per-package self time and counts."""

    def __init__(self, stats: dict, repro_root: Path) -> None:
        self._stats = stats
        self._root = str(repro_root.resolve()) + "/"
        self._owner_cache: dict = {}
        self.self_s = self._attribute()

    @classmethod
    def run(cls, function, repro_root: Path):
        """Profile ``function()``; return ``(result, profile, wall_s)``."""
        profiler = cProfile.Profile()
        started = time.perf_counter()
        result = profiler.runcall(function)
        wall = time.perf_counter() - started
        return result, cls(pstats.Stats(profiler).stats, repro_root), wall

    def owner(self, func: tuple) -> str | None:
        """The repro package defining ``func``, or ``None`` if foreign.

        Modules directly under ``repro/`` (``cli.py``, ``perf.py``) are
        owned by the top-level package ``"repro"``.
        """
        cached = self._owner_cache.get(func, False)
        if cached is not False:
            return cached
        filename = func[0]
        owner = None
        if filename.startswith(self._root):
            parts = filename[len(self._root):].split("/")
            owner = parts[0] if len(parts) > 1 else "repro"
        self._owner_cache[func] = owner
        return owner

    def _attribute(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for func, (_cc, _nc, self_time, _ct, callers) in self._stats.items():
            owner = self.owner(func)
            if owner is not None:
                totals[owner] += self_time
                continue
            # The edge's own self time says exactly how much of this
            # function's time each caller caused.
            for caller, edge in callers.items():
                self._bill_up(caller, edge[2], totals, {func}, 0)
            unbilled = self_time - sum(edge[2] for edge in callers.values())
            if not callers:
                totals[UNOWNED] += self_time
            elif unbilled > 0:
                totals[UNOWNED] += unbilled
        return dict(totals)

    def _bill_up(self, func, amount, totals, path, depth) -> None:
        owner = self.owner(func)
        if owner is not None:
            totals[owner] += amount
            return
        callers = self._stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        live = {c: e for c, e in callers.items() if c not in path}
        if not live or depth >= _MAX_DEPTH:
            totals[UNOWNED] += amount
            return
        # Above the first hop only cumulative edge times are known; split
        # the amount in proportion to them.
        weights = {c: max(e[3], 0.0) for c, e in live.items()}
        total = sum(weights.values())
        for caller, weight in weights.items():
            share = weight / total if total > 0 else 1.0 / len(weights)
            self._bill_up(
                caller, amount * share, totals, path | {func}, depth + 1
            )

    def calls(self, package: str, name: str, module: str | None = None) -> int:
        """Calls of every function ``name`` defined in ``package``.

        ``module`` narrows the match to one file (``"server.py"``).
        """
        total = 0
        for func, (_cc, nc, _tt, _ct, _callers) in self._stats.items():
            if func[2] != name or self.owner(func) != package:
                continue
            if module is not None and not func[0].endswith("/" + module):
                continue
            total += nc
        return total

    def cumulative_s(self, package: str, name: str) -> float:
        """Cumulative time of every function ``name`` in ``package``."""
        return sum(
            ct
            for func, (_cc, _nc, _tt, ct, _callers) in self._stats.items()
            if func[2] == name and self.owner(func) == package
        )


def sim_layer_metrics(profile: LayerProfile, jobs_total: int) -> dict:
    """The simulator's per-layer metrics from one profiled ``run()``."""
    metrics = {
        f"{layer}.self_s": profile.self_s.get(layer, 0.0)
        for layer in SIM_LAYERS
    }
    waterfill_calls = profile.calls("core", "waterfill_probabilities")
    waterfill_s = profile.cumulative_s("core", "waterfill_probabilities")
    # The event engine's per-attempt closure: first dispatches, retries
    # after a discovered crash, and breaker re-routes all pass through it.
    attempts = profile.calls("cluster", "attempt_dispatch", "simulation.py")
    metrics.update(
        {
            "core.waterfill.calls": waterfill_calls,
            "core.waterfill.us_per_call": (
                waterfill_s / waterfill_calls * 1e6 if waterfill_calls else 0.0
            ),
            "core.select.calls": profile.calls("core", "select"),
            "core.select_batch.calls": profile.calls("core", "select_batch"),
            "engine.events": profile.calls("engine", "pop", "events.py"),
            "cluster.assign.calls": profile.calls(
                "cluster", "assign", "server.py"
            ),
            "cluster.dispatch_attempts_per_job": (
                attempts / jobs_total if jobs_total else 0.0
            ),
            "staleness.view.calls": profile.calls("staleness", "view"),
        }
    )
    return metrics
