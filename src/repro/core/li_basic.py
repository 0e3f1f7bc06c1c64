"""Basic Load Interpretation (Eqs. 2–4 of the paper)."""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from repro.core.policy import Policy
from repro.core.weights import LIST_MAX_SERVERS, waterfill_probabilities
from repro.core.views import LoadView

__all__ = ["BasicLIPolicy"]


class BasicLIPolicy(Policy):
    """Equalize expected queue lengths by the end of the information epoch.

    Given reported loads ``q_i``, their interpretation window ``T`` and a
    per-server arrival-rate estimate ``λ``, Basic LI computes the dispatch
    probabilities that make every server's (initial + newly assigned) job
    count equal after ``R = λ·n·T`` expected arrivals — the water-filling
    solution of Eqs. 2–4 — and samples each request from that vector.

    The same equation serves all three staleness models (§4.2):

    * periodic (bulletin board) — one probability vector per phase,
      computed from the phase length; cached on the board version.
    * continuous — recomputed per request, with ``T`` the *mean* delay
      when only that is known (Fig. 6) or the request's *actual* delay
      when available (Fig. 7); the vector is then the current estimate of
      the instantaneous dispatch rates.
    * update-on-access — recomputed per request from the client snapshot's
      actual age.

    Fresh information (``T → 0``) collapses the vector onto the least
    loaded server (maximally aggressive); stale information (``T → ∞``)
    spreads it uniformly (maximally conservative) — the core LI behavior.

    Parameters
    ----------
    timestamp_aware:
        Robustness extension for lossy update channels.  The paper's
        algorithm interprets a periodic board over the nominal phase
        length ``T``; if refresh messages can be *lost*, the board may
        actually be older than ``T`` and the nominal window dangerously
        underestimates the staleness (the same failure mode as
        underestimating λ, §5.6).  With ``timestamp_aware=True`` the
        policy widens the window to ``max(T, actual board age)`` using
        the board's timestamp.  In a lossless system the two settings
        behave identically (the age never exceeds ``T``), so the default
        ``False`` stays paper-faithful.
    """

    name = "basic-li"

    def __init__(self, timestamp_aware: bool = False) -> None:
        super().__init__()
        self.timestamp_aware = bool(timestamp_aware)
        if timestamp_aware:
            self.name = "basic-li(ts)"
        self._cached_version: int | None = None
        self._cached_cumulative: list[float] | np.ndarray | None = None

    def _on_bind(self) -> None:
        # A policy object may be reused across runs; version counters
        # restart per run, so the cache must not leak between them.
        self._cached_version = None
        self._cached_cumulative = None

    def select(self, view: LoadView) -> int:
        window = view.effective_window
        overdue = self.timestamp_aware and view.elapsed > window
        if overdue:
            # The board is older than a phase (lost refreshes): widen the
            # interpretation window to the true age.  The vector now
            # changes with every request, so skip the per-phase cache.
            window = view.elapsed
        elif view.phase_based and view.version == self._cached_version:
            assert self._cached_cumulative is not None
            return self._sample_cumulative(self._cached_cumulative)

        expected_arrivals = (
            self.rate_estimator.per_server_rate() * self.num_servers * window
        )
        cumulative = self._cumulative(
            waterfill_probabilities(view.loads, expected_arrivals)
        )
        if view.phase_based and not overdue:
            self._cached_version = view.version
            self._cached_cumulative = cumulative
        return self._sample_cumulative(cumulative)

    def _cumulative(self, probabilities: np.ndarray) -> list[float] | np.ndarray:
        """The inverse-transform table: a list on small clusters.

        ``accumulate`` adds sequentially, as ``np.cumsum`` does, so both
        tables hold the same floats; ``bisect_right`` on the list and
        ``np.searchsorted(side="right")`` on the array pick the same
        index for the same draw.
        """
        if self.num_servers <= LIST_MAX_SERVERS:
            return list(accumulate(probabilities.tolist()))
        return np.cumsum(probabilities)

    def _sample_cumulative(self, cumulative: list[float] | np.ndarray) -> int:
        u = self._random() * cumulative[-1]
        if type(cumulative) is list:
            return bisect_right(cumulative, u)
        return int(np.searchsorted(cumulative, u, side="right"))

    @staticmethod
    def _lookup(cumulative: list[float] | np.ndarray, uniforms: np.ndarray):
        """Selections for a batch of uniforms: a list or an index array.

        A list table is bisected draw by draw for a batch of at most
        ``LIST_MAX_SERVERS`` draws; past that one ``searchsorted`` call is
        cheaper than the Python loop.
        """
        top = cumulative[-1]
        if type(cumulative) is list and uniforms.size <= LIST_MAX_SERVERS:
            return [bisect_right(cumulative, u * top) for u in uniforms.tolist()]
        return np.searchsorted(cumulative, uniforms * top, side="right")

    def phase_batchable(self, num_servers: int) -> bool:
        return True

    def select_batch(
        self, view: LoadView, arrival_times: np.ndarray
    ) -> np.ndarray:
        """Replay one phase of :meth:`select` calls with batched draws.

        The scalar path draws exactly one uniform per arrival, whatever
        the board's age, so all uniforms are pre-drawn in one batch; the
        inverse-transform lookup then uses the phase's cached cumulative
        vector, except for arrivals whose board is *overdue* under
        ``timestamp_aware`` interpretation (lost refreshes can age a lossy
        board past its nominal window), which recompute the water filling
        with their own widened window exactly as the scalar path does.
        """
        window = view.effective_window
        uniforms = self._random(arrival_times.size)
        per_server = self.rate_estimator.per_server_rate() * self.num_servers
        cumulative = self._cumulative(
            waterfill_probabilities(view.loads, per_server * window)
        )
        overdue = None
        if self.timestamp_aware:
            elapsed = arrival_times - view.info_time
            overdue = elapsed > window
        if overdue is None or not overdue.any():
            if view.phase_based:
                self._cached_version = view.version
                self._cached_cumulative = cumulative
            return self._lookup(cumulative, uniforms)
        selections = np.empty(arrival_times.size, dtype=np.int64)
        fresh = ~overdue
        selections[fresh] = self._lookup(cumulative, uniforms[fresh])
        for i in np.flatnonzero(overdue):
            widened = self._cumulative(
                waterfill_probabilities(view.loads, float(per_server * elapsed[i]))
            )
            selections[i] = self._lookup(widened, uniforms[i:i + 1])[0]
        if view.phase_based and fresh.any():
            self._cached_version = view.version
            self._cached_cumulative = cumulative
        return selections
