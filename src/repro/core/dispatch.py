"""One dispatcher's decision pipeline, with no clock, board or socket.

The simulator, each multi-dispatcher front-end and the live dispatcher
drive a :class:`DispatchCore`.  It never reads the board or the clock,
sleeps or schedules: each driver passes the view, loads and time it has,
and keeps its metrics, probes, storms, transport, ``server.assign`` and
its board-read pattern (the simulator reads a fresh view before a
reroute or retry, the others reuse the view they have).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from repro.core.policy import Policy
    from repro.core.views import LoadView
    from repro.faults.retry import RetryPolicy
    from repro.overload.admission import AdmissionPolicy
    from repro.overload.breaker import BreakerBoard

__all__ = ["BLOCKED", "DispatchCore", "REROUTE", "SHED"]

#: Admission refused the job.
SHED = -1
#: Every server is excluded, breaker-blocked or drained: refuse the job.
BLOCKED = -2
#: The chosen server is gated off; ask :meth:`DispatchCore.reroute`.
REROUTE = -3


def _ignore(server_id: int, now: float) -> None:
    """Outcome sink of a dispatcher without breakers."""


class DispatchCore:
    """The decision object of one dispatcher.

    ``rng`` is the stream backoff jitter draws from (the simulator's
    ``"faults"`` stream, the live dispatcher's retry stream).  ``drained``
    holds the servers a health checker took out of rotation: fresh
    dispatches avoid them, retries only prefer to.  ``accepted`` and
    ``rejected`` take ``(server_id, now)`` and feed the breakers.
    """

    def __init__(
        self,
        num_servers: int,
        policy: Policy,
        admission: AdmissionPolicy | None = None,
        breakers: BreakerBoard | None = None,
        retry: RetryPolicy | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.num_servers = num_servers
        self.policy = policy
        self.admission = admission
        self.breakers = breakers
        self.retry = retry
        self.rng = rng
        self.drained: set[int] = set()
        # Bound to the board itself: an outcome costs no extra call.
        self.accepted = self.rejected = _ignore
        if breakers is not None:
            self.accepted = breakers.record_success
            self.rejected = breakers.record_failure

    def dispatch(self, view: LoadView, now: float) -> int:
        """Admit, select and gate one arrival: the server, :data:`SHED`,
        :data:`BLOCKED` or :data:`REROUTE`.  A breaker past its cooldown
        lets the asking dispatch through as its half-open probe."""
        admission = self.admission
        if admission is not None and not admission.admit(view):
            return SHED
        server_id = self.policy.select(view)
        if not 0 <= server_id < self.num_servers:
            raise RuntimeError(
                f"{type(self.policy).__name__} selected invalid server "
                f"{server_id} (cluster size {self.num_servers})"
            )
        breakers = self.breakers
        if (
            breakers is None or breakers.allow(server_id, now)
        ) and server_id not in self.drained:
            return server_id
        return self._detour(now, frozenset())

    def redispatch(self, loads, now: float, excluded: frozenset[int]) -> int:
        """Pick and gate a retry's target, like :meth:`dispatch`.

        The target is the least-loaded server outside ``excluded`` and
        the drained set, or outside ``excluded`` alone if that is nobody.
        The policy is not asked again: it caches per-version state, and a
        random policy ignores exclusions.
        """
        target = self._lightest(loads, excluded | self.drained)
        if target < 0:
            target = self._lightest(loads, excluded)
        if self.breakers is None or self.breakers.allow(target, now):
            return target
        return self._detour(now, excluded)

    def reroute(
        self, loads, now: float, excluded: frozenset[int] = frozenset()
    ) -> int:
        """Where a :data:`REROUTE` job goes: the least-loaded server not
        excluded, blocked or drained.  Claims its half-open probe."""
        unavailable = {*excluded, *self.drained}
        breakers = self.breakers
        if breakers is not None:
            unavailable.update(
                s for s in range(self.num_servers) if breakers.blocks(s, now)
            )
        target = self._lightest(loads, unavailable)
        if breakers is not None:
            breakers.allow(target, now)
        return target

    def discover(
        self, server_id: int, retries: int, excluded: frozenset, now: float
    ) -> tuple[float, frozenset[int]] | None:
        """A dispatch found ``server_id`` dead after ``retries`` retries.

        Charges its breaker.  ``None`` once the retry budget is spent, else
        the wait before the next attempt (timeout plus backoff) and the
        exclusion set grown by ``server_id``, reset once it is the fleet.
        """
        if self.breakers is not None:
            self.breakers.record_failure(server_id, now)
        retry = self.retry
        if retry.max_attempts and retries >= retry.max_attempts:
            return None
        excluded = excluded | {server_id}
        if len(excluded) >= self.num_servers:
            excluded = frozenset()
        delay = retry.timeout + retry.backoff_delay(retries + 1, self.rng)
        return delay, excluded

    def _detour(self, now: float, excluded: frozenset[int]) -> int:
        """REROUTE while some server is not excluded, drained or blocked
        (read-only: no probe is claimed), else BLOCKED."""
        breakers = self.breakers
        for s in range(self.num_servers):
            if s in excluded or s in self.drained:
                continue
            if breakers is None or not breakers.blocks(s, now):
                return REROUTE
        return BLOCKED

    def _lightest(self, loads, skip) -> int:
        """Least reported load outside ``skip`` (lowest id on ties; all
        ``inf`` picks the first), or ``-1`` when ``skip`` is everyone."""
        best = -1
        best_load = math.inf
        for candidate in range(self.num_servers):
            if candidate in skip:
                continue
            load = loads[candidate]
            if load < best_load:
                best_load = load
                best = candidate
            elif best < 0:
                best = candidate
        return best
