"""Tests for the sans-IO dispatch core, driven synchronously."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dispatch import BLOCKED, REROUTE, SHED, DispatchCore
from repro.core.policy import Policy
from repro.core.views import LoadView
from repro.faults.retry import RetryPolicy
from repro.overload.admission import AdmissionPolicy
from repro.overload.breaker import BreakerBoard, BreakerConfig, BreakerState


class _Always(Policy):
    """A stub policy that always picks one fixed server."""

    name = "always"

    def __init__(self, choice: int) -> None:
        super().__init__()
        self._choice = choice

    def select(self, view) -> int:
        return self._choice


class _Scripted(AdmissionPolicy):
    """Admits or sheds per a scripted list of verdicts."""

    def __init__(self, verdicts) -> None:
        self._verdicts = list(verdicts)

    def admit(self, view) -> bool:
        return self._verdicts.pop(0)

    def describe(self) -> dict:
        return {"name": "scripted"}


class _Draws:
    """A stand-in backoff stream that records how often it is drawn."""

    def __init__(self, value: float) -> None:
        self.value = value
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.value


def _view(loads, now=10.0):
    return LoadView(
        loads=np.asarray(loads, dtype=np.float64),
        version=1,
        info_time=now - 1.0,
        now=now,
        horizon=4.0,
        elapsed=1.0,
        known_age=True,
        phase_based=True,
    )


def _breakers(n=3, cooldown=1000.0):
    return BreakerBoard(n, BreakerConfig(failure_threshold=1, cooldown=cooldown))


class TestSelectServer:
    def _core(self, policy, breaker_config=None):
        breakers = (
            BreakerBoard(3, breaker_config) if breaker_config is not None else None
        )
        return DispatchCore(3, policy, breakers=breakers)

    def test_without_breakers_returns_policy_choice(self):
        core = self._core(_Always(2))
        assert core.dispatch(_view([3.0, 1.0, 2.0]), 10.0) == 2

    def test_blocked_choice_reroutes_to_least_loaded(self):
        core = self._core(
            _Always(0), BreakerConfig(failure_threshold=1, cooldown=1000.0)
        )
        core.breakers.record_failure(0, 10.0)
        view = _view([0.0, 5.0, 2.0])
        assert core.dispatch(view, 10.0) == REROUTE
        assert core.reroute(view.loads, 10.0) == 2  # least loaded unblocked

    def test_tie_breaks_to_lowest_index(self):
        core = self._core(
            _Always(0), BreakerConfig(failure_threshold=1, cooldown=1000.0)
        )
        core.breakers.record_failure(0, 10.0)
        view = _view([0.0, 2.0, 2.0])
        assert core.dispatch(view, 10.0) == REROUTE
        assert core.reroute(view.loads, 10.0) == 1

    def test_all_blocked_returns_none(self):
        core = self._core(
            _Always(0), BreakerConfig(failure_threshold=1, cooldown=1000.0)
        )
        for server_id in range(3):
            core.breakers.record_failure(server_id, 10.0)
        assert core.dispatch(_view([1.0, 1.0, 1.0]), 10.0) == BLOCKED


class TestDispatchCore:
    def test_scripted_job_lifecycles(self):
        """One core, one script: every decision the drivers delegate."""
        breakers = _breakers(n=4, cooldown=5.0)
        rng = _Draws(0.75)
        core = DispatchCore(
            4,
            _Always(0),
            admission=_Scripted([False, True, True, True, True, True]),
            breakers=breakers,
            retry=RetryPolicy(
                timeout=0.5, backoff_base=0.25, max_attempts=3, jitter=0.5
            ),
            rng=rng,
        )
        view = _view([1.0, 3.0, 3.0, 4.0], now=0.0)

        # Shed: admission refuses before the policy is consulted.
        assert core.dispatch(view, 0.0) == SHED

        # Accepted outcome: server 0 stays closed.
        assert core.dispatch(view, 0.0) == 0
        core.accepted(0, 0.0)
        assert breakers[0].state is BreakerState.CLOSED

        # A rejection opens 0; the next job reroutes, 1 and 2 tie -> 1.
        core.rejected(0, 1.0)
        assert breakers[0].state is BreakerState.OPEN
        assert core.dispatch(view, 1.0) == REROUTE
        assert core.reroute(view.loads, 1.0) == 1

        # Open 1, 2 and 3 too: nothing is left.
        for server_id in (1, 2, 3):
            core.rejected(server_id, 2.0)
        assert core.dispatch(view, 2.0) == BLOCKED

        # 0's cooldown ends at 6.0: the policy's own choice goes through
        # as the half-open probe, fails, and 0 reopens until 11.0.
        assert core.dispatch(view, 6.0) == 0
        assert breakers[0].state is BreakerState.HALF_OPEN
        core.rejected(0, 6.0)
        assert breakers[0].state is BreakerState.OPEN
        # At 7.0 the cooldowns of 1, 2 and 3 have ended: the reroute
        # target (1, least loaded) claims its half-open probe.
        assert breakers[1].state is BreakerState.OPEN
        assert core.dispatch(view, 7.0) == REROUTE
        assert core.reroute(view.loads, 7.0) == 1
        assert breakers[1].state is BreakerState.HALF_OPEN
        # The other candidates were only inspected, never claimed.
        assert breakers[2].state is BreakerState.OPEN

        # Discovery: server 1 is dead.  The breaker is charged, the
        # exclusion set grows and the delay is timeout + jittered backoff.
        delay, excluded = core.discover(1, 0, frozenset(), 7.0)
        assert breakers[1].state is BreakerState.OPEN
        assert excluded == {1}
        assert delay == 0.5 + 0.25 * (1.0 + 0.5 * (2 * 0.75 - 1.0))
        assert rng.draws == 1
        # The exclusion set resets once it covers the fleet.
        delay, excluded = core.discover(3, 2, frozenset({0, 1, 2}), 7.0)
        assert excluded == frozenset()
        assert delay == 0.5 + 1.0 * 1.25
        # Exhaustion at max_attempts: still charged, no backoff drawn.
        failures = breakers[2].consecutive_failures
        assert core.discover(2, 3, frozenset(), 7.0) is None
        assert breakers[2].consecutive_failures == failures + 1
        assert rng.draws == 2

    def test_retry_target_passes_the_breaker_gate(self):
        breakers = _breakers()
        core = DispatchCore(3, _Always(0), breakers=breakers)
        loads = np.array([0.0, 1.0, 1.0])
        assert core.redispatch(loads, 1.0, frozenset({0})) == 1
        breakers.record_failure(1, 1.0)
        assert core.redispatch(loads, 1.0, frozenset({0})) == REROUTE
        assert core.reroute(loads, 1.0, frozenset({0})) == 2
        breakers.record_failure(2, 1.0)
        assert core.redispatch(loads, 1.0, frozenset({0})) == BLOCKED

    def test_drained_servers_are_skipped_with_fallback(self):
        core = DispatchCore(3, _Always(0))
        core.drained.update({0, 1})
        loads = np.array([0.0, 1.0, 2.0])
        # A fresh dispatch to a drained server reroutes around the drain.
        view = _view(loads)
        assert core.dispatch(view, 10.0) == REROUTE
        assert core.reroute(view.loads, 10.0) == 2
        # A retry prefers undrained servers ...
        assert core.redispatch(loads, 10.0, frozenset()) == 2
        # ... but falls back to drained ones rather than none at all.
        assert core.redispatch(loads, 10.0, frozenset({2})) == 0
        # A fresh dispatch refuses once every server is drained.
        core.drained.add(2)
        assert core.dispatch(view, 10.0) == BLOCKED

    def test_inf_loads_pick_the_first_candidate(self):
        core = DispatchCore(3, _Always(0))
        loads = np.array([np.inf, np.inf, np.inf])
        assert core.redispatch(loads, 0.0, frozenset({0})) == 1
        loads = np.array([np.inf, np.inf, 7.0])
        assert core.redispatch(loads, 0.0, frozenset({0})) == 2

    def test_invalid_policy_choice_raises(self):
        core = DispatchCore(3, _Always(3))
        with pytest.raises(RuntimeError, match="selected invalid server 3"):
            core.dispatch(_view([0.0, 0.0, 0.0]), 10.0)

    def test_outcomes_without_breakers_are_ignored(self):
        core = DispatchCore(2, _Always(1))
        core.accepted(1, 0.0)
        core.rejected(1, 0.0)
        assert core.dispatch(_view([0.0, 0.0]), 0.0) == 1
