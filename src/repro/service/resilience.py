"""Fleet resilience primitives: breakers, budgets, deadlines.

The service's failure-handling policy lives here, separated from the
mechanisms that enforce it (:mod:`repro.service.router` wires breakers
and restart budgets around worker processes). Everything in this
module is deliberately clock-injected — callers pass ``now`` — so the
state machines are deterministic under test and replayable under the
chaos harness.

Three pieces:

* :class:`CircuitBreaker` — the classic three-state machine guarding
  one worker. Repeated *infrastructure* failures (timeouts, transport
  corruption, process death) within a sliding window open the breaker;
  an open breaker rejects dispatch so the router fails the shard over
  to its ring neighbours; after a cooldown the breaker goes half-open
  and admits probe traffic, closing again on the first success.
  Application errors (a kernel that cannot be simulated) never trip it
  — the worker is healthy, the query is not.
* :class:`RestartBudget` — a sliding-window allowance of worker
  respawns, replacing the old lifetime cap: a long-running fleet may
  restart a flapping worker indefinitely, just never faster than
  *budget* times per *window*. While the budget is exhausted the
  worker stays down (its shard fails over); once the window slides the
  supervisor tries again, so a transient crash storm is survivable
  without resigning the shard forever.
* :class:`Deadline` helpers — requests carry an *absolute* deadline in
  ``time.monotonic()`` terms (CLOCK_MONOTONIC is system-wide on
  Linux, so router and workers agree on it); every hop checks it and
  cancels work the client can no longer benefit from.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from repro.errors import ReproError


class WorkerUnavailableError(ReproError):
    """No worker can currently serve this shard (down or breaker-open)."""


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


def deadline_from_timeout(
    timeout_s: Optional[float], now: Optional[float] = None
) -> Optional[float]:
    """The absolute monotonic deadline *timeout_s* from *now*."""
    if timeout_s is None:
        return None
    if now is None:
        now = time.monotonic()
    return now + timeout_s


def remaining_s(
    deadline: Optional[float], now: Optional[float] = None
) -> Optional[float]:
    """Seconds left until *deadline* (negative once it has passed)."""
    if deadline is None:
        return None
    if now is None:
        now = time.monotonic()
    return deadline - now


def expired(
    deadline: Optional[float], now: Optional[float] = None
) -> bool:
    """True once *deadline* has passed (never for ``None``)."""
    left = remaining_s(deadline, now)
    return left is not None and left <= 0.0


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

#: Breaker states (string-valued for cheap /healthz and metrics use).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning of one :class:`CircuitBreaker`.

    *failure_threshold* infrastructure failures within *window_s*
    seconds open the breaker; it stays open for *cooldown_s*, then
    admits probes half-open.
    """

    failure_threshold: int = 5
    window_s: float = 10.0
    cooldown_s: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                "failure_threshold must be >= 1, got "
                f"{self.failure_threshold}"
            )
        if self.window_s <= 0 or self.cooldown_s <= 0:
            raise ValueError(
                "window_s and cooldown_s must be > 0, got "
                f"{self.window_s}/{self.cooldown_s}"
            )


class CircuitBreaker:
    """Three-state breaker over one worker's infrastructure health.

    ``closed`` admits everything; *failure_threshold* failures inside
    *window_s* flip it ``open``; after *cooldown_s* the first
    :meth:`allow` transitions it ``half-open`` (probe traffic only in
    the sense that the next failure reopens instantly while the next
    success closes fully). *on_transition* is called with
    ``(old_state, new_state)`` on every edge — the router uses it to
    count breaker opens/closes in ``/metrics``.
    """

    def __init__(
        self,
        config: BreakerConfig = BreakerConfig(),
        on_transition: Optional[Callable[[str, str], None]] = None,
    ):
        self._config = config
        self._on_transition = on_transition
        self._state = CLOSED
        self._failures: Deque[float] = deque()
        self._opened_at = 0.0

    @property
    def config(self) -> BreakerConfig:
        """The breaker's tuning."""
        return self._config

    def state(self, now: Optional[float] = None) -> str:
        """The current state, advancing ``open`` to ``half-open``
        once the cooldown has elapsed."""
        if now is None:
            now = time.monotonic()
        if (
            self._state == OPEN
            and now - self._opened_at >= self._config.cooldown_s
        ):
            self._transition(HALF_OPEN)
        return self._state

    def allow(self, now: Optional[float] = None) -> bool:
        """May a dispatch go to this worker right now?"""
        return self.state(now) != OPEN

    def record_failure(self, now: Optional[float] = None) -> None:
        """Fold in one infrastructure failure (timeout, corruption,
        death). Never call this for application errors."""
        if now is None:
            now = time.monotonic()
        state = self.state(now)
        if state == HALF_OPEN:
            # The probe failed: straight back to open, fresh cooldown.
            self._opened_at = now
            self._failures.clear()
            self._transition(OPEN)
            return
        self._failures.append(now)
        self._prune(now)
        if (
            state == CLOSED
            and len(self._failures) >= self._config.failure_threshold
        ):
            self._opened_at = now
            self._failures.clear()
            self._transition(OPEN)

    def record_success(self, now: Optional[float] = None) -> None:
        """Fold in one successful round trip."""
        if now is None:
            now = time.monotonic()
        state = self.state(now)
        if state == HALF_OPEN:
            self._transition(CLOSED)
        self._failures.clear()

    def _prune(self, now: float) -> None:
        horizon = now - self._config.window_s
        while self._failures and self._failures[0] < horizon:
            self._failures.popleft()

    def _transition(self, new_state: str) -> None:
        old_state, self._state = self._state, new_state
        if old_state != new_state and self._on_transition is not None:
            self._on_transition(old_state, new_state)


# ----------------------------------------------------------------------
# Restart budget
# ----------------------------------------------------------------------


class RestartBudget:
    """A sliding-window allowance of worker restarts.

    Replaces the old lifetime cap: :meth:`try_acquire` grants at most
    *budget* restarts within any *window_s*-second span and tells the
    caller when the next slot frees up, so a supervisor can sleep
    exactly until a retry becomes legal instead of giving a shard up
    for dead.
    """

    def __init__(self, budget: int = 8, window_s: float = 60.0):
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self.budget = budget
        self.window_s = window_s
        self._spent: Deque[float] = deque()

    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        while self._spent and self._spent[0] <= horizon:
            self._spent.popleft()

    def available(self, now: Optional[float] = None) -> int:
        """Restart slots currently free."""
        if now is None:
            now = time.monotonic()
        self._prune(now)
        return self.budget - len(self._spent)

    def try_acquire(self, now: Optional[float] = None) -> bool:
        """Take one restart slot if any is free."""
        if now is None:
            now = time.monotonic()
        if self.available(now) <= 0:
            return False
        self._spent.append(now)
        return True

    def next_free_s(self, now: Optional[float] = None) -> float:
        """Seconds until a slot frees (0 when one is free now)."""
        if now is None:
            now = time.monotonic()
        if self.available(now) > 0:
            return 0.0
        return max(0.0, self._spent[0] + self.window_s - now)
