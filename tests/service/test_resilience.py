"""The resilience primitives: breaker, budget, deadlines.

Everything here drives the clock explicitly (the state machines take
``now``), so the transitions pinned are exact, not timing-dependent.
"""

from __future__ import annotations

import pytest

from repro.service.resilience import (
    BreakerConfig,
    CLOSED,
    CircuitBreaker,
    HALF_OPEN,
    OPEN,
    RestartBudget,
    deadline_from_timeout,
    expired,
    remaining_s,
)


class TestDeadlineHelpers:
    def test_deadline_is_absolute(self):
        assert deadline_from_timeout(5.0, now=100.0) == 105.0
        assert deadline_from_timeout(None) is None

    def test_remaining_counts_down_and_goes_negative(self):
        deadline = deadline_from_timeout(2.0, now=10.0)
        assert remaining_s(deadline, now=11.0) == pytest.approx(1.0)
        assert remaining_s(deadline, now=13.0) == pytest.approx(-1.0)
        assert remaining_s(None, now=13.0) is None

    def test_expired(self):
        assert not expired(None, now=1e9)
        assert not expired(100.0, now=99.9)
        assert expired(100.0, now=100.0)
        assert expired(100.0, now=100.1)


class TestBreakerConfig:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(window_s=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown_s=-1.0)


class TestCircuitBreaker:
    def make(self, **kwargs):
        config = BreakerConfig(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            window_s=kwargs.pop("window_s", 10.0),
            cooldown_s=kwargs.pop("cooldown_s", 5.0),
        )
        return CircuitBreaker(config, **kwargs)

    def test_starts_closed_and_allows(self):
        breaker = self.make()
        assert breaker.state(now=0.0) == CLOSED
        assert breaker.allow(now=0.0)

    def test_opens_at_threshold_within_window(self):
        breaker = self.make()
        breaker.record_failure(now=1.0)
        breaker.record_failure(now=2.0)
        assert breaker.state(now=2.0) == CLOSED
        breaker.record_failure(now=3.0)
        assert breaker.state(now=3.0) == OPEN
        assert not breaker.allow(now=3.0)

    def test_stale_failures_age_out_of_the_window(self):
        breaker = self.make()
        breaker.record_failure(now=0.0)
        breaker.record_failure(now=1.0)
        # The window slides past the first two before the third.
        breaker.record_failure(now=20.0)
        assert breaker.state(now=20.0) == CLOSED

    def test_half_open_after_cooldown(self):
        breaker = self.make()
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(now=t)
        assert breaker.state(now=7.9) == OPEN
        assert breaker.state(now=8.0) == HALF_OPEN
        assert breaker.allow(now=8.0)

    def test_half_open_success_closes(self):
        breaker = self.make()
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(now=t)
        breaker.record_success(now=9.0)
        assert breaker.state(now=9.0) == CLOSED

    def test_half_open_failure_reopens_with_fresh_cooldown(self):
        breaker = self.make()
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(now=t)
        assert breaker.state(now=8.0) == HALF_OPEN
        breaker.record_failure(now=8.0)
        assert breaker.state(now=8.1) == OPEN
        # The new cooldown runs from the probe failure, not the
        # original open.
        assert breaker.state(now=12.9) == OPEN
        assert breaker.state(now=13.0) == HALF_OPEN

    def test_success_resets_the_failure_count(self):
        breaker = self.make()
        breaker.record_failure(now=1.0)
        breaker.record_failure(now=2.0)
        breaker.record_success(now=3.0)
        breaker.record_failure(now=4.0)
        breaker.record_failure(now=5.0)
        assert breaker.state(now=5.0) == CLOSED

    def test_transition_callback_sees_every_edge(self):
        edges = []
        breaker = self.make(
            on_transition=lambda old, new: edges.append((old, new))
        )
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(now=t)
        breaker.state(now=8.0)
        breaker.record_success(now=8.0)
        assert edges == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]


class TestRestartBudget:
    def test_grants_up_to_budget_then_refuses(self):
        budget = RestartBudget(budget=2, window_s=60.0)
        assert budget.try_acquire(now=0.0)
        assert budget.try_acquire(now=1.0)
        assert not budget.try_acquire(now=2.0)
        assert budget.available(now=2.0) == 0

    def test_window_slides_slots_free(self):
        budget = RestartBudget(budget=2, window_s=60.0)
        budget.try_acquire(now=0.0)
        budget.try_acquire(now=10.0)
        assert not budget.try_acquire(now=59.0)
        assert budget.try_acquire(now=61.0)

    def test_next_free_is_exact(self):
        budget = RestartBudget(budget=1, window_s=60.0)
        budget.try_acquire(now=5.0)
        assert budget.next_free_s(now=20.0) == pytest.approx(45.0)
        assert budget.next_free_s(now=66.0) == 0.0

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RestartBudget(budget=0)
        with pytest.raises(ValueError):
            RestartBudget(window_s=0.0)
