"""Unit tests for the DES event types."""

import pytest

from repro.des import AnyOf, Environment, Event, Timeout
from repro.des.events import PENDING


class TestEvent:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self, env):
        event = env.event()
        with pytest.raises(AttributeError):
            _ = event.value

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_sets_not_ok(self, env):
        event = env.event()
        exc = ValueError("boom")
        event.fail(exc)
        assert event.triggered
        assert event.value is exc

    def test_callbacks_invoked_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        env.run()
        assert seen == ["payload"]
        assert event.processed

    def test_repr_mentions_state(self, env):
        event = env.event()
        assert "pending" in repr(event)
        event.succeed()
        assert "triggered" in repr(event)


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_fires_at_delay(self, env):
        times = []
        t = env.timeout(5, value="done")
        t.callbacks.append(lambda e: times.append(env.now))
        env.run()
        assert times == [5]
        assert t.value == "done"

    def test_zero_delay_fires_immediately(self, env):
        t = env.timeout(0)
        env.run()
        assert t.processed
        assert env.now == 0

    def test_delay_property(self, env):
        assert env.timeout(3.5).delay == 3.5


class TestConditions:
    def test_any_of_fires_on_first(self, env):
        t1, t2 = env.timeout(1, value="a"), env.timeout(3, value="b")
        done_at = []
        cond = AnyOf(env, [t1, t2])
        cond.callbacks.append(lambda e: done_at.append(env.now))
        env.run()
        assert done_at == [1]

    def test_empty_any_of_succeeds_immediately(self, env):
        cond = env.any_of([])
        env.run()
        assert cond.processed

    def test_condition_events_must_share_environment(self, env):
        other = Environment()
        t1 = env.timeout(1)
        t2 = other.timeout(1)
        with pytest.raises(ValueError):
            AnyOf(env, [t1, t2])

    def test_condition_failure_propagates(self, env):
        def failing(env):
            yield env.timeout(1)
            raise RuntimeError("inner failure")

        def waiter(env, log):
            proc = env.process(failing(env))
            try:
                yield env.any_of([proc, env.timeout(5)])
            except RuntimeError as exc:
                log.append(str(exc))

        log = []
        env.process(waiter(env, log))
        env.run()
        assert log == ["inner failure"]
