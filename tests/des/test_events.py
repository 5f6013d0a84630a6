"""Unit tests for the DES event types."""

import pytest


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
