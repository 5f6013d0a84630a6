"""Unit tests for the DES environment / event loop."""

import pytest

from repro.des import Environment
from repro.des.environment import EmptySchedule


class TestClock:
    def test_initial_time(self):
        assert Environment().now == 0
        assert Environment(initial_time=10).now == 10

    def test_step_advances_clock(self, env):
        env.timeout(4)
        env.step()
        assert env.now == 4

    def test_step_empty_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()


class TestRun:
    def test_run_until_time(self, env):
        ticks = []

        def clock(_event):
            ticks.append(env.now)
            env.timeout(1).callbacks.append(clock)

        env.start(clock)
        env.run(until=5)
        assert ticks == [0, 1, 2, 3, 4]
        assert env.now == 5

    def test_run_until_time_in_past_raises(self, env):
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=3)

    def test_run_until_event_returns_value(self, env):
        t = env.timeout(2, value="finished")
        assert env.run(until=t) == "finished"
        assert env.now == 2

    def test_run_until_already_processed_event(self, env):
        t = env.timeout(1, value="v")
        env.run()
        assert env.run(until=t) == "v"

    def test_run_to_exhaustion(self, env):
        env.timeout(1)
        env.timeout(10)
        env.run()
        assert env.now == 10

    def test_run_until_unreachable_event_raises(self, env):
        pending = env.event()
        env.timeout(1)
        with pytest.raises(RuntimeError):
            env.run(until=pending)

    def test_callback_exception_stops_run(self, env):
        def bad(_event):
            raise KeyError("unhandled")

        env.timeout(1).callbacks.append(bad)
        with pytest.raises(KeyError):
            env.run()
        assert env.now == 1


class TestStart:
    def test_start_runs_before_normal_events_of_the_instant(self, env):
        order = []
        env.timeout(0).callbacks.append(lambda e: order.append("timeout"))
        started = env.start(lambda e: order.append(("start", env.now)))
        env.run()
        assert order == [("start", 0), "timeout"]
        assert started.processed

    def test_start_at_current_time(self, env):
        seen = []
        env.timeout(3).callbacks.append(lambda e: env.start(lambda e: seen.append(env.now)))
        env.run()
        assert seen == [3]


    def test_start_returns_the_scheduled_event(self, env):
        started = env.start(lambda e: None)
        assert started.triggered and not started.processed
        assert started.value is None
        env.run()
        assert started.processed

    def test_self_rescheduling_source_steps_every_period(self, env):
        times = []

        def step(_event):
            times.append(env.now)
            env.timeout(2.5).callbacks.append(step)

        env.start(step)
        env.run(until=10)
        assert times == [0, 2.5, 5.0, 7.5]


class TestDeterminism:
    def test_same_time_events_fifo(self, env):
        order = []
        for label in "abc":
            t = env.timeout(1, value=label)
            t.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["a", "b", "c"]

    def test_interleaved_sources_are_deterministic(self):
        def worker(env, name, log, period):
            def step(_event):
                if env.now < 10:
                    log.append((env.now, name))
                    env.timeout(period).callbacks.append(step)

            return step

        def simulate():
            env = Environment()
            log = []
            env.start(worker(env, "w1", log, 2))
            env.start(worker(env, "w2", log, 3))
            env.run(until=10)
            return log

        assert simulate() == simulate()

    def test_event_ordering_monotone_nondecreasing(self, env):
        seen = []

        for delay in [5, 1, 3, 3, 0, 2]:
            env.timeout(delay).callbacks.append(lambda e: seen.append(env.now))
        env.run()
        assert seen == sorted(seen)
