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

        def clock(env):
            while True:
                ticks.append(env.now)
                yield env.timeout(1)

        env.process(clock(env))
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

    def test_unhandled_process_failure_crashes_run(self, env):
        def bad(env):
            yield env.timeout(1)
            raise KeyError("unhandled")

        env.process(bad(env))
        with pytest.raises(KeyError):
            env.run()


class TestDeterminism:
    def test_same_time_events_fifo(self, env):
        order = []
        for label in "abc":
            t = env.timeout(1, value=label)
            t.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["a", "b", "c"]

    def test_interleaved_processes_are_deterministic(self):
        def worker(env, name, log, period):
            while env.now < 10:
                log.append((env.now, name))
                yield env.timeout(period)

        def simulate():
            env = Environment()
            log = []
            env.process(worker(env, "w1", log, 2))
            env.process(worker(env, "w2", log, 3))
            env.run(until=10)
            return log

        assert simulate() == simulate()

    def test_event_ordering_monotone_nondecreasing(self, env):
        seen = []

        def proc(env, delay):
            yield env.timeout(delay)
            seen.append(env.now)

        for delay in [5, 1, 3, 3, 0, 2]:
            env.process(proc(env, delay))
        env.run()
        assert seen == sorted(seen)
