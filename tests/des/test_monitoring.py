"""Unit tests for DES monitoring utilities."""

from repro.des.monitoring import EventLoopStats, trace_events


class TestTraceEvents:
    def test_all_processed_events_traced(self, env):
        log = []
        trace_events(env, lambda t, prio, ev: log.append((t, type(ev).__name__)))

        def first(_event):
            env.timeout(2).callbacks.append(second)

        def second(_event):
            env.timeout(3)

        env.start(first)
        env.run()
        assert log == [(0, "Event"), (2, "Timeout"), (5, "Timeout")]
        times = [t for t, _ in log]
        assert times == sorted(times)

    def test_undo_restores_original_step(self, env):
        log = []
        undo = trace_events(env, lambda t, prio, ev: log.append(t))
        env.timeout(1)
        env.run()
        first_count = len(log)
        undo()
        env.timeout(1)
        env.run()
        assert len(log) == first_count


class TestEventLoopStats:
    def test_fresh_env_is_zeroed(self, env):
        stats = EventLoopStats.from_env(env)
        assert stats.events_processed == 0
        assert stats.batches_processed == 0
        assert stats.max_batch_size == 0
        assert stats.mean_batch_size == 0.0
        assert stats.events_per_second is None

    def test_counts_events_and_batches(self, env):
        for _ in range(5):
            env.timeout(3)  # same (time, priority): one drained batch
        env.timeout(7)
        env.run()
        stats = EventLoopStats.from_env(env)
        assert stats.events_processed == 6
        assert stats.batches_processed == 2
        assert stats.max_batch_size == 5
        assert stats.mean_batch_size == 3.0
        assert stats.peak_queue_size >= 6

    def test_same_timestamp_batch_preserves_order(self, env):
        order = []
        for i in range(4):
            env.timeout(1).callbacks.append(lambda ev, i=i: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3]

    def test_priorities_split_batches(self, env):
        from repro.des.events import NORMAL, URGENT, Event

        order = []
        normal, urgent = Event(env), Event(env)
        normal.callbacks.append(lambda ev: order.append("normal"))
        urgent.callbacks.append(lambda ev: order.append("urgent"))
        env.schedule(normal, priority=NORMAL, delay=1)
        env.schedule(urgent, priority=URGENT, delay=1)
        env.run()
        assert order == ["urgent", "normal"]
        assert env.batches_processed == 2

    def test_events_per_second_needs_wall_time(self, env):
        env.timeout(1)
        env.run()
        assert EventLoopStats.from_env(env).events_per_second is None
        assert EventLoopStats.from_env(env, wall_seconds=0.0).events_per_second is None
        stats = EventLoopStats.from_env(env, wall_seconds=0.5)
        assert stats.events_per_second == 2.0

    def test_as_dict(self, env):
        env.timeout(1)
        env.run()
        payload = EventLoopStats.from_env(env).as_dict()
        assert payload == {
            "events_processed": 1,
            "batches_processed": 1,
            "mean_batch_size": 1.0,
            "max_batch_size": 1,
            "peak_queue_size": 1,
        }
        timed = EventLoopStats.from_env(env, wall_seconds=0.25).as_dict()
        assert timed["events_per_second"] == 4.0
