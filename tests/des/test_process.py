"""Unit tests for DES processes (generator semantics, return values)."""

import pytest


class TestProcessBasics:
    def test_process_requires_generator(self, env):
        with pytest.raises(ValueError):
            env.process(lambda: None)

    def test_process_return_value(self, env):
        def producer(env):
            yield env.timeout(3)
            return "result"

        proc = env.process(producer(env))
        assert env.run(until=proc) == "result"

    def test_process_triggers_when_done(self, env):
        def worker(env):
            yield env.timeout(5)

        proc = env.process(worker(env))
        assert not proc.triggered
        env.run()
        assert proc.processed

    def test_yielding_a_process_waits_for_it(self, env):
        def child(env):
            yield env.timeout(4)
            return 99

        def parent(env, log):
            value = yield env.process(child(env))
            log.append((env.now, value))

        log = []
        env.process(parent(env, log))
        env.run()
        assert log == [(4, 99)]

    def test_yield_invalid_value_raises(self, env):
        def broken(env):
            yield 42

        env.process(broken(env))
        with pytest.raises(RuntimeError):
            env.run()

    def test_exception_inside_process_propagates_to_waiter(self, env):
        def failing(env):
            yield env.timeout(1)
            raise ValueError("inner")

        def waiter(env, log):
            try:
                yield env.process(failing(env))
            except ValueError as exc:
                log.append(str(exc))

        log = []
        env.process(waiter(env, log))
        env.run()
        assert log == ["inner"]

    def test_yield_already_processed_event_resumes_immediately(self, env):
        def proc(env, log):
            t = env.timeout(0, value="early")
            yield env.timeout(5)
            # t was processed long ago; yielding it must not block.
            value = yield t
            log.append((env.now, value))

        log = []
        env.process(proc(env, log))
        env.run()
        assert log == [(5, "early")]

    def test_process_name(self, env):
        def my_process(env):
            yield env.timeout(1)

        proc = env.process(my_process(env))
        assert proc.name == "my_process"
        assert "my_process" in repr(proc)
