"""Unit tests for Resource."""

import pytest

from repro.des import Resource


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_count_and_queue(self, env):
        res = Resource(env, capacity=1)
        log = []

        def user(env, res, name, hold):
            with res.request() as req:
                yield req
                log.append((env.now, name, "acquired", res.count))
                yield env.timeout(hold)
            log.append((env.now, name, "released", res.count))

        env.process(user(env, res, "a", 5))
        env.process(user(env, res, "b", 3))
        env.run()
        assert log[0] == (0, "a", "acquired", 1)
        # b must wait for a to release at t=5.
        assert (5, "b", "acquired", 1) in log
        assert log[-1] == (8, "b", "released", 0)

    def test_parallel_users_up_to_capacity(self, env):
        res = Resource(env, capacity=2)
        acquired_at = []

        def user(env, res):
            with res.request() as req:
                yield req
                acquired_at.append(env.now)
                yield env.timeout(10)

        for _ in range(3):
            env.process(user(env, res))
        env.run()
        assert acquired_at == [0, 0, 10]

    def test_release_without_context_manager(self, env):
        res = Resource(env, capacity=1)

        def user(env, res, log):
            req = res.request()
            yield req
            log.append(res.count)
            yield env.timeout(1)
            yield res.release(req)
            log.append(res.count)

        log = []
        env.process(user(env, res, log))
        env.run()
        assert log == [1, 0]

    def test_queue_is_fifo(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(env, res, name):
            with res.request() as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        for name in ["first", "second", "third"]:
            env.process(user(env, res, name))
        env.run()
        assert order == ["first", "second", "third"]

    def test_cancelled_request_leaves_queue(self, env):
        res = Resource(env, capacity=1)

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env, res, log):
            req = res.request()
            result = yield req | env.timeout(2)
            if req not in result:
                req.cancel()
                log.append("gave up")

        log = []
        env.process(holder(env, res))
        env.process(impatient(env, res, log))
        env.run()
        assert log == ["gave up"]
        assert len(res.queue) == 0
