"""Unit tests for Resource."""

import pytest

from repro.des import Interrupt, Resource
from repro.des.resource import Request


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


class TestResourceEventMechanics:
    """When a slot changes hands, pinned to the event it happens on."""

    def test_properties(self, env):
        res = Resource(env, capacity=3)
        assert (res.env, res.capacity, res.count) == (env, 3, 0)
        assert res.users == [] and res.queue == []

    def test_request_granted_at_construction_when_slot_free(self, env):
        res = Resource(env, capacity=1)
        req = res.request()
        assert req.triggered
        assert res.users == [req] and res.queue == []
        assert req.usage_since == 0

    def test_request_waits_in_queue_when_full(self, env):
        res = Resource(env, capacity=1)
        first, second = res.request(), res.request()
        assert first.triggered and not second.triggered
        assert res.queue == [second]
        assert second.usage_since is None

    def test_release_frees_slot_at_construction(self, env):
        res = Resource(env, capacity=1)
        first, second = res.request(), res.request()
        release = res.release(first)
        # The slot is free as soon as the release exists, but the waiter is
        # only granted when the release event is processed.
        assert release.triggered
        assert res.count == 0 and not second.triggered
        assert res.queue == [second]
        env.run()
        assert second.triggered and res.users == [second]

    def test_waiter_records_grant_time(self, env):
        res = Resource(env, capacity=1)
        granted = []

        def user(env, hold):
            with res.request() as req:
                yield req
                granted.append(req.usage_since)
                yield env.timeout(hold)

        env.process(user(env, 5))
        env.process(user(env, 2))
        env.run()
        assert granted == [0, 5]

    def test_interrupted_waiter_withdraws_request(self, env):
        res = Resource(env, capacity=1)
        log = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def waiter(env):
            try:
                with res.request() as req:
                    yield req
                    log.append("granted")
            except Interrupt:
                log.append(("interrupted", env.now, len(res.queue)))

        def interrupter(env, victim):
            yield env.timeout(3)
            victim.interrupt()

        env.process(holder(env))
        victim = env.process(waiter(env))
        env.process(interrupter(env, victim))
        env.run()
        assert log == [("interrupted", 3, 0)]
        assert res.count == 0 and res.queue == []

    def test_custom_queue_and_request_type(self, env):
        class Ticket(Request):
            def __init__(self, resource, priority):
                self.priority = priority
                super().__init__(resource)

        class PriorityQueue(list):
            def append(self, ticket):
                super().append(ticket)
                self.sort(key=lambda t: t.priority)

        class PriorityResource(Resource):
            Queue = PriorityQueue
            request_type = Ticket

        res = PriorityResource(env, capacity=1)
        order = []

        def user(env, name, priority):
            with res.request(priority) as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        for name, priority in [("first", 9), ("low", 5), ("high", 1), ("mid", 3)]:
            env.process(user(env, name, priority))
        env.run()
        # "first" takes the free slot; the rest are granted by priority.
        assert order == ["first", "high", "mid", "low"]
