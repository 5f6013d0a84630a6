"""Unit tests for Resource."""

from repro.des import Interrupt, Resource
from repro.des.resource import Request


class TestResource:

    def test_count_and_queue(self, env):
        res = Resource(env)
        log = []

        def user(env, res, name, hold):
            with res.request() as req:
                yield req
                log.append((env.now, name, "acquired", len(res.users)))
                yield env.timeout(hold)
            log.append((env.now, name, "released", len(res.users)))

        env.process(user(env, res, "a", 5))
        env.process(user(env, res, "b", 3))
        env.run()
        assert log[0] == (0, "a", "acquired", 1)
        # b must wait for a to release at t=5.
        assert (5, "b", "acquired", 1) in log
        assert log[-1] == (8, "b", "released", 0)

    def test_release_without_context_manager(self, env):
        res = Resource(env)

        def user(env, res, log):
            req = res.request()
            yield req
            log.append(len(res.users))
            yield env.timeout(1)
            yield res.release(req)
            log.append(len(res.users))

        log = []
        env.process(user(env, res, log))
        env.run()
        assert log == [1, 0]

    def test_queue_is_fifo(self, env):
        res = Resource(env)
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
        res = Resource(env)

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env, res, log):
            req = res.request()
            yield env.any_of([req, env.timeout(2)])
            if not req.triggered:
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
        res = Resource(env)
        assert res.env is env
        assert res.users == [] and res.queue == []

    def test_request_granted_at_construction_when_slot_free(self, env):
        res = Resource(env)
        req = res.request()
        assert req.triggered
        assert res.users == [req] and res.queue == []
        assert req.usage_since == 0

    def test_request_waits_in_queue_when_full(self, env):
        res = Resource(env)
        first, second = res.request(), res.request()
        assert first.triggered and not second.triggered
        assert res.queue == [second]
        assert second.usage_since is None

    def test_release_frees_slot_at_construction(self, env):
        res = Resource(env)
        first, second = res.request(), res.request()
        release = res.release(first)
        # The slot is free as soon as the release exists, but the waiter is
        # only granted when the release event is processed.
        assert release.triggered
        assert len(res.users) == 0 and not second.triggered
        assert res.queue == [second]
        env.run()
        assert second.triggered and res.users == [second]

    def test_waiter_records_grant_time(self, env):
        res = Resource(env)
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
        res = Resource(env)
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
        assert len(res.users) == 0 and res.queue == []

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

        res = PriorityResource(env)
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
