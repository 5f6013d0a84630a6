"""Property-based tests of the DES kernel (hypothesis).

The kernel's guarantees, whatever the workload:

* the clock never goes backwards while processing events,
* timeouts fire exactly at their scheduled times, in nondecreasing order,
* a resource never admits more than one user at a time, grants in request
  order and leaves its slot idle only while nobody waits.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Resource


@settings(max_examples=100, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False), min_size=1, max_size=50))
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append((env.now, delay))

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()

    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    # Every timeout fired exactly at its delay (single-shot processes from t=0).
    for time, delay in fired:
        assert time == pytest.approx(delay)


@settings(max_examples=100, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=30),
    until=st.floats(min_value=0.5, max_value=120.0, allow_nan=False),
)
def test_run_until_processes_exactly_the_events_before_the_horizon(delays, until):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(delay)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run(until=until)

    assert sorted(fired) == sorted(d for d in delays if d < until)
    assert env.now == pytest.approx(until)


@settings(max_examples=50, deadline=None)
@given(
    hold_times=st.lists(st.floats(min_value=0.1, max_value=5.0, allow_nan=False), min_size=1, max_size=15),
)
def test_resource_never_oversubscribed(hold_times):
    env = Environment()
    resource = Resource(env)
    max_seen = 0

    def user(env, resource, hold):
        nonlocal max_seen
        with resource.request() as req:
            yield req
            max_seen = max(max_seen, len(resource.users))
            yield env.timeout(hold)

    for hold in hold_times:
        env.process(user(env, resource, hold))
    env.run()

    assert max_seen == 1
    assert resource.users == []
    assert len(resource.queue) == 0



@settings(max_examples=50, deadline=None)
@given(
    users=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        ),
        min_size=1,
        max_size=15,
    ),
)
def test_resource_grants_fifo_and_never_idles_a_slot(users):
    """Requests are granted in the order they were made, and a request only
    waits while the slot is taken."""
    env = Environment()
    resource = Resource(env)
    requested, granted = [], []

    def user(env, index, arrive, hold):
        yield env.timeout(arrive)
        with resource.request() as req:
            requested.append(index)
            if not req.triggered:
                assert len(resource.users) == 1
            yield req
            granted.append(index)
            assert req.usage_since == env.now
            yield env.timeout(hold)

    for index, (arrive, hold) in enumerate(users):
        env.process(user(env, index, arrive, hold))
    env.run()

    assert granted == requested
    assert sorted(granted) == list(range(len(users)))
    assert resource.users == [] and len(resource.queue) == 0

@settings(max_examples=50, deadline=None)
@given(
    seed_delays=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_simulation_is_deterministic_for_identical_programs(seed_delays):
    def simulate():
        env = Environment()
        trace = []

        def proc(env, first, second, label):
            yield env.timeout(first)
            trace.append((env.now, label, "a"))
            yield env.timeout(second)
            trace.append((env.now, label, "b"))

        for i, (first, second) in enumerate(seed_delays):
            env.process(proc(env, first, second, i))
        env.run()
        return trace

    assert simulate() == simulate()
