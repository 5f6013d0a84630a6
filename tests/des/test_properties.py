"""Property-based tests of the DES kernel (hypothesis).

The kernel's guarantees, whatever the workload:

* the clock never goes backwards while processing events,
* timeouts fire exactly at their scheduled times, in nondecreasing order.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment


@settings(max_examples=100, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False), min_size=1, max_size=50))
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    for delay in delays:
        env.timeout(delay).callbacks.append(lambda e, delay=delay: fired.append((env.now, delay)))
    env.run()

    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    # Every timeout fired exactly at its delay (all scheduled at t=0).
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

    for delay in delays:
        env.timeout(delay).callbacks.append(lambda e, delay=delay: fired.append(delay))
    env.run(until=until)

    assert sorted(fired) == sorted(d for d in delays if d < until)
    assert env.now == pytest.approx(until)


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

        def source(first, second, label):
            def a(_event):
                trace.append((env.now, label, "a"))
                env.timeout(second).callbacks.append(b)

            def b(_event):
                trace.append((env.now, label, "b"))

            return lambda _event: env.timeout(first).callbacks.append(a)

        for i, (first, second) in enumerate(seed_delays):
            env.start(source(first, second, i))
        env.run()
        return trace

    assert simulate() == simulate()
