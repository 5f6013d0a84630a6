"""A driver for test code that acts on a simulation over simulated time."""

from __future__ import annotations

from typing import Any, Callable, Tuple


def timeline(env: Any, *steps: Tuple[float, Callable[[], Any]]) -> None:
    """Call each ``(delay, action)`` of *steps* in turn: ``action()`` runs
    *delay* simulated seconds after the previous step.

    The first delay counts from a start event at the current time
    (``env.start``), and each step schedules the next one's timeout after
    its action, so the steps interleave with the run as a world-dynamics
    source's steps do.
    """
    pending = list(steps)

    def wait(_event: Any) -> None:
        if pending:
            env.timeout(pending[0][0]).callbacks.append(act)

    def act(_event: Any) -> None:
        pending.pop(0)[1]()
        wait(None)

    env.start(wait)
