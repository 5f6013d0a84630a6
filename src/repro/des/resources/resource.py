"""Resources with a fixed number of usage slots (SimPy ``Resource`` family)."""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.des.resources.base import BaseResource, Get, Put

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment

__all__ = ["Request", "Release", "Resource"]


class Request(Put):
    """Request one usage slot of a :class:`Resource`.

    Usable as a context manager so the slot is released automatically::

        with resource.request() as req:
            yield req
            ...  # use the resource
    """

    #: Time at which the request succeeded (set by the resource).
    usage_since: Optional[float] = None

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        super().__exit__(exc_type, exc_value, traceback)
        if self.triggered:
            self.resource.release(self)

    def cancel(self) -> None:
        if not self.triggered:
            self.resource.put_queue.remove(self)


class Release(Get):
    """Release a usage slot previously acquired with :class:`Request`."""

    def __init__(self, resource: "Resource", request: Request) -> None:
        self.request = request
        super().__init__(resource)


class Resource(BaseResource):
    """A resource with ``capacity`` usage slots.

    Processes :meth:`request` a slot, use it, and :meth:`release` it.  Pending
    requests are granted in FIFO order.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        super().__init__(env, capacity)
        #: Requests currently holding a slot.
        self.users: List[Request] = []
        #: Alias for the put queue (pending requests).
        self.queue = self.put_queue
        self.request = lambda *a, **kw: type(self)._request_cls(self, *a, **kw)  # type: ignore[assignment]
        self.release = lambda *a, **kw: type(self)._release_cls(self, *a, **kw)  # type: ignore[assignment]

    _request_cls = Request
    _release_cls = Release

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def _do_put(self, event: Request) -> Optional[bool]:
        if len(self.users) < self.capacity:
            self.users.append(event)
            event.usage_since = self.env.now
            event.succeed()
            return None
        # Every slot is taken: no later request can be granted either (all
        # requests claim one identical slot), so stop pumping the queue.
        # Keeps each release O(1) instead of O(queue depth) when arrival
        # storms park thousands of requests — grant order is unchanged.
        return False

    def _do_get(self, event: Release) -> None:
        try:
            self.users.remove(event.request)
        except ValueError:
            pass
        event.succeed()
