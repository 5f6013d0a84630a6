"""A resource with one usage slot: the cloud's one-at-a-time admission turn.

Processes :meth:`Resource.request` the slot, use it, and
:meth:`Resource.release` it:

* a :class:`Request` is granted at construction when a slot is free, and
  otherwise waits in :attr:`Resource.queue`;
* a :class:`Release` frees its slot at construction, and the next waiter is
  granted when the release event is *processed*.
"""

from __future__ import annotations

from typing import Any, List, Optional, TYPE_CHECKING

from repro.des.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment

__all__ = ["Request", "Release", "Resource"]


class Request(Event):
    """Request one usage slot of a :class:`Resource`.

    Usable as a context manager so the slot is released automatically (and
    a still-waiting request withdrawn, e.g. when the process is
    interrupted)::

        with resource.request() as req:
            yield req
            ...  # use the resource
    """

    #: Time at which the request succeeded (set by the resource).
    usage_since: Optional[float] = None

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource.queue.append(self)
        resource._grant()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()
        if self.triggered:
            self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw the request if it has not been granted yet."""
        if not self.triggered:
            self.resource.queue.remove(self)


class Release(Event):
    """Release a usage slot previously acquired with :class:`Request`."""

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        try:
            resource.users.remove(request)
        except ValueError:
            pass
        assert self.callbacks is not None
        self.callbacks.append(resource._grant)
        self.succeed()


class Resource:
    """A resource with one usage slot.

    Pending requests are granted in queue order: FIFO for a plain ``list``;
    subclasses may set :attr:`Queue` to a list type that keeps its own
    order, and :attr:`request_type` to a :class:`Request` subclass carrying
    what that order needs.
    """

    #: List type holding the waiting requests.
    Queue = list
    #: Event class :meth:`request` constructs.
    request_type = Request

    def __init__(self, env: "Environment") -> None:
        self._env = env
        #: The request holding the slot (empty while it is free).
        self.users: List[Request] = []
        #: Requests waiting for a slot.
        self.queue: List[Request] = self.Queue()

    @property
    def env(self) -> "Environment":
        """The environment this resource lives in."""
        return self._env

    def request(self, *args: Any, **kwargs: Any) -> Request:
        """Request a slot (extra arguments go to :attr:`request_type`)."""
        return self.request_type(self, *args, **kwargs)

    def release(self, request: Request) -> Release:
        """Release the slot held by *request*."""
        return Release(self, request)

    def _grant(self, _event: Optional[Event] = None) -> None:
        """Grant the head of the queue if the slot is free."""
        if self.queue and not self.users:
            request = self.queue.pop(0)
            self.users.append(request)
            request.usage_since = self._env.now
            request.succeed()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Resource users={len(self.users)} queued={len(self.queue)}>"
