"""Shared resources with bounded capacity (semaphores with queueing).

:class:`Resource` models anything a process must hold exclusively for a
while — a CPU, a disk arm, a link transmit slot.  Requests queue in FIFO
order; :class:`PriorityResource` lets urgent requests jump the queue.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import TYPE_CHECKING

from repro.sim.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["Request", "Resource", "PriorityRequest", "PriorityResource"]


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager: leaving the ``with`` block releases the
    resource (or cancels the request if it never succeeded).
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cancel() if not self.triggered else self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an unfulfilled request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """A capacity-``capacity`` semaphore with FIFO queueing.

    Processes claim a unit with ``yield resource.request()`` and return it
    with ``resource.release(req)`` (or use the request as a context
    manager).
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()
        # Recycled request objects: a claim is the kernel's most
        # allocated pattern, and a finished request is indistinguishable
        # from a fresh one once its trigger state is reset.  Requests
        # return to the pool when they are released after their grant
        # was processed (the claim is provably over).
        self._req_pool: list[Request] = []

    @property
    def capacity(self) -> int:
        """Total number of concurrent holders allowed."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of units currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Create (and possibly immediately grant) a claim on the resource."""
        pool = self._req_pool
        if pool:
            req = pool.pop()
            req.callbacks = []
            req._defused = False
            # Inlined _do_request + succeed: a recycled request is known
            # untriggered (_ok stayed True), so the grant is a bare
            # now-lane append.
            if len(self.users) < self._capacity:
                self.users.append(req)
                req._value = None
                self.env._normal.append(req)
            else:
                req._value = PENDING
                self.queue.append(req)
            return req
        return Request(self)

    def release(self, request: Request) -> None:
        """Give back a previously granted claim.

        The hand-back schedules no event of its own: nothing ever waits
        on it, and the next waiter's grant lands on the now-lane exactly
        where it would behind one.
        """
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(f"{request!r} was not holding {self!r}") from None
        if self.queue:
            self._grant_next()
        if request.callbacks is None and type(request) is Request:
            # The grant was processed and the claim is over: nothing can
            # reach this event again, so it is safe to recycle.  Exotic
            # paths (release of a triggered-but-unprocessed grant,
            # priority subclasses) simply skip the pool.
            self._req_pool.append(request)

    # -- internals --------------------------------------------------------

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _grant_next(self) -> None:
        # One wake pass per release: grant every waiter a free unit can
        # serve before control returns to the event loop.  Queued waiters
        # are untriggered by invariant, so the grant inlines succeed().
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt._value = None
            self.env._normal.append(nxt)

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} count={self.count}/{self._capacity} "
            f"queued={len(self.queue)}>"
        )


class PriorityRequest(Request):
    """Request carrying a priority; lower values are granted first."""

    __slots__ = ("priority", "time")

    def __init__(self, resource: "PriorityResource", priority: int = 0) -> None:
        self.priority = priority
        self.time = resource.env.now
        super().__init__(resource)


class PriorityResource(Resource):
    """A :class:`Resource` whose wait queue is ordered by request priority."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._heap: list[tuple[int, float, int, PriorityRequest]] = []
        self._tie = count()

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        """Claim the resource with the given priority (lower = sooner)."""
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        assert isinstance(request, PriorityRequest)
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            heapq.heappush(
                self._heap, (request.priority, request.time, next(self._tie), request)
            )
            self.queue.append(request)  # kept for introspection only

    def _grant_next(self) -> None:
        while self._heap and len(self.users) < self._capacity:
            _, _, _, nxt = heapq.heappop(self._heap)
            if nxt not in self.queue:
                continue  # cancelled
            self.queue.remove(nxt)
            self.users.append(nxt)
            nxt.succeed()

    def _cancel(self, request: Request) -> None:
        # Lazy deletion: remove from the visible queue; the heap entry is
        # skipped when popped.
        super()._cancel(request)
