"""Message stores: producer/consumer queues between processes.

:class:`Store` is an unbounded-or-bounded FIFO of arbitrary items;
:class:`FilterStore` lets consumers wait for items matching a predicate;
:class:`PriorityStore` delivers the smallest item first.  These back the
cluster's mailboxes and transport endpoints.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Callable

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["StorePut", "StoreGet", "Store", "FilterStore", "PriorityStore", "PriorityItem"]


class StorePut(Event):
    """Pending insertion of ``item`` into a store (may block if bounded).

    :meth:`Store.put` builds one and offers it at once.  A put can also
    be built ahead of its store — waiters subscribe straight away — and
    offered later with :meth:`Store.offer` (the transport does this for
    a message still on the wire).
    """

    __slots__ = ("item", "_blocked_once")

    def __init__(self, env: "Environment", item: object) -> None:
        super().__init__(env)
        self.item = item
        #: Flag for backpressure accounting by bounded-store wrappers
        #: (e.g. the cluster mailbox): lets "this put blocked at least
        #: once" be counted exactly once across settlement rounds.
        self._blocked_once = False


class StoreGet(Event):
    """Pending retrieval of one item from a store."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store
        store._get_queue.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw an unfulfilled get from the store's wait queue.

        A no-op once the get has already been granted.
        """
        if not self.triggered:
            try:
                self.store._get_queue.remove(self)
            except ValueError:
                pass


class Store:
    """FIFO item queue with optional capacity bound.

    ``put(item)`` returns an event that succeeds once the item is stored;
    ``get()`` returns an event that succeeds with the next item.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.items: list[object] = []
        self._put_queue: list[StorePut] = []
        self._get_queue: list[StoreGet] = []

    @property
    def capacity(self) -> float:
        """Maximum number of stored items."""
        return self._capacity

    def put(self, item: object) -> StorePut:
        """Insert ``item``; the returned event succeeds when accepted."""
        return self.offer(StorePut(self.env, item))

    def offer(self, put: StorePut) -> StorePut:
        """Queue a put built ahead of time; returns it."""
        self._put_queue.append(put)
        self._trigger()
        return put

    def get(self) -> StoreGet:
        """Request the next item; the returned event succeeds with it."""
        return StoreGet(self)

    # -- internals --------------------------------------------------------

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self._capacity:
            self._store_item(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        item = self._select_item(event)
        if item is not _NOTHING:
            event.succeed(item)
            return True
        return False

    def _store_item(self, item: object) -> None:
        self.items.append(item)

    def _select_item(self, event: StoreGet) -> object:
        if self.items:
            return self.items.pop(0)
        return _NOTHING

    def _trigger(self) -> None:
        put_queue = self._put_queue
        get_queue = self._get_queue
        if len(put_queue) <= 1 and len(get_queue) <= 1:
            # At most one waiter per side — a deposit, with or without
            # its receiver waiting — is the common case.  This is the
            # loop below specialised to it, without the list rebuilds.
            progressed = True
            while progressed:
                progressed = False
                if put_queue:
                    put_ev = put_queue[0]
                    if put_ev.triggered or self._do_put(put_ev):
                        put_queue.clear()
                        progressed = True
                if get_queue:
                    get_ev = get_queue[0]
                    if get_ev.triggered or self._do_get(get_ev):
                        get_queue.clear()
                        progressed = True
            return
        # Alternate put/get settlement until neither side can progress.
        # Each pass rebuilds the queue from its survivors instead of
        # popping mid-list (quadratic under waiter floods); the scan
        # visits waiters in exactly the original order, which fixes
        # which get matches which item — and therefore the schedule.
        progressed = True
        while progressed:
            progressed = False
            survivors: list[StorePut] = []
            for put_ev in self._put_queue:
                if put_ev.triggered or self._do_put(put_ev):
                    progressed = True
                else:
                    survivors.append(put_ev)
            self._put_queue[:] = survivors
            get_survivors: list[StoreGet] = []
            for get_ev in self._get_queue:
                if get_ev.triggered or self._do_get(get_ev):
                    progressed = True
                else:
                    get_survivors.append(get_ev)
            self._get_queue[:] = get_survivors

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} items={len(self.items)}>"


class _Nothing:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<nothing>"


_NOTHING = _Nothing()


class FilterStoreGet(StoreGet):
    """Get event that only matches items satisfying ``filter_fn``."""

    __slots__ = ("filter_fn",)

    def __init__(self, store: "FilterStore", filter_fn: Callable[[object], bool]) -> None:
        self.filter_fn = filter_fn
        super().__init__(store)


class FilterStore(Store):
    """Store whose consumers may wait for items matching a predicate."""

    def get(self, filter_fn: Callable[[object], bool] = lambda item: True) -> FilterStoreGet:  # type: ignore[override]
        """Request the first stored item for which ``filter_fn`` is true."""
        return FilterStoreGet(self, filter_fn)

    def _select_item(self, event: StoreGet) -> object:
        assert isinstance(event, FilterStoreGet)
        for i, item in enumerate(self.items):
            if event.filter_fn(item):
                return self.items.pop(i)
        return _NOTHING


class PriorityItem:
    """Wrapper pairing an unorderable item with an explicit priority key."""

    __slots__ = ("priority", "item")

    def __init__(self, priority: object, item: object) -> None:
        self.priority = priority
        self.item = item

    def __lt__(self, other: "PriorityItem") -> bool:
        return self.priority < other.priority  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PriorityItem):
            return NotImplemented
        return self.priority == other.priority and self.item == other.item

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PriorityItem({self.priority!r}, {self.item!r})"


class PriorityStore(Store):
    """Store delivering its smallest item first (heap-ordered)."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        self._tie = count()
        self._heap: list[tuple[object, int, object]] = []

    def _store_item(self, item: object) -> None:
        heapq.heappush(self._heap, (item, next(self._tie), item))
        self.items = [entry[2] for entry in self._heap]  # introspection mirror

    def _select_item(self, event: StoreGet) -> object:
        if self._heap:
            _, _, item = heapq.heappop(self._heap)
            self.items = [entry[2] for entry in self._heap]
            return item
        return _NOTHING
