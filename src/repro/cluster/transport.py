"""Message transport: named channels between nodes.

Models the paper's TLI mesh — every process pair is connected by an
ordered, reliable byte stream.  Here each (node, channel-name) pair owns
a :class:`Mailbox`; ``send`` moves a message across the
:class:`~repro.cluster.network.Network` and deposits it in the
destination mailbox, preserving per-sender ordering because each
sender's egress NIC serialises its transmissions.

Mailboxes are unbounded by default (the paper's TLI endpoints buffer in
kernel memory); passing ``mailbox_capacity`` bounds every mailbox, so a
sender whose receiver has fallen behind *blocks in virtual time* —
back-pressure instead of infinite buffering.  Every mailbox keeps
delivery/depth/occupancy statistics either way (:meth:`Transport.stats`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.analysis.race import access as _race
from repro.errors import NetworkError
from repro.cluster.network import Message, Network
from repro.sim.events import URGENT, Event
from repro.sim.store import Store, StoreGet, StorePut

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Environment

__all__ = ["Mailbox", "Transport"]


class Mailbox(Store):
    """A mailbox store that accounts for its own traffic.

    Tracks total deliveries, the peak queue depth, how many puts ever
    blocked on a full mailbox, and the time-weighted mean depth
    (*occupancy*) — the queueing picture the flat counters of
    ``NetworkStats`` can't show.
    """

    #: Same-epoch deposits from different senders land in queue order
    #: (see repro.analysis.race).
    __race_shared__ = True

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        node_id: int = -1,
        channel: str = "",
    ) -> None:
        super().__init__(env, capacity)
        self.node_id = node_id
        self.channel = channel
        self.delivered = 0
        self.peak_depth = 0
        self.blocked_puts = 0
        self._t0 = env.now
        self._last_t = env.now
        self._depth_area = 0.0
        self._race = _race.TRACKER

    # Occupancy accounting only: callers (_store_item/_select_item)
    # record the (queue, channel) cell, and same-instant _advance calls
    # fold a zero-width (now - last_t == 0) area term, so the sum is
    # identical in any order.
    def _advance(self) -> None:  # repro-lint: disable=RPL601
        now = self.env.now
        self._depth_area += len(self.items) * (now - self._last_t)
        self._last_t = now

    def _store_item(self, item: object) -> None:
        # repro-race: ordered -- a same-instant put/get pair commutes:
        # put appends at the tail, get takes the head (or settles
        # against this put if the queue was empty), so the handoff and
        # the resulting queue are identical in either order and
        # per-sender FIFO is preserved.
        if self._race is not None:
            self._race.write(self, ("queue", self.channel))
        self._advance()
        super()._store_item(item)
        self.delivered += 1
        if len(self.items) > self.peak_depth:
            self.peak_depth = len(self.items)

    def _select_item(self, event: StoreGet) -> object:
        if self._race is not None:
            self._race.write(self, ("queue", self.channel))
        self._advance()
        return super()._select_item(event)

    # The queue mutation itself happens in _store_item (recorded there);
    # this override only bumps the commutative blocked-put counter.
    def _do_put(self, event: StorePut) -> bool:  # repro-lint: disable=RPL601
        done = super()._do_put(event)
        # Count each put at most once, however many settlement rounds it
        # spends waiting for room.
        if not done and not event._blocked_once:
            event._blocked_once = True
            self.blocked_puts += 1
        return done

    def occupancy(self) -> float:
        """Time-weighted mean queue depth since creation."""
        self._advance()
        elapsed = self._last_t - self._t0
        return self._depth_area / elapsed if elapsed > 0 else 0.0

    def stats(self) -> dict:
        return {
            "delivered": self.delivered,
            "depth": len(self.items),
            "peak_depth": self.peak_depth,
            "blocked_puts": self.blocked_puts,
            "occupancy": self.occupancy(),
        }


# Transport's only mutation is the lazy mailbox create in mailbox():
# guarded by a key-present check, so concurrent same-instant callers for
# a new key leave the identical state (one fresh empty Mailbox) in
# either order; the mailboxes themselves are hooked.
class Transport:  # repro-lint: disable=RPL602
    """Channel-addressed messaging on top of :class:`Network`."""

    def __init__(
        self, network: Network, mailbox_capacity: Optional[int] = None
    ) -> None:
        if mailbox_capacity is not None and mailbox_capacity <= 0:
            raise NetworkError(
                f"mailbox capacity must be positive, got {mailbox_capacity}"
            )
        self.network = network
        self.env = network.env
        self.mailbox_capacity = mailbox_capacity
        self._mailboxes: dict[tuple[int, str], Mailbox] = {}

    def mailbox(self, node_id: int, channel: str) -> Mailbox:
        """The mailbox for ``channel`` on ``node_id`` (created on demand)."""
        key = (node_id, channel)
        if key not in self._mailboxes:
            if node_id not in self.network.node_ids:
                raise NetworkError(f"unknown node {node_id}")
            capacity = (
                float("inf") if self.mailbox_capacity is None
                else self.mailbox_capacity
            )
            self._mailboxes[key] = Mailbox(self.env, capacity, node_id, channel)
        return self._mailboxes[key]

    def send(
        self,
        src: int,
        dst: int,
        channel: str,
        payload: object,
        size_bytes: int,
    ) -> Generator:
        """Process generator: transfer and deliver one message.

        Completes once the message sits in the destination mailbox.
        Egress is requested inside the caller's resume; the caller then
        waits on the message's mailbox put, which a full bounded mailbox
        holds back.  Use :meth:`post` for fire-and-forget.
        """
        msg = Message(src=src, dst=dst, channel=channel, payload=payload, size_bytes=size_bytes)
        put = StorePut(self.env, msg)
        self._launch(msg, put)
        yield put
        return msg

    def post(
        self,
        src: int,
        dst: int,
        channel: str,
        payload: object,
        size_bytes: int,
    ) -> StorePut:
        """Fire-and-forget send; returns the message's mailbox put.

        The transfer starts from a zero-delay urgent event, the slot a
        newly started process would take, so back-to-back posts from
        one node reach its egress NIC in post order.  The returned put
        is processed once the message sits in the destination mailbox.
        """
        msg = Message(src=src, dst=dst, channel=channel, payload=payload, size_bytes=size_bytes)
        put = StorePut(self.env, msg)
        start = Event(self.env)
        start.callbacks.append(lambda _event: self._launch(msg, put))  # type: ignore[union-attr]
        start._value = None
        self.env.schedule(start, URGENT)
        return put

    def _launch(self, msg: Message, put: StorePut) -> None:
        """Put ``msg`` on the wire; offer ``put`` to its mailbox on delivery."""
        delivered = self.network.transfer(msg)
        delivered.callbacks.append(  # type: ignore[union-attr]
            lambda _event: self.mailbox(msg.dst, msg.channel).offer(put)
        )

    def recv(self, node_id: int, channel: str) -> StoreGet:
        """Event yielding the next :class:`Message` on the channel."""
        return self.mailbox(node_id, channel).get()

    def local_deliver(self, node_id: int, channel: str, payload: object) -> None:
        """Deposit a message into a local mailbox without touching the network.

        Used when a node addresses itself (the hash function frequently
        maps itemsets back to their producer, which costs no network time).
        """
        msg = Message(
            src=node_id,
            dst=node_id,
            channel=channel,
            payload=payload,
            size_bytes=0,
            send_time=self.env.now,
            deliver_time=self.env.now,
        )
        self.mailbox(node_id, channel).put(msg)

    def pending(self, node_id: int, channel: str) -> int:
        """Number of undelivered messages waiting in the mailbox."""
        return len(self.mailbox(node_id, channel))

    def stats(self) -> "dict[str, dict]":
        """Per-mailbox delivery/depth/occupancy statistics, keyed
        ``"<node>:<channel>"`` in creation order."""
        return {
            f"{node_id}:{channel}": mbox.stats()
            for (node_id, channel), mbox in self._mailboxes.items()
        }
