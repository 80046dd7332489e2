"""Star-topology ATM network model.

All nodes hang off one non-blocking crossbar switch (the paper's HITACHI
AN1000-20 has a port for every node), so the only shared resources are
the per-node NIC transmit and receive sides.  A message transfer:

1. waits for the sender's egress NIC,
2. waits for the receiver's ingress NIC while holding egress (this is
   where a single memory-available node serving eight application nodes
   becomes the bottleneck of Figure 3),
3. holds both for the transmit time of payload + protocol overhead,
4. is delivered one one-way latency later.

A transfer is a chain of kernel callbacks, not a process: each step
runs from the event that ends the previous one (the egress grant, the
ingress grant, the transmit timeout), so every hop keeps the lane slot
a process resume would have had and the schedule is the same.

Bandwidth and latency come from :class:`~repro.cluster.specs.NicSpec`;
defaults reproduce the paper's measured 120 Mbps / 0.5 ms RTT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import NetworkError
from repro.cluster.specs import ATM_155, NicSpec
from repro.sim.events import Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["Message", "Network", "NetworkStats", "Transfer", "PROTOCOL_OVERHEAD_BYTES"]

#: Per-message header cost: TCP/IP + LLC/SNAP encapsulation over AAL5
#: (RFC 1483), rounded to a convenient constant.
PROTOCOL_OVERHEAD_BYTES = 96


@dataclass
class Message:
    """One network message, as seen by the transport layer."""

    src: int
    dst: int
    channel: str
    payload: object
    size_bytes: int
    msg_id: int = -1
    send_time: float = -1.0
    deliver_time: float = -1.0


# Pure counter accumulation: every field is a sum of per-message
# increments, which commute within an epoch; no control flow reads them
# back during the run.
@dataclass
class NetworkStats:  # repro-lint: disable=RPL602
    """Aggregate network counters."""

    messages: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    retransmissions: int = 0
    per_node_sent: dict = field(default_factory=dict)
    per_node_received: dict = field(default_factory=dict)

    def record(self, msg: Message, wire_bytes: int) -> None:
        """Account one delivered message."""
        self.messages += 1
        self.payload_bytes += msg.size_bytes
        self.wire_bytes += wire_bytes
        self.per_node_sent[msg.src] = self.per_node_sent.get(msg.src, 0) + 1
        self.per_node_received[msg.dst] = self.per_node_received.get(msg.dst, 0) + 1


class Network:
    """The switch plus every registered node's NIC resources.

    The cluster runs TCP over ATM's UBR traffic class (§3.2), which
    drops cells under congestion; the authors' companion study analysed
    the resulting TCP retransmissions on this very hardware.  Setting
    ``loss_probability`` models that regime: each transmission attempt
    is independently lost with that probability and retried after
    ``retransmission_timeout_s`` (TCP's RTO), which is what makes loss
    so much more expensive than its raw frequency suggests.
    """

    def __init__(
        self,
        env: "Environment",
        nic: NicSpec = ATM_155,
        loss_probability: float = 0.0,
        retransmission_timeout_s: float = 0.2,
        loss_seed: int = 0,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise NetworkError(
                f"loss probability must be in [0, 1), got {loss_probability}"
            )
        if retransmission_timeout_s <= 0:
            raise NetworkError("retransmission timeout must be positive")
        self.env = env
        self.nic = nic
        self.loss_probability = loss_probability
        self.retransmission_timeout_s = retransmission_timeout_s
        self._loss_rng = np.random.default_rng(loss_seed)
        self._egress: dict[int, Resource] = {}
        self._ingress: dict[int, Resource] = {}
        self._msg_ids = count()
        self.stats = NetworkStats()
        #: Telemetry event bus (wired by ``Telemetry.attach``); emits one
        #: ``net-msg`` per delivery and one ``net-retransmit`` per loss.
        self.bus = None

    def register(self, node_id: int) -> None:
        """Attach a node to the switch; idempotent."""
        if node_id not in self._egress:
            self._egress[node_id] = Resource(self.env, capacity=1)
            self._ingress[node_id] = Resource(self.env, capacity=1)

    @property
    def node_ids(self) -> list[int]:
        """All registered nodes, in registration order."""
        return list(self._egress)

    def transfer(self, msg: Message) -> "Transfer":
        """Start moving ``msg`` across the network; returns its delivery.

        Egress is requested at once, inside the caller's resume.  The
        returned event is processed the instant the message is fully
        delivered, with the message (timing fields filled in) as its
        value; the network's delivery accounting runs before any other
        callback on it.
        """
        if msg.src not in self._egress:
            raise NetworkError(f"unknown source node {msg.src}")
        if msg.dst not in self._ingress:
            raise NetworkError(f"unknown destination node {msg.dst}")
        if msg.src == msg.dst:
            raise NetworkError(f"node {msg.src} cannot send to itself over the network")
        if msg.size_bytes < 0:
            raise NetworkError(f"negative message size {msg.size_bytes}")
        msg.msg_id = next(self._msg_ids)
        msg.send_time = self.env.now
        return Transfer(self, msg)

    def egress_queue_length(self, node_id: int) -> int:
        """Sends waiting on ``node_id``'s transmit side."""
        return len(self._egress[node_id].queue)

    def ingress_queue_length(self, node_id: int) -> int:
        """Deliveries waiting on ``node_id``'s receive side."""
        return len(self._ingress[node_id].queue)


class Transfer(Event):
    """One message crossing the network; the event of its delivery.

    The steps run as callbacks on the events that end the one before:
    the egress grant requests ingress (egress stays held), the ingress
    grant starts the transmit timeout, and the timeout's end releases
    both NICs and schedules this event one latency later — or, if the
    attempt was lost, requests egress again after the retransmission
    timeout, at the back of the FIFO.
    """

    __slots__ = (
        "network", "msg", "wire_bytes", "tx_time",
        "egress", "ingress", "egress_req", "ingress_req",
    )

    def __init__(self, network: Network, msg: Message) -> None:
        super().__init__(network.env)
        self.callbacks.append(self._delivered)  # type: ignore[union-attr]
        self.network = network
        self.msg = msg
        self.wire_bytes = msg.size_bytes + PROTOCOL_OVERHEAD_BYTES
        self.tx_time = network.nic.transmit_time_s(self.wire_bytes)
        self.egress = network._egress[msg.src]
        self.ingress = network._ingress[msg.dst]
        self._request_egress()

    def _request_egress(self, _event: object = None) -> None:
        req = self.egress_req = self.egress.request()
        req.callbacks.append(self._egress_granted)  # type: ignore[union-attr]

    def _egress_granted(self, _event: Event) -> None:
        req = self.ingress_req = self.ingress.request()
        req.callbacks.append(self._ingress_granted)  # type: ignore[union-attr]

    def _ingress_granted(self, _event: Event) -> None:
        self.env.sleep(self.tx_time).callbacks.append(self._sent)  # type: ignore[union-attr]

    def _sent(self, _event: Event) -> None:
        self.egress.release(self.egress_req)
        self.ingress.release(self.ingress_req)
        net = self.network
        msg = self.msg
        if net.loss_probability > 0.0 and net._loss_rng.random() < net.loss_probability:
            # Segment lost (UBR cell drop): TCP retransmits after RTO.
            net.stats.retransmissions += 1
            if net.bus is not None:
                net.bus.emit(
                    "net-retransmit", msg.src,
                    f"msg {msg.msg_id} -> node {msg.dst} lost on {msg.channel}",
                    dst=msg.dst, channel=msg.channel,
                )
            rto = self.env.sleep(net.retransmission_timeout_s)
            rto.callbacks.append(self._request_egress)  # type: ignore[union-attr]
            return
        self._value = msg
        self.env.schedule(self, delay=net.nic.one_way_latency_s)

    def _delivered(self, _event: Event) -> None:
        net = self.network
        msg = self.msg
        msg.deliver_time = self.env.now
        net.stats.record(msg, self.wire_bytes)
        if net.bus is not None:
            net.bus.emit(
                "net-msg", msg.src,
                f"msg {msg.msg_id} -> node {msg.dst} on {msg.channel}",
                dst=msg.dst, channel=msg.channel, size_bytes=msg.size_bytes,
                wire_bytes=self.wire_bytes,
                duration_s=msg.deliver_time - msg.send_time,
            )
