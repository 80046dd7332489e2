"""Tests for the windowed asynchronous sends of the mining drivers."""

import pytest

from repro.cluster import ATM_155, PROTOCOL_OVERHEAD_BYTES, Cluster
from repro.runtime import SendWindow
from repro.sim import Environment


def arrival(size, hops=1):
    """Delivery time of ``hops`` back-to-back ``size``-byte messages."""
    tx = ATM_155.transmit_time_s(size + PROTOCOL_OVERHEAD_BYTES)
    return hops * tx + ATM_155.one_way_latency_s


def test_full_mailbox_holds_the_window_slot():
    """A delivered message occupies its slot until the mailbox accepts it."""
    env = Environment()
    cl = Cluster(env, 3, mailbox_capacity=1)
    tr = cl.transport
    tr.local_deliver(1, "c", "filler")  # the mailbox starts full
    times = {}

    def windowed(env):
        window = SendWindow(tr, 1)
        yield from window.post(0, 1, "c", "a", 1000)
        yield from window.post(0, 1, "c", "b", 1000)  # waits for "a" to land
        times["second post"] = env.now
        yield from window.drain()

    def rival(env):
        # A second blocked deposit forces another settlement round while
        # "a" is still waiting for room.
        yield env.timeout(0.002)
        yield from tr.send(2, 1, "c", "c", 1000)

    def receiver(env):
        yield env.timeout(0.01)
        for _ in range(4):
            msg = yield tr.recv(1, "c")
            times.setdefault("got", []).append(msg.payload)

    env.process(windowed(env))
    env.process(rival(env))
    env.process(receiver(env))
    env.run()

    assert arrival(1000) < 0.002  # "a" was on time, the mailbox was not
    assert times["second post"] == 0.01
    assert times["got"] == ["filler", "a", "c", "b"]
    # "a" and "c" each blocked over several settlement rounds: counted once.
    assert tr.stats()["1:c"]["blocked_puts"] == 2


def test_events_per_message_budget():
    """Each posted message costs exactly six kernel events: the start,
    the egress and ingress grants, the transmit end, the delivery and
    the mailbox put; the receiver's get is a seventh."""
    n_senders, n_each = 4, 5
    env = Environment()
    cl = Cluster(env, n_senders + 1)
    tr = cl.transport
    dst = n_senders

    def sender(env, src):
        window = SendWindow(tr, n_each)  # never full
        for i in range(n_each):
            yield from window.post(src, dst, "f", i, 2048)
        yield from window.drain()  # one wait: a hop plus the wake-up

    def receiver(env):
        for _ in range(n_senders * n_each):
            yield tr.recv(dst, "f")

    for src in range(n_senders):
        env.process(sender(env, src))
    env.process(receiver(env))
    env.run()

    n_msgs = n_senders * n_each
    processes = n_senders + 1  # each costs a start and an exit event
    assert cl.network.stats.messages == n_msgs
    assert env.events_processed == 7 * n_msgs + 2 * processes + 2 * n_senders
    assert env.now == pytest.approx(arrival(2048, hops=n_msgs))
