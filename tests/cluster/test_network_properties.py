"""Property-based tests for the network model (DESIGN.md §7 commitments):
bytes are conserved per flow, causality holds, and ordering per sender
is preserved under arbitrary traffic patterns."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ATM_155, Cluster, Message
from repro.sim import Environment

flow = st.tuples(
    st.integers(0, 3),  # src
    st.integers(0, 3),  # dst
    st.integers(1, 8192),  # size
    st.floats(0, 0.01),  # start offset
)


@settings(max_examples=30, deadline=None)
@given(flows=st.lists(flow, min_size=1, max_size=25))
def test_property_conservation_and_causality(flows):
    flows = [(s, d, z, t) for (s, d, z, t) in flows if s != d]
    if not flows:
        return
    env = Environment()
    cluster = Cluster(env, 4)
    delivered: list[Message] = []

    def send(env, src, dst, size, delay):
        yield env.timeout(delay)
        msg = Message(src=src, dst=dst, channel="p", payload=None, size_bytes=size)
        yield cluster.network.transfer(msg)
        delivered.append(msg)

    for src, dst, size, delay in flows:
        env.process(send(env, src, dst, size, delay))
    env.run()

    # Conservation: every message delivered exactly once, bytes intact.
    assert len(delivered) == len(flows)
    assert cluster.network.stats.payload_bytes == sum(z for _, _, z, _ in flows)

    # Causality: delivery strictly after send, by at least the latency
    # plus the transmit time of the message itself.
    for msg in delivered:
        min_time = ATM_155.one_way_latency_s + ATM_155.transmit_time_s(msg.size_bytes)
        assert msg.deliver_time >= msg.send_time + min_time - 1e-12


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4096), min_size=2, max_size=15),
)
def test_property_per_sender_fifo(sizes):
    """Messages from one sender to one receiver arrive in send order."""
    env = Environment()
    cluster = Cluster(env, 2)
    order: list[int] = []

    def sender(env):
        for i, size in enumerate(sizes):
            yield from cluster.transport.send(0, 1, "seq", i, size)

    def receiver(env):
        for _ in sizes:
            msg = yield cluster.transport.recv(1, "seq")
            order.append(msg.payload)

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert order == list(range(len(sizes)))


@settings(max_examples=15, deadline=None)
@given(
    n_senders=st.integers(2, 5),
    n_each=st.integers(1, 6),
)
def test_property_fan_in_total_time_lower_bound(n_senders, n_each):
    """Total fan-in time is bounded below by serialised ingress time."""
    env = Environment()
    cluster = Cluster(env, n_senders + 1)
    dst = n_senders
    size = 2048

    def one(env, src):
        for _ in range(n_each):
            yield from cluster.transport.send(src, dst, "f", None, size)

    for src in range(n_senders):
        env.process(one(env, src))
    env.run()
    from repro.cluster import PROTOCOL_OVERHEAD_BYTES

    tx = ATM_155.transmit_time_s(size + PROTOCOL_OVERHEAD_BYTES)
    assert env.now >= n_senders * n_each * tx - 1e-12
