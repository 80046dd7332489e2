"""Tests for the UBR cell-loss / TCP-retransmission model."""

import pytest

from repro.cluster import ATM_155, Message, Network, PROTOCOL_OVERHEAD_BYTES
from repro.errors import NetworkError
from repro.sim import Environment


def run_transfers(loss, n=200, rto=0.05, seed=1):
    env = Environment()
    net = Network(env, loss_probability=loss, retransmission_timeout_s=rto,
                  loss_seed=seed)
    net.register(0)
    net.register(1)

    def proc(env):
        for _ in range(n):
            msg = Message(src=0, dst=1, channel="t", payload=None, size_bytes=1024)
            yield net.transfer(msg)

    p = env.process(proc(env))
    env.run(until=p)
    return env.now, net


def test_zero_loss_no_retransmissions():
    _, net = run_transfers(0.0)
    assert net.stats.retransmissions == 0


def test_loss_triggers_retransmissions():
    _, net = run_transfers(0.1)
    # ~10% of 200 attempts retried (geometric tail adds a few).
    assert 8 <= net.stats.retransmissions <= 40
    assert net.stats.messages == 200  # all eventually delivered


def test_loss_inflates_completion_time():
    t_clean, _ = run_transfers(0.0)
    t_lossy, net = run_transfers(0.05, rto=0.2)
    expected_extra = net.stats.retransmissions * 0.2
    assert t_lossy == pytest.approx(t_clean + expected_extra, rel=0.05)


def test_rto_dominates_cost_of_loss():
    """The companion study's point: the retransmission *timeout*, not the
    re-sent bytes, is what makes loss expensive."""
    t_fast_rto, _ = run_transfers(0.1, rto=0.01, seed=3)
    t_slow_rto, _ = run_transfers(0.1, rto=0.5, seed=3)
    assert t_slow_rto > 5 * t_fast_rto


def test_loss_deterministic_given_seed():
    a, neta = run_transfers(0.1, seed=9)
    b, netb = run_transfers(0.1, seed=9)
    assert a == b
    assert neta.stats.retransmissions == netb.stats.retransmissions


def test_validation():
    env = Environment()
    with pytest.raises(NetworkError):
        Network(env, loss_probability=1.0)
    with pytest.raises(NetworkError):
        Network(env, loss_probability=-0.1)
    with pytest.raises(NetworkError):
        Network(env, retransmission_timeout_s=0)


def test_bytes_counted_once_per_delivery():
    _, net = run_transfers(0.2, seed=5)
    assert net.stats.payload_bytes == 200 * 1024
    assert net.stats.wire_bytes == 200 * (1024 + PROTOCOL_OVERHEAD_BYTES)


class _Draws:
    """Stand-in loss RNG returning scripted draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def test_lost_message_rejoins_back_of_egress_fifo():
    """A retransmission queues behind every send that asked for egress
    while its timeout ran, not at the head it held before."""
    env = Environment()
    tx = ATM_155.transmit_time_s(1024 + PROTOCOL_OVERHEAD_BYTES)
    net = Network(env, loss_probability=0.5, retransmission_timeout_s=tx / 2)
    for i in range(4):
        net.register(i)
    net._loss_rng = _Draws([0.0, 0.9, 0.9, 0.9])  # only the first attempt is lost
    msgs = [
        Message(src=0, dst=dst, channel="t", payload=None, size_bytes=1024)
        for dst in (1, 2, 3)
    ]
    for msg in msgs:
        net.transfer(msg)  # egress is requested at once, in call order
    env.run()

    latency = ATM_155.one_way_latency_s
    first, second, third = msgs
    assert second.deliver_time == pytest.approx(2 * tx + latency)
    assert third.deliver_time == pytest.approx(3 * tx + latency)
    assert first.deliver_time == pytest.approx(4 * tx + latency)
    assert net.stats.retransmissions == 1
    assert net.stats.messages == 3
