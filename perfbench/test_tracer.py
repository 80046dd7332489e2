"""Self-tests of the benchmark's tracing wrappers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracer import GenProxy, Tracer, layer_boundaries  # noqa: E402
from workloads import result_hash  # noqa: E402


def _body(log: list):
    try:
        got = yield 1
        log.append(("sent", got))
        yield 2
    except ValueError as exc:
        log.append(("caught", str(exc)))
        yield 3
    finally:
        log.append("finally")
    return "done"


def _proxy(log: list) -> GenProxy:
    tracer = Tracer()
    return tracer.wrap("t:body", _body)(log)


def test_proxy_forwards_send_and_return_value():
    log: list = []

    def outer():
        return (yield from _proxy(log))

    gen = outer()
    assert next(gen) == 1
    assert gen.send("x") == 2
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert log == [("sent", "x"), "finally"]


def test_proxy_forwards_throw():
    log: list = []
    proxy = _proxy(log)
    assert next(proxy) == 1
    assert proxy.throw(ValueError("boom")) == 3
    assert log == [("caught", "boom")]
    with pytest.raises(KeyError):
        proxy.throw(KeyError("uncaught"))
    assert log[-1] == "finally"


def test_proxy_forwards_close():
    log: list = []
    proxy = _proxy(log)
    next(proxy)
    proxy.close()
    assert log == ["finally"]


def test_interrupt_reaches_a_proxied_process_body():
    from repro.errors import Interrupt
    from repro.sim import Environment

    env = Environment()
    tracer = Tracer()

    def wait(env):
        try:
            yield env.timeout(10)
        except Interrupt as intr:
            return f"interrupted by {intr.cause}"
        return "slept"

    traced_wait = tracer.wrap("t:wait", wait)

    def victim(env):
        return (yield from traced_wait(env))

    def attacker(env, proc):
        yield env.timeout(1)
        proc.interrupt("test")

    proc = env.process(victim(env))
    env.process(attacker(env, proc))
    assert env.run(until=proc) == "interrupted by test"
    assert tracer.stats["t:wait"].resumes == 2


def _mid_broadcast_shortage():
    """A Figure 5 style cell whose shortage lands while the memory
    monitor is paying per-message CPU for its first broadcast, so the
    interrupt is thrown through the traced ``Node.compute`` body.  (The
    sweep's own fig5 cells signal between broadcasts and never do.)"""
    from repro.analysis.cost_model import PAPER_COSTS
    from repro.runtime.scenarios import Scenario

    t = 0.5 * PAPER_COSTS.monitor_cpu_per_message_s
    return Scenario(scale="tiny", pager="remote-update", n_memory_nodes=2,
                    paper_mb=12.0, shortages=((t, 0),))


@pytest.mark.parametrize("pager", ["remote", "disk", "mid-broadcast-shortage"])
def test_traced_tiny_run_matches_untraced(pager, monkeypatch):
    import time

    from repro.runtime.scenarios import Scenario

    if pager == "mid-broadcast-shortage":
        scenario = _mid_broadcast_shortage()
    else:
        scenario = Scenario(scale="tiny", pager=pager, paper_mb=12.0,
                            n_memory_nodes=2 if pager == "remote" else 0)
    untraced = result_hash(scenario.execute())

    throws = []
    original_throw = GenProxy.throw

    def counting_throw(self, *args):
        throws.append(self._name)
        return original_throw(self, *args)

    monkeypatch.setattr(GenProxy, "throw", counting_throw)
    tracer = Tracer()
    tracer.calibrate(2000)
    with tracer.patched(layer_boundaries()):
        t0 = time.perf_counter()
        traced = result_hash(scenario.execute())
        wall = time.perf_counter() - t0
    assert traced == untraced
    assert sum(tracer.layer_self_s().values()) <= wall
    assert {"sim", "cluster", "core", "mining", "runtime"} <= set(tracer.layer_self_s())
    if pager == "mid-broadcast-shortage":
        assert throws, "the shortage must interrupt a traced process body"


def test_patches_are_restored():
    from repro.cluster.network import Network
    from repro.mining import hpa

    before = (Network.__dict__["transfer"], hpa.generate_candidates)
    with Tracer().patched(layer_boundaries()):
        assert Network.__dict__["transfer"] is not before[0]
    assert (Network.__dict__["transfer"], hpa.generate_candidates) == before
