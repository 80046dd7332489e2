"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps the *public* entry points of each ``repro`` layer by
patching them for the duration of a traced run and restoring them
afterwards; no module under ``src/`` knows it exists.  Two kinds of
boundary are timed:

- a **sync** boundary (a plain function or method) is one span per call;
- a **generator** boundary (a simulation process body such as
  ``Network.transfer``) is one span per *resume*: a proxy forwards
  ``send``, ``throw`` and ``close`` to the real generator and times each.

A sync boundary that returns a generator (``SwapManager.count_itemset``
returning a fault operation, ``Disk.read``) has that generator proxied
under the same boundary, so its later resumes are attributed too.

Spans nest on one stack.  A span's *self* time is its duration minus the
time its children took, so per-layer self times sum to no more than the
traced wall time.  A child is charged to its caller from the wrapper's
first clock read to its last, bookkeeping included, so the tracer's own
work does not land in the caller's self time: a caller that makes
hundreds of thousands of small calls (the HPA sender and receiver
bodies, counted as ``sim``) is not billed for the tracing.  Only the
call into the wrapper and the return out of it fall outside those clock
reads; :meth:`Tracer.calibrate` measures that residue and charges it to
the child as well.  Aggregates per boundary (calls, resumes, total and
self seconds) stay in memory; the first :data:`RAW_SPAN_CAP` raw spans
are kept as well, and both are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = ["Tracer", "GenProxy", "Boundary", "layer_boundaries", "RAW_SPAN_CAP"]

#: Raw spans kept per tracer (name index, start, end, depth); beyond this
#: only the per-boundary aggregates grow.  A 100-node run opens millions
#: of spans, which would not fit in memory as objects.
RAW_SPAN_CAP = 20000

_perf = time.perf_counter
_GENERATOR = types.GeneratorType


@dataclass(frozen=True)
class Boundary:
    """One patch site: ``owner.attr`` timed as layer ``layer``.

    ``owner`` is a class (the attribute is a method defined on it) or a
    module (the attribute is a function bound into that namespace).
    """

    layer: str
    owner: Any
    attr: str

    @property
    def name(self) -> str:
        owner = getattr(self.owner, "__name__", repr(self.owner))
        return f"{self.layer}:{owner}.{self.attr}"


@dataclass
class _Stat:
    calls: int = 0
    resumes: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    samples: Optional[list] = None


@dataclass
class Tracer:
    """Span stack plus per-boundary aggregates; install with :meth:`patched`."""

    #: Boundary names whose every span duration is kept (small call counts
    #: only, e.g. the warm pass's store reads).
    sampled: "frozenset[str]" = frozenset()
    stats: "dict[str, _Stat]" = field(default_factory=dict)
    spans: list = field(default_factory=list)
    #: Per-span wrapper cost charged to the child, not the caller (s).
    bias_s: float = 0.0
    _stack: list = field(default_factory=list)
    _names: "dict[str, int]" = field(default_factory=dict)

    def calibrate(self, n: int = 20000) -> float:
        """Set :attr:`bias_s`, the per-span wrapper cost that no clock read
        covers, from ``n`` wrapped against ``n`` bare calls of a no-op.

        Keeps the lowest of seven trials: the residue is a floor, and host
        noise only ever inflates a trial."""
        def noop() -> None:
            return None

        probe = Tracer()
        traced = probe.wrap("calibrate", noop)
        found = []
        for _ in range(7):
            outer = [0.0]
            probe._stack[:] = [outer]
            t0 = _perf()
            for _ in range(n):
                noop()
            bare = _perf() - t0
            t0 = _perf()
            for _ in range(n):
                traced()
            wrapped = _perf() - t0
            found.append((wrapped - outer[0] - bare) / n)
        self.bias_s = max(0.0, min(found))
        return self.bias_s

    # -- span core -----------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat(samples=[] if name in self.sampled else None)
            self._names[name] = len(self._names)
        return st

    def _close(self, st: _Stat, name: str, w0: float, t0: float, frame: list) -> None:
        """End the span timed from ``t0``; the wrapper began at ``w0``."""
        t1 = _perf()
        dt = t1 - t0
        stack = self._stack
        stack.pop()
        st.total_s += dt
        st.self_s += dt - frame[0]
        if st.samples is not None:
            st.samples.append(dt)
        if len(self.spans) < RAW_SPAN_CAP:
            self.spans.append((self._names[name], t0, t1, len(stack)))
        if stack:
            stack[-1][0] += _perf() - w0 + self.bias_s

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as one span; proxy a returned generator."""
        w0 = _perf()
        st = self._stat(name)
        st.calls += 1
        frame = [0.0]
        self._stack.append(frame)
        t0 = _perf()
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(st, name, w0, t0, frame)
        if type(out) is _GENERATOR:
            return GenProxy(self, name, out)
        return out

    def resume(self, name: str, fn: Callable, *args: Any) -> Any:
        """One generator resume (``send``/``throw``/``close``) as a span."""
        w0 = _perf()
        st = self.stats[name]
        st.resumes += 1
        frame = [0.0]
        self._stack.append(frame)
        t0 = _perf()
        try:
            return fn(*args)
        finally:
            self._close(st, name, w0, t0, frame)

    # -- installation ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        call = self.call

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(name, fn, *args, **kwargs)

        return traced

    def patched(self, boundaries: "Iterable[Boundary]") -> "_Patch":
        """Context manager patching ``boundaries`` for its duration."""
        return _Patch(self, list(boundaries))

    # -- results ---------------------------------------------------------------

    def layer_self_s(self) -> "dict[str, float]":
        out: "dict[str, float]" = {}
        for name, st in self.stats.items():
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0.0) + st.self_s
        return out

    def boundary(self, name_suffix: str) -> _Stat:
        """Aggregate of every boundary whose name ends with ``name_suffix``."""
        agg = _Stat()
        for name, st in self.stats.items():
            if name.endswith(name_suffix):
                agg.calls += st.calls
                agg.resumes += st.resumes
                agg.total_s += st.total_s
                agg.self_s += st.self_s
        return agg

    def dump(self) -> dict:
        names = sorted(self._names, key=self._names.__getitem__)
        return {
            "boundaries": {
                n: {"calls": s.calls, "resumes": s.resumes,
                    "total_s": s.total_s, "self_s": s.self_s}
                for n, s in self.stats.items()
            },
            "span_names": names,
            "spans": self.spans,
            "raw_span_cap": RAW_SPAN_CAP,
            "bias_s": self.bias_s,
        }


class GenProxy:
    """Forwards the generator protocol to ``gen``, timing every resume.

    ``yield from`` and the simulation kernel's ``Process`` drive it
    exactly like the generator it wraps: ``send``/``__next__`` resume,
    ``throw`` delivers an exception (an interrupt, a failed event) and
    ``close`` finalises; the return value travels on ``StopIteration``.
    """

    __slots__ = ("_tracer", "_name", "_gen")

    def __init__(self, tracer: Tracer, name: str, gen: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._gen = gen

    def __iter__(self) -> "GenProxy":
        return self

    def __next__(self) -> Any:
        return self._tracer.resume(self._name, self._gen.send, None)

    def send(self, value: Any) -> Any:
        return self._tracer.resume(self._name, self._gen.send, value)

    def throw(self, *args: Any) -> Any:
        return self._tracer.resume(self._name, self._gen.throw, *args)

    def close(self) -> None:
        return self._tracer.resume(self._name, self._gen.close)

    @property
    def __name__(self) -> str:  # Process names itself after its generator
        return self._gen.__name__


class _Patch:
    def __init__(self, tracer: Tracer, boundaries: "list[Boundary]") -> None:
        self.tracer = tracer
        self.boundaries = boundaries
        self._saved: list = []

    def __enter__(self) -> Tracer:
        for b in self.boundaries:
            original = b.owner.__dict__[b.attr]
            self._saved.append((b.owner, b.attr, original))
            setattr(b.owner, b.attr, self.tracer.wrap(b.name, original))
        return self.tracer

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _methods(layer: str, cls: type, names: "Iterable[str]") -> "list[Boundary]":
    """Boundaries for the listed methods that ``cls`` itself defines."""
    return [Boundary(layer, cls, n) for n in names if n in cls.__dict__]


def layer_boundaries() -> "list[Boundary]":
    """Every public entry point the traced runs wrap, by layer.

    ``sim`` is the dispatch loop (``Environment.run``): host time inside
    it that no other boundary covers — the kernel plus the drivers'
    private process bodies — is the ``sim`` self time.  Functions bound
    by ``from ... import`` into a caller's namespace are patched there.
    """
    from repro import datagen
    from repro.cluster.disk import Disk
    from repro.cluster.network import Network
    from repro.cluster.node import Node
    from repro.cluster.transport import Transport
    from repro.core.disk_pager import DiskPager
    from repro.core.memory_table import MemoryManagementTable
    from repro.core.remote_pager import RemoteMemoryPager, RemoteUpdatePager
    from repro.core.swap_manager import SwapManager
    from repro.harness import scales
    from repro.harness.sweep import engine
    from repro.mining import candidates, hpa
    from repro.mining.kernels import CountingKernel, OwnerStreams, PrefixIndex
    from repro.runtime import builder, driver
    from repro.runtime.store import ResultStore
    from repro.sim.engine import Environment

    pager_api = ("evict", "fault_in", "peek_line", "buffer_update", "drain",
                 "migrate_from")
    out = [Boundary("sim", Environment, "run")]
    out += [Boundary("cluster", Network, "transfer"),
            Boundary("cluster", Transport, "send"),
            Boundary("cluster", Node, "compute")]
    out += _methods("cluster", Disk, ("read", "write"))
    out += _methods("core", SwapManager, (
        "insert_candidate", "count_itemset", "count_resident_bulk",
        "count_resident_batch", "count_span_codes", "flush_span_counts",
        "iter_all_lines", "drain"))
    out += _methods("core", MemoryManagementTable, ("resident_mask",))
    for cls in (RemoteMemoryPager, RemoteUpdatePager, DiskPager):
        out += _methods("core", cls, pager_api)
    out += [Boundary("mining", candidates, "generate_candidates"),
            Boundary("mining", hpa, "generate_candidates")]
    out += _methods("mining", CountingKernel, (
        "__init__", "pair_block", "owners_of", "lines_of", "decode_pairs",
        "pair_of", "count_resident_span", "subsets_of", "route_of",
        "apply_local_pairs", "fold_dup_pairs"))
    out += _methods("mining", OwnerStreams, ("__init__", "extend", "residual"))
    out += _methods("mining", PrefixIndex, ("__init__",))
    out += [Boundary("runtime", builder, "build_runtime"),
            Boundary("runtime", driver, "build_runtime")]
    out += _methods("runtime", ResultStore, ("get", "put"))
    out += [Boundary("harness", engine, "run_sweep_outcome"),
            Boundary("datagen", datagen, "generate"),
            Boundary("datagen", scales, "generate")]
    return out
