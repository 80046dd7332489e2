"""MiningDriver: the execution scaffolding shared by HPA and NPA.

Both parallel Apriori drivers are the *same program* outside their
counting strategy: build a cluster runtime, run pass 1 (local item
counts + all-to-all count-vector exchange), then iterate candidate
passes until no large itemsets remain, collecting per-pass pager deltas
and reporting through the telemetry bus.  This base class owns all of
that; a driver subclass supplies ``driver_name``, ``pass1_channel``,
and ``_run_pass`` (plus its own per-node counting processes).

Historically NPA borrowed HPA's telemetry methods by class-attribute
assignment; inheritance replaces that hack with an actual shared
surface.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.analysis.trace import TraceCollector, UtilizationSampler
from repro.cluster.dynamics import scripted_shortage
from repro.cluster.transport import Transport
from repro.errors import MiningError
from repro.obs import Telemetry, current_telemetry
from repro.obs.telemetry import run_meta
from repro.runtime.builder import ClusterRuntime, build_runtime
from repro.runtime.config import RunConfig
from repro.runtime.results import PassResult, RunResult
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.corpus import TransactionDatabase
    from repro.mining.itemsets import Itemset

__all__ = ["MiningDriver", "SendWindow"]

#: Number of itemsets whose CPU cost is charged per compute call in the
#: hot loops (keeps simulator event counts low without distorting totals).
CPU_CHUNK = 512


class SendWindow:
    """Bounded number of in-flight asynchronous sends per process.

    A send is in flight from its post until its mailbox put is
    processed.  A sender that finds the window full (or drains it)
    waits, and wakes two zero-delay hops after the put that frees it:
    the slots a per-send process's exit event and a condition over those
    processes would take, which fix where the sender's next egress
    request lands among same-instant requests.
    """

    def __init__(self, transport: Transport, limit: int) -> None:
        self.transport = transport
        self.env = transport.env
        self.limit = limit
        self._inflight = 0
        #: The waiting sender's wake-up event and the in-flight count at
        #: or below which it fires.
        self._waiter: Optional[Event] = None
        self._wake_at = 0

    def post(
        self, src: int, dst: int, channel: str, payload: object, size_bytes: int
    ) -> Generator:
        """Post one send (:meth:`Transport.post`) once a slot is free."""
        if self._inflight >= self.limit:
            yield self._wait(self.limit - 1)
        self._inflight += 1
        put = self.transport.post(src, dst, channel, payload, size_bytes)
        put.callbacks.append(self._landed)  # type: ignore[union-attr]

    def drain(self) -> Generator:
        """Wait for every posted send to land."""
        if self._inflight:
            yield self._wait(0)

    def _wait(self, wake_at: int) -> Event:
        self._wake_at = wake_at
        self._waiter = Event(self.env)
        return self._waiter

    def _landed(self, _put: Event) -> None:
        self._inflight -= 1
        waiter = self._waiter
        if waiter is not None and self._inflight <= self._wake_at:
            self._waiter = None
            hop = Event(self.env)
            hop.callbacks.append(lambda _event: waiter.succeed())  # type: ignore[union-attr]
            hop.succeed()


class MiningDriver:
    """One single-use parallel-mining execution over a cluster runtime."""

    #: Manifest tag for telemetry run entries.
    driver_name = "driver"
    #: Transport channel used by the pass-1 count-vector exchange (the
    #: two drivers keep their historical channel names so traces stay
    #: comparable across versions).
    pass1_channel = "pass1"

    def __init__(self, db: "TransactionDatabase", config: RunConfig) -> None:
        if len(db) < config.n_app_nodes:
            raise MiningError("fewer transactions than application nodes")
        self.db = db
        self.config = config
        self.runtime: ClusterRuntime = build_runtime(config)
        # Aliases into the runtime, kept for the (widely used) historical
        # attribute surface: tests, telemetry attach, examples.
        self.env = self.runtime.env
        self.cluster = self.runtime.cluster
        self.app_ids = self.runtime.app_ids
        self.mem_ids = self.runtime.mem_ids
        self.stores = self.runtime.stores
        self.monitors = self.runtime.monitors
        self.clients = self.runtime.clients
        self.pagers = self.runtime.pagers
        self.managers = self.runtime.managers
        self.partitions = db.partition(config.n_app_nodes)
        self.minsup_count = max(1, int(math.ceil(config.minsup * len(db))))
        self.result: Optional[RunResult] = None
        #: Optional list of (virtual_time, mem_node_id) shortage signals
        #: injected during the run (Figure 5's experiment).
        self.shortage_schedule: list[tuple[float, int]] = []
        #: Instrumentation (populated by :meth:`enable_telemetry` /
        #: :meth:`enable_instrumentation`).
        self.telemetry: Optional[Telemetry] = None
        self.trace: Optional[TraceCollector] = None
        self.sampler: Optional[UtilizationSampler] = None

    # -- instrumentation ---------------------------------------------------

    def enable_telemetry(
        self,
        telemetry: Optional[Telemetry] = None,
        sample_interval_s: Optional[float] = None,
    ) -> Telemetry:
        """Wire this run into a telemetry session (event bus + metrics).

        With no argument a fresh private :class:`Telemetry` is created;
        passing an existing one lets several consecutive runs share one
        trace (how ``repro-bench --trace`` collects a whole sweep).
        Hooks every event source, including disk-fallback pagers chained
        behind remote ones.  Call before :meth:`run`.
        """
        if telemetry is None:
            telemetry = Telemetry()
        self.telemetry = telemetry
        telemetry.attach(self, run_meta(self.driver_name, self.config))
        if sample_interval_s is not None:
            self.sampler = UtilizationSampler(self.cluster, sample_interval_s)
        return telemetry

    def enable_instrumentation(
        self, sample_interval_s: Optional[float] = None
    ) -> TraceCollector:
        """Attach a :class:`TraceCollector` (and optionally a periodic
        :class:`UtilizationSampler`) to this run.

        The collector is one subscriber on the telemetry event bus —
        pager events (faults, swap-outs, migrations), phase boundaries,
        and everything else the bus carries are recorded; call before
        :meth:`run`.
        """
        if self.telemetry is None:
            self.enable_telemetry(sample_interval_s=sample_interval_s)
        elif sample_interval_s is not None and self.sampler is None:
            self.sampler = UtilizationSampler(self.cluster, sample_interval_s)
        self.trace = TraceCollector(self.env)
        self.telemetry.bus.subscribe(self.trace.subscriber())
        return self.trace

    def _trace_phase(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.phase_mark(name)
        elif self.trace is not None:
            self.trace.record(-1, "phase", name)

    def _span(self, name: str, start: float, end: float) -> None:
        if self.telemetry is not None:
            self.telemetry.span(name, start, end)

    # -- public API --------------------------------------------------------

    def run(self) -> RunResult:
        """Execute to completion and return the mining result.

        A run object is single-use: the simulated cluster's state is
        consumed by the execution.
        """
        if self.result is not None:
            raise MiningError("this run has already executed; build a new one")
        if self.telemetry is None:
            ambient = current_telemetry()
            if ambient is not None:
                self.enable_telemetry(ambient)
        self.runtime.start_services()
        if self.sampler is not None:
            self.sampler.start()
        # Scripted shortages run as degenerate one-shot traces: a single
        # step to 100 % pressure at the scheduled time, event-for-event
        # identical to the historical harness-side injector (pinned by
        # the runtime goldens).  Continuous dynamics — churn traces and
        # failure events — were started by ``start_services`` above.
        for t, node_id in self.shortage_schedule:
            self.env.process(scripted_shortage(self.env, self.monitors, t, node_id))
        main = self.env.process(self._main())
        self.env.run(until=main)
        self.runtime.stop_services()
        if self.sampler is not None:
            # stop() takes the closing snapshot itself.
            self.sampler.stop()
        assert self.result is not None
        if self.telemetry is not None:
            faults, fault_time = self.runtime.total_fault_stats()
            self.telemetry.end_run(
                total_time_s=self.result.total_time_s,
                passes=len(self.result.passes),
                n_large=len(self.result.large_itemsets),
                faults=faults,
                fault_time_s=fault_time,
            )
        return self.result

    # -- orchestration -----------------------------------------------------

    def _barrier(self, generators: list[Generator]) -> Generator:
        procs = [self.env.process(g) for g in generators]
        yield self.env.all_of(procs)
        return [p.value for p in procs]

    def _main(self) -> Generator:
        cfg = self.config
        start = self.env.now
        passes: list[PassResult] = []
        all_large: dict[Itemset, int] = {}

        # If monitors exist, give the first availability broadcast time to
        # land before any swapping can be needed (the paper's monitors run
        # from machine boot; ours start with the run).
        if self.monitors:
            yield self.env.timeout(
                2 * cfg.cost.monitor_cpu_per_message_s * len(self.app_ids) + 2e-3
            )

        # ---- pass 1 (identical in both drivers) ----
        t0 = self.env.now
        local_counts = yield from self._barrier(
            [self._pass1_node(a) for a in self.app_ids]
        )
        global_counts = np.sum(local_counts, axis=0)
        large_items = np.nonzero(global_counts >= self.minsup_count)[0]
        l_prev: dict[Itemset, int] = {
            (int(i),): int(global_counts[i]) for i in large_items
        }
        all_large.update(l_prev)
        self._span("pass1", t0, self.env.now)
        passes.append(
            PassResult(
                k=1,
                n_candidates=self.db.n_items,
                per_node_candidates=[],
                n_large=len(l_prev),
                start_time=t0,
                end_time=self.env.now,
            )
        )

        # ---- passes k >= 2 ----
        k = 2
        while l_prev and (cfg.max_k <= 0 or k <= cfg.max_k):
            pass_result, l_now = yield from self._run_pass(k, l_prev)
            passes.append(pass_result)
            all_large.update(l_now)
            if pass_result.n_candidates == 0:
                break
            l_prev = l_now
            k += 1

        self.result = RunResult(
            config=cfg,
            large_itemsets=all_large,
            passes=passes,
            total_time_s=self.env.now - start,
        )
        return None

    def _run_pass(self, k: int, l_prev: "dict[Itemset, int]") -> Generator:
        """Run one candidate pass; returns ``(PassResult, L_k)``.

        The counting strategy — candidate placement, communication,
        reduction — is the whole difference between drivers.
        """
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator function

    # -- shared per-node phase processes -----------------------------------

    def _scan_blocks(self, a: int) -> Generator:
        """Sequential disk scan of the local partition, yielding per-block
        transaction index ranges."""
        part = self.partitions[a]
        node = self.cluster[a]
        cost = self.config.cost
        block_bytes = cost.disk_io_block_bytes
        n = len(part)
        if n == 0:
            return []
        avg_txn_bytes = max(1.0, part.size_bytes() / n)
        txns_per_block = max(1, int(block_bytes / avg_txn_bytes))
        ranges = []
        i = 0
        while i < n:
            j = min(n, i + txns_per_block)
            yield from node.data_disk.read(block_bytes, sequential=True)
            ranges.append((i, j))
            i = j
        return ranges

    def _pass1_node(self, a: int) -> Generator:
        """Scan the partition, count items, exchange count vectors."""
        part = self.partitions[a]
        node = self.cluster[a]
        cost = self.config.cost
        # Disk scan + per-item CPU.
        yield from self._scan_blocks(a)
        yield from node.compute(cost.cpu_count_per_itemset_s * part.total_items)
        counts = part.item_counts()
        # Exchange: send the count vector to every other application node.
        window = SendWindow(self.cluster.transport, self.config.send_window)
        vec_bytes = 4 * self.db.n_items
        for b in self.app_ids:
            if b == a:
                continue
            yield from window.post(a, b, self.pass1_channel, None, vec_bytes)
        yield from window.drain()
        # Receive the other nodes' vectors (timing only; the orchestrator
        # sums the real vectors).
        for _ in range(len(self.app_ids) - 1):
            yield self.cluster.transport.recv(a, self.pass1_channel)
        return counts

    def _insert_candidates(self, a: int, owned) -> Generator:
        """Insert ``(itemset, line)`` pairs through the swap manager,
        charging CPU in :data:`CPU_CHUNK` batches."""
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        inserted = 0
        for itemset, line in owned:
            op = mgr.insert_candidate(itemset, line)
            if op is not None:
                yield from op
            inserted += 1
            if inserted % CPU_CHUNK == 0:
                yield from node.compute(cost.cpu_count_per_itemset_s * CPU_CHUNK)
        if inserted % CPU_CHUNK:
            yield from node.compute(
                cost.cpu_count_per_itemset_s * (inserted % CPU_CHUNK)
            )

    # -- helpers -----------------------------------------------------------

    def _pager_snapshot(self, a: int) -> tuple:
        pager = self.pagers[a]
        if pager is None:
            return (0, 0, 0, 0.0)
        s = pager.stats
        return (s.faults, s.swap_outs, s.update_messages, s.fault_time_s)

    def _l1_mask(self, l_prev: "dict[Itemset, int]") -> np.ndarray:
        mask = np.zeros(self.db.n_items, dtype=bool)
        for itemset in l_prev:
            mask[itemset[0]] = True
        return mask
