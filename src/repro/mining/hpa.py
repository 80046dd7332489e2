"""Hash-Partitioned Apriori (HPA) on the simulated cluster.

This is the paper's §2.2/§3.3 parallel miner, run as discrete-event
processes on a :class:`~repro.runtime.builder.ClusterRuntime`.  Each
pass:

1. **Candidate generation** — every node generates all candidate
   k-itemsets from the (globally known) large (k-1)-itemsets, keeps
   those whose hash line it owns, and inserts them through its
   :class:`~repro.core.swap_manager.SwapManager` (which may start
   swapping out hash lines when the memory-usage limit is crossed).
2. **Counting** — per node a *sender* process scans the local
   transaction partition (sequential 64 KB disk reads), generates
   k-subsets, routes each by hash to its owner, batching itemsets into
   4 KB message blocks; a *receiver* process counts incoming itemsets
   into the swap-managed hash table.  Pagefaults and remote updates
   happen here.  Itemsets owned locally are counted in place.
3. **Determination** — each node reads every line it owns (peeking
   swapped ones through the pager), selects locally large itemsets, and
   broadcasts them; the globally known L_k feeds the next pass.

The result — large itemsets with exact support counts — is invariant
under every pager/limit configuration; only the virtual clock differs.
That property is what the integration tests pin against sequential
Apriori.

Cluster bring-up, the pass loop, pass 1, and the telemetry surface live
in :class:`~repro.runtime.driver.MiningDriver`; this module contains
only what is HPA-specific: hash-partitioned candidate placement, the
sender/receiver counting phase, and the determination broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Generator, Optional

import numpy as np

from repro.datagen.corpus import TransactionDatabase
from repro.mining.candidates import generate_candidates
from repro.mining.itemsets import ITEMSET_BYTES, Itemset
from repro.mining.kernels import (
    OWNER_DUPLICATED,
    CountingKernel,
    OwnerStreams,
    eld_scores,
)
from repro.mining.partition import HashPartitioner
from repro.runtime.config import RunConfig
from repro.runtime.driver import MiningDriver, SendWindow
from repro.runtime.results import PassResult, RunResult

__all__ = ["HPAConfig", "HPAResult", "HPAPassResult", "HPARun", "run_hpa"]

#: Sentinel payload closing one sender->receiver stream.
_EOF = "__eof__"

#: Historical aliases — the result types are driver-independent now.
HPAPassResult = PassResult
HPAResult = RunResult


@dataclass(frozen=True)
class HPAConfig(RunConfig):
    """Configuration of one HPA run (paper §5.1 parameters).

    A thin subclass of :class:`~repro.runtime.config.RunConfig` kept for
    its import path; all fields and validation live in the base.
    """


class HPARun(MiningDriver):
    """One fully-wired HPA execution over a simulated cluster."""

    #: Manifest tag for telemetry run entries.
    driver_name = "hpa"
    pass1_channel = "pass1"

    def __init__(self, db: TransactionDatabase, config: HPAConfig) -> None:
        super().__init__(db, config)
        self.partitioner = HashPartitioner(config.total_lines, config.n_app_nodes)

    # -- orchestration ---------------------------------------------------------

    def _run_pass(self, k: int, l_prev: dict[Itemset, int]) -> Generator:
        cfg = self.config
        t0 = self.env.now
        self._trace_phase(f"pass {k} start")

        # Generate the candidate set once (every node computes it in the
        # real system; we charge each node's CPU but share the Python
        # object).
        candidates = generate_candidates(sorted(l_prev), k)

        # HPA-ELD: duplicate the candidates with the highest estimated
        # frequency on every node; they are counted locally and never
        # routed, removing the heaviest share of itemset traffic.  The
        # ranking key (min support over (k-1)-subsets) is computed once
        # per candidate, not once per comparison.
        dup_set: set[Itemset] = set()
        if cfg.eld_fraction > 0 and candidates:
            n_dup = int(cfg.eld_fraction * len(candidates))
            if n_dup:
                scores = eld_scores(candidates, l_prev, k)
                ranked = sorted(
                    range(len(candidates)), key=scores.__getitem__, reverse=True
                )
                dup_set = {candidates[i] for i in ranked[:n_dup]}

        # Routing is resolved once per candidate here; the counting phase
        # never re-hashes `line_of`/`node_of_line` per occurrence.
        per_node_cands = [0] * cfg.n_app_nodes
        node_candidates: list[list[tuple[Itemset, int]]] = [
            [] for _ in range(cfg.n_app_nodes)
        ]
        entries: list[tuple[Itemset, int, Optional[int]]] = []
        for cand in candidates:
            if cand in dup_set:
                entries.append((cand, -1, OWNER_DUPLICATED))
                continue
            line = self.partitioner.line_of(cand)
            owner = self.partitioner.node_of_line(line)
            per_node_cands[owner] += 1
            node_candidates[owner].append((cand, line))
            entries.append((cand, line, owner))
        kernel: Optional[CountingKernel] = None
        if cfg.kernel == "vector" and candidates:
            kernel = CountingKernel(k, self.db.n_items, entries)
        dup_counts: list[dict[Itemset, int]] = [
            dict.fromkeys(dup_set, 0) for _ in range(cfg.n_app_nodes)
        ]

        stats_before = {
            a: self._pager_snapshot(a) for a in self.app_ids
        }

        # Phase 1: candidate generation + insertion.
        yield from self._barrier(
            [
                self._candgen_node(
                    a, len(candidates), node_candidates[a], len(dup_set)
                )
                for a in self.app_ids
            ]
        )
        t_candgen = self.env.now
        self._trace_phase(f"pass {k} candidates generated")
        self._span(f"pass{k}/candgen", t0, t_candgen)

        if not candidates:
            self._span(f"pass{k}", t0, self.env.now)
            return (
                PassResult(
                    k=k,
                    n_candidates=0,
                    per_node_candidates=per_node_cands,
                    n_large=0,
                    start_time=t0,
                    end_time=self.env.now,
                    candgen_time_s=t_candgen - t0,
                ),
                {},
            )

        # Phase 2: counting.
        l_prev_keys = set(l_prev)
        l1_mask = self._l1_mask(l_prev) if k == 2 else None
        counting = []
        for a in self.app_ids:
            counting.append(self._receiver_node(a, k, kernel))
            counting.append(
                self._sender_node(a, k, l_prev_keys, l1_mask, dup_counts[a], kernel)
            )
        outcomes = yield from self._barrier(counting)
        n_count_messages = sum(v for v in outcomes if isinstance(v, int))
        # Settle outstanding update messages before reading counts.
        yield from self._barrier([self.managers[a].drain() for a in self.app_ids])
        t_count = self.env.now
        self._trace_phase(f"pass {k} counting done")
        self._span(f"pass{k}/counting", t_candgen, t_count)

        # Phase 3: determination (+ the ELD all-reduce of duplicated
        # candidates' partial counts, when the variant is enabled).
        local_larges = yield from self._barrier(
            [self._determine_node(a) for a in self.app_ids]
        )
        l_now: dict[Itemset, int] = {}
        for chunk in local_larges:
            l_now.update(chunk)
        if dup_set:
            merged = yield from self._reduce_duplicated(dup_counts)
            for itemset, count in merged.items():
                if count >= self.minsup_count:
                    l_now[itemset] = count
        t_det = self.env.now
        self._span(f"pass{k}/determine", t_count, t_det)
        self._span(f"pass{k}", t0, t_det)

        stats_after = {a: self._pager_snapshot(a) for a in self.app_ids}
        delta = {
            a: tuple(after - before for after, before in zip(stats_after[a], stats_before[a]))
            for a in self.app_ids
        }

        # Per-pass cleanup: hash tables, guest stores.
        self.runtime.reset_pass()

        return (
            PassResult(
                k=k,
                n_candidates=len(candidates),
                per_node_candidates=per_node_cands,
                n_large=len(l_now),
                start_time=t0,
                end_time=self.env.now,
                candgen_time_s=t_candgen - t0,
                counting_time_s=t_count - t_candgen,
                determine_time_s=t_det - t_count,
                faults_per_node=[delta[a][0] for a in self.app_ids],
                swap_outs_per_node=[delta[a][1] for a in self.app_ids],
                update_msgs_per_node=[delta[a][2] for a in self.app_ids],
                fault_time_per_node=[delta[a][3] for a in self.app_ids],
                n_duplicated=len(dup_set),
                count_messages=n_count_messages,
            ),
            l_now,
        )

    def _reduce_duplicated(self, dup_counts: "list[dict[Itemset, int]]") -> Generator:
        """ELD all-reduce: fold every node's duplicated-candidate partial
        counts into global counts (gather at node 0, merge, broadcast)."""
        cost = self.config.cost
        n_dup = len(dup_counts[0])
        vec_bytes = max(16, 28 * n_dup)

        def gather(a: int) -> Generator:
            yield from self.cluster.transport.send(a, 0, "eldgather", None, vec_bytes)

        def collect() -> Generator:
            for _ in range(len(self.app_ids) - 1):
                yield self.cluster.transport.recv(0, "eldgather")
            yield from self.cluster[0].compute(
                cost.cpu_count_per_itemset_s * n_dup * len(self.app_ids)
            )
            window = SendWindow(self.cluster.transport, self.config.send_window)
            for b in self.app_ids[1:]:
                yield from window.post(0, b, "eldlarge", None, vec_bytes)
            yield from window.drain()

        def receive_result(a: int) -> Generator:
            yield self.cluster.transport.recv(a, "eldlarge")

        procs = [collect()] if len(self.app_ids) > 1 else []
        procs += [gather(a) for a in self.app_ids[1:]]
        procs += [receive_result(a) for a in self.app_ids[1:]]
        if procs:
            yield from self._barrier(procs)
        merged: dict[Itemset, int] = {}
        for counts in dup_counts:
            for itemset, c in counts.items():
                merged[itemset] = merged.get(itemset, 0) + c
        return merged

    # -- per-node phase processes ----------------------------------------------

    def _candgen_node(
        self,
        a: int,
        n_total_candidates: int,
        owned: "list[tuple[Itemset, int]]",
        n_duplicated: int = 0,
    ) -> Generator:
        """Generate all candidates (CPU), insert the owned ones.

        Duplicated (ELD) candidates live outside the hash table but their
        footprint still counts against the node's memory-usage limit.
        """
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        mgr.pinned_bytes = ITEMSET_BYTES * n_duplicated
        if n_total_candidates:
            yield from node.compute(
                cost.cpu_candgen_per_candidate_s * n_total_candidates
            )
        yield from self._insert_candidates(a, owned)

    def _sender_node(
        self,
        a: int,
        k: int,
        l_prev_keys: set,
        l1_mask: "Optional[np.ndarray]",
        dup_counts: "Optional[dict[Itemset, int]]" = None,
        kernel: Optional[CountingKernel] = None,
    ) -> Generator:
        """Scan transactions, route k-subsets, count local ones inline.

        Returns the number of count messages this sender shipped.  With a
        kernel the hot path is vectorized (dense pair codes for k == 2,
        prefix-index subset walk for k >= 3); every simulated quantity —
        CPU charged, message boundaries and order, pagefault behaviour —
        is identical to the naive path.
        """
        dup_counts = dup_counts if dup_counts is not None else {}
        if kernel is None:
            return (
                yield from self._sender_naive(a, k, l_prev_keys, l1_mask, dup_counts)
            )
        if kernel.dense:
            if self.managers[a].pager is None:
                return (
                    yield from self._sender_pairs_bulk(a, kernel, l1_mask, dup_counts)
                )
            return (
                yield from self._sender_pairs_ordered(a, kernel, l1_mask, dup_counts)
            )
        return (yield from self._sender_subsets(a, kernel, dup_counts))

    def _sender_blocks(self, a: int) -> "list[tuple[int, int]]":
        """(start, end) transaction ranges of one 64 KB disk block each
        (shared geometry of every sender variant)."""
        part = self.partitions[a]
        cost = self.config.cost
        n = len(part)
        avg_txn_bytes = max(1.0, part.size_bytes() / max(1, n))
        txns_per_block = max(1, int(cost.disk_io_block_bytes / avg_txn_bytes))
        return [(i, min(n, i + txns_per_block)) for i in range(0, n, txns_per_block)]

    def _sender_naive(
        self,
        a: int,
        k: int,
        l_prev_keys: set,
        l1_mask: "Optional[np.ndarray]",
        dup_counts: "dict[Itemset, int]",
    ) -> Generator:
        """The reference per-occurrence sender (``kernel="naive"``)."""
        n_messages = 0
        part = self.partitions[a]
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        window = SendWindow(self.cluster.transport, self.config.send_window)
        items_per_msg = max(1, cost.message_block_bytes // ITEMSET_BYTES)
        buffers: dict[int, list] = {b: [] for b in self.app_ids if b != a}

        for i, j in self._sender_blocks(a):
            yield from node.data_disk.read(cost.disk_io_block_bytes, sequential=True)
            generated = 0
            local_counted = 0
            for t in range(i, j):
                txn = part[t]
                if k == 2:
                    filtered = txn[l1_mask[txn]]
                    subsets = combinations(filtered.tolist(), 2)
                else:
                    subsets = (
                        s
                        for s in combinations(txn.tolist(), k)
                        if all(
                            sub in l_prev_keys for sub in combinations(s, k - 1)
                        )
                    )
                for itemset in subsets:
                    generated += 1
                    if itemset in dup_counts:
                        dup_counts[itemset] += 1
                        local_counted += 1
                        continue
                    line = self.partitioner.line_of(itemset)
                    owner = self.partitioner.node_of_line(line)
                    if owner == a:
                        op = mgr.count_itemset(itemset, line)
                        if op is not None:
                            yield from op
                        local_counted += 1
                    else:
                        buf = buffers[owner]
                        buf.append(itemset)
                        if len(buf) >= items_per_msg:
                            # Snapshot the payload and reuse the buffer
                            # (its capacity survives the clear) instead of
                            # allocating a fresh list per flushed block.
                            payload = buf[:]
                            del buf[:]
                            n_messages += 1
                            yield from window.post(
                                a, owner, "count", payload, cost.message_block_bytes
                            )
            cpu = (
                cost.cpu_generate_per_itemset_s * generated
                + cost.cpu_count_per_itemset_s * local_counted
            )
            if cpu > 0:
                yield from node.compute(cpu)

        # Flush partial buffers and close streams.
        for b, buf in buffers.items():
            if buf:
                n_messages += 1
                yield from window.post(a, b, "count", buf, ITEMSET_BYTES * len(buf))
        # Every payload must be delivered before any EOF departs: the
        # receiver closes its pass on the EOF count, and concurrent
        # in-window transfers give the (small, fast) EOF no causal order
        # against the last payload.  The real network's per-connection
        # FIFO makes this ordering a guarantee, so the model enforces it
        # rather than inheriting it from event-queue insertion order.
        yield from window.drain()
        for b in buffers:
            yield from window.post(a, b, "count", _EOF, 16)
        yield from window.drain()
        return n_messages

    def _sender_pairs_bulk(
        self,
        a: int,
        kernel: CountingKernel,
        l1_mask: "Optional[np.ndarray]",
        dup_counts: "dict[Itemset, int]",
    ) -> Generator:
        """k == 2 sender, no pager: fully vectorized block processing.

        Without a pager the fast counting path never yields, so the
        occurrence order of local counts is unobservable in virtual time;
        they are accumulated as pair codes and folded in bulk at the end.
        Remote occurrences still ship at the naive sender's exact message
        boundaries and order (:class:`OwnerStreams`), as ``int64`` code
        arrays the receiver decodes.
        """
        n_messages = 0
        part = self.partitions[a]
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        window = SendWindow(self.cluster.transport, self.config.send_window)
        items_per_msg = max(1, cost.message_block_bytes // ITEMSET_BYTES)
        dests = [b for b in self.app_ids if b != a]
        streams = OwnerStreams(dests, items_per_msg)
        offsets = part.offsets
        local_codes: list[np.ndarray] = []
        dup_codes: list[np.ndarray] = []

        for i, j in self._sender_blocks(a):
            yield from node.data_disk.read(cost.disk_io_block_bytes, sequential=True)
            block = part.items[offsets[i] : offsets[j]]
            rel = offsets[i : j + 1] - offsets[i]
            codes = kernel.pair_block(block, rel, l1_mask)
            generated = int(codes.size)
            local_counted = 0
            if generated:
                owners = kernel.owners_of(codes)
                dup_sel = owners == OWNER_DUPLICATED
                loc_sel = owners == a
                rem_sel = ~(dup_sel | loc_sel)
                if dup_sel.any():
                    dup_codes.append(codes[dup_sel])
                if loc_sel.any():
                    local_codes.append(codes[loc_sel])
                local_counted = int(dup_sel.sum() + loc_sel.sum())
                if rem_sel.any():
                    for owner, payload in streams.extend(
                        codes[rem_sel], owners[rem_sel]
                    ):
                        n_messages += 1
                        yield from window.post(
                            a, owner, "count", payload, cost.message_block_bytes
                        )
            cpu = (
                cost.cpu_generate_per_itemset_s * generated
                + cost.cpu_count_per_itemset_s * local_counted
            )
            if cpu > 0:
                yield from node.compute(cpu)

        for b, payload in streams.residual():
            n_messages += 1
            yield from window.post(a, b, "count", payload, ITEMSET_BYTES * len(payload))
        # Deliver every payload before any EOF departs (per-connection
        # FIFO; see _sender_naive).
        yield from window.drain()
        for b in dests:
            yield from window.post(a, b, "count", _EOF, 16)
        yield from window.drain()
        kernel.apply_local_pairs(mgr, local_codes)
        kernel.fold_dup_pairs(dup_counts, dup_codes)
        return n_messages

    def _sender_pairs_ordered(
        self,
        a: int,
        kernel: CountingKernel,
        l1_mask: "Optional[np.ndarray]",
        dup_counts: "dict[Itemset, int]",
    ) -> Generator:
        """k == 2 sender with a pager: merge-walk over simulation events.

        The per-occurrence walk only has to stop where simulated time can
        advance — a full remote buffer flushing, or a local occurrence on
        a non-resident line faulting.  Both event kinds sit at computable
        positions in the block's emission order (flush positions are
        static; the next fault is the first non-resident local line, and
        residency only changes across yields), so everything between two
        events is batched: duplicated-candidate folds are order-free,
        resident local runs go through ``count_resident_batch``, and
        remote occurrences are carried as array slices that concatenate
        into exactly the payloads the per-occurrence walk would build.
        """
        n_messages = 0
        part = self.partitions[a]
        node = self.cluster[a]
        mgr = self.managers[a]
        mm = mgr.mm_table
        cost = self.config.cost
        window = SendWindow(self.cluster.transport, self.config.send_window)
        items_per_msg = max(1, cost.message_block_bytes // ITEMSET_BYTES)
        pair_of = kernel.pair_of
        dests = [b for b in self.app_ids if b != a]
        # Unflushed slices (and their total length) per destination.
        carry: dict[int, list[np.ndarray]] = {b: [] for b in dests}
        fill: dict[int, int] = {b: 0 for b in dests}
        offsets = part.offsets

        for i, j in self._sender_blocks(a):
            yield from node.data_disk.read(cost.disk_io_block_bytes, sequential=True)
            block = part.items[offsets[i] : offsets[j]]
            rel = offsets[i : j + 1] - offsets[i]
            codes = kernel.pair_block(block, rel, l1_mask)
            generated = int(codes.size)
            local_counted = 0
            if generated:
                owners = kernel.owners_of(codes)
                # Occurrence indices grouped by owner, emission order kept
                # within each group (stable sort).
                order = np.argsort(owners, kind="stable")
                grp_vals, starts = np.unique(owners[order], return_index=True)
                groups = np.split(order, starts[1:])
                loc_pos: Optional[np.ndarray] = None
                streams: dict[int, np.ndarray] = {}
                flushes: list[tuple[int, int, int]] = []  # (occ idx, owner, stream idx)
                for owner, pos in zip(grp_vals.tolist(), groups):
                    if owner == OWNER_DUPLICATED:
                        # Folds into a pre-keyed dict and never yields:
                        # unobservable in virtual time, so fold up front.
                        u, cnt = np.unique(codes[pos], return_counts=True)
                        for c, n_dup in zip(u.tolist(), cnt.tolist()):
                            dup_counts[pair_of(c)] += n_dup
                        local_counted += len(pos)
                    elif owner == a:
                        loc_pos = pos
                        local_counted += len(pos)
                    else:
                        streams[owner] = pos
                        first = items_per_msg - fill[owner] - 1
                        for si in range(first, len(pos), items_per_msg):
                            flushes.append((int(pos[si]), owner, si))
                flushes.sort()
                sent: dict[int, int] = {b: 0 for b in streams}  # consumed stream prefix

                if loc_pos is not None:
                    loc_codes = codes[loc_pos]
                    loc_lines = kernel.lines_of(loc_codes)
                    lmask = mm.resident_mask(loc_lines)
                    n_loc = len(loc_pos)
                else:
                    loc_codes = loc_lines = lmask = None
                    n_loc = 0

                li = 0  # next unprocessed local occurrence
                fi = 0  # next flush event
                while True:
                    if li < n_loc:
                        bad = np.flatnonzero(~lmask[li:])
                        fault_li = li + int(bad[0]) if bad.size else None
                    else:
                        fault_li = None
                    fault_idx = (
                        int(loc_pos[fault_li]) if fault_li is not None else None
                    )
                    flush_idx = flushes[fi][0] if fi < len(flushes) else None
                    if fault_idx is not None and (
                        flush_idx is None or fault_idx < flush_idx
                    ):
                        if fault_li > li:
                            mgr.count_resident_batch(
                                kernel.decode_pairs(loc_codes[li:fault_li]),
                                loc_lines[li:fault_li].tolist(),
                            )
                        op = mgr.count_itemset(
                            pair_of(int(loc_codes[fault_li])),
                            int(loc_lines[fault_li]),
                        )
                        li = fault_li + 1
                        if op is not None:
                            yield from op
                            if li < n_loc:
                                lmask[li:] = mm.resident_mask(loc_lines[li:])
                    elif flush_idx is not None:
                        if li < n_loc:
                            hi = int(np.searchsorted(loc_pos, flush_idx))
                            if hi > li:
                                mgr.count_resident_batch(
                                    kernel.decode_pairs(loc_codes[li:hi]),
                                    loc_lines[li:hi].tolist(),
                                )
                                li = hi
                        _, b, si = flushes[fi]
                        fi += 1
                        pos_b = streams[b]
                        parts = carry[b] + [codes[pos_b[sent[b] : si + 1]]]
                        payload = parts[0] if len(parts) == 1 else np.concatenate(parts)
                        carry[b] = []
                        fill[b] = 0
                        sent[b] = si + 1
                        n_messages += 1
                        yield from window.post(
                            a, b, "count", payload, cost.message_block_bytes
                        )
                        if li < n_loc:
                            lmask[li:] = mm.resident_mask(loc_lines[li:])
                    else:
                        if li < n_loc:
                            mgr.count_resident_batch(
                                kernel.decode_pairs(loc_codes[li:]),
                                loc_lines[li:].tolist(),
                            )
                        break
                for b, pos_b in streams.items():
                    if sent[b] < len(pos_b):
                        tail = codes[pos_b[sent[b] :]]
                        carry[b].append(tail)
                        fill[b] += len(tail)
            cpu = (
                cost.cpu_generate_per_itemset_s * generated
                + cost.cpu_count_per_itemset_s * local_counted
            )
            if cpu > 0:
                yield from node.compute(cpu)

        for b in dests:
            if carry[b]:
                parts = carry[b]
                payload = parts[0] if len(parts) == 1 else np.concatenate(parts)
                n_messages += 1
                yield from window.post(
                    a, b, "count", payload, ITEMSET_BYTES * len(payload)
                )
        # Deliver every payload before any EOF departs (per-connection
        # FIFO; see _sender_naive).
        yield from window.drain()
        for b in dests:
            yield from window.post(a, b, "count", _EOF, 16)
        yield from window.drain()
        return n_messages

    def _sender_subsets(
        self, a: int, kernel: CountingKernel, dup_counts: "dict[Itemset, int]"
    ) -> Generator:
        """k >= 3 (or oversized-universe k == 2) sender: prefix-index
        subset walk plus precomputed routing, per-occurrence loop."""
        n_messages = 0
        part = self.partitions[a]
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        window = SendWindow(self.cluster.transport, self.config.send_window)
        items_per_msg = max(1, cost.message_block_bytes // ITEMSET_BYTES)
        buffers: dict[int, list] = {b: [] for b in self.app_ids if b != a}

        for i, j in self._sender_blocks(a):
            yield from node.data_disk.read(cost.disk_io_block_bytes, sequential=True)
            generated = 0
            local_counted = 0
            for t in range(i, j):
                for itemset in kernel.subsets_of(part[t]):
                    generated += 1
                    if itemset in dup_counts:
                        dup_counts[itemset] += 1
                        local_counted += 1
                        continue
                    line, owner = kernel.route_of(itemset)
                    if owner == a:
                        op = mgr.count_itemset(itemset, line)
                        if op is not None:
                            yield from op
                        local_counted += 1
                    else:
                        buf = buffers[owner]
                        buf.append(itemset)
                        if len(buf) >= items_per_msg:
                            payload = buf[:]
                            del buf[:]
                            n_messages += 1
                            yield from window.post(
                                a, owner, "count", payload, cost.message_block_bytes
                            )
            cpu = (
                cost.cpu_generate_per_itemset_s * generated
                + cost.cpu_count_per_itemset_s * local_counted
            )
            if cpu > 0:
                yield from node.compute(cpu)

        for b, buf in buffers.items():
            if buf:
                n_messages += 1
                yield from window.post(a, b, "count", buf, ITEMSET_BYTES * len(buf))
        # Deliver every payload before any EOF departs (per-connection
        # FIFO; see _sender_naive).
        yield from window.drain()
        for b in buffers:
            yield from window.post(a, b, "count", _EOF, 16)
        yield from window.drain()
        return n_messages

    def _receiver_node(
        self, a: int, k: int, kernel: Optional[CountingKernel] = None
    ) -> Generator:
        """Count itemsets arriving from the other nodes' senders.

        Kernel senders ship dense pair codes as ``int64`` arrays; tuple
        lists arrive from the naive and k >= 3 paths.  Without a pager
        the decoded codes are accumulated and folded in bulk once every
        stream has closed (occurrence order is unobservable then); with a
        pager each occurrence is counted in arrival order.
        """
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        transport = self.cluster.transport
        remaining_eofs = len(self.app_ids) - 1
        bulk = kernel is not None and kernel.dense and mgr.pager is None
        pending: list[np.ndarray] = []
        while remaining_eofs > 0:
            msg = yield transport.recv(a, "count")
            payload = msg.payload
            if isinstance(payload, str):  # _EOF
                remaining_eofs -= 1
                continue
            yield from node.compute(
                cost.cpu_per_message_s + cost.cpu_count_per_itemset_s * len(payload)
            )
            if isinstance(payload, np.ndarray):
                assert kernel is not None
                if bulk:
                    pending.append(payload)
                    continue
                # Pager present: batch each run of consecutive resident
                # occurrences (no yields inside a run, so residency and
                # policy state cannot change under us); every occurrence
                # on a non-resident line still goes through the slow path
                # singly, in arrival order, and may fault.
                lines = kernel.lines_of(payload)
                mm = mgr.mm_table
                n_occ = len(payload)
                mask = mm.resident_mask(lines)
                i = 0
                while i < n_occ:
                    if mask[i]:
                        rel = np.flatnonzero(~mask[i:])
                        end = i + (int(rel[0]) if rel.size else n_occ - i)
                        kernel.count_resident_span(mgr, payload[i:end], lines[i:end])
                        i = end
                    else:
                        op = mgr.count_itemset(
                            kernel.pair_of(int(payload[i])), int(lines[i])
                        )
                        i += 1
                        if op is not None:
                            # A fault ran: residency may have shifted.
                            yield from op
                            if i < n_occ:
                                mask[i:] = mm.resident_mask(lines[i:])
            elif kernel is not None:
                for itemset in payload:
                    line, _ = kernel.route_of(itemset)
                    op = mgr.count_itemset(itemset, line)
                    if op is not None:
                        yield from op
            else:
                for itemset in payload:
                    line = self.partitioner.line_of(itemset)
                    op = mgr.count_itemset(itemset, line)
                    if op is not None:
                        yield from op
        if pending:
            assert kernel is not None
            kernel.apply_local_pairs(mgr, pending)

    def _determine_node(self, a: int) -> Generator:
        """Find locally large itemsets and broadcast them."""
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        lines = yield from mgr.iter_all_lines()
        local_large: dict[Itemset, int] = {}
        n_scanned = 0
        for line in lines:
            for itemset, count in line.counts.items():
                n_scanned += 1
                if count >= self.minsup_count:
                    local_large[itemset] = count
        if n_scanned:
            yield from node.compute(cost.cpu_determine_per_itemset_s * n_scanned)
        # Broadcast local large itemsets to the other application nodes.
        window = SendWindow(self.cluster.transport, self.config.send_window)
        payload_bytes = max(16, ITEMSET_BYTES * len(local_large))
        for b in self.app_ids:
            if b == a:
                continue
            yield from window.post(a, b, "large", None, payload_bytes)
        yield from window.drain()
        for _ in range(len(self.app_ids) - 1):
            yield self.cluster.transport.recv(a, "large")
        return local_large


def run_hpa(db: TransactionDatabase, config: HPAConfig) -> HPAResult:
    """Convenience wrapper: build an :class:`HPARun` and execute it."""
    return HPARun(db, config).run()
