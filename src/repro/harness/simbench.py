"""Sim-kernel throughput benchmark (``BENCH_simkernel.json``).

ROADMAP item 1: the discrete-event kernel must sustain 100-node runs at
paper-like workloads.  This bench measures the kernel's two throughput
figures — **events per second** and **host wall-clock per simulated
second** — across node counts {16, 32, 64, 100} on one fixed workload
cell, so the scaling curve is tracked per PR alongside the hot-path
bench.

The cell is a pass-2 HPA run with the remote pager and the vector
kernel at a memory-usage limit of 90 % of the busiest node's candidate
footprint — inside the paper's 78–97 % residency regime (§5.1's
12–15 MB limits against a 15.39 MB busiest node), where counting work
dominates and pagefaults are the exception, not the rule.

Every cell also records the run's :func:`~repro.harness.hotpath.result_hash`.
Comparing a fresh run against the committed artifact's cells checks
both the host speedup *and* bit-identical simulated behaviour — the CI
smoke job and a tier-1 test assert the hashes.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import TYPE_CHECKING, Optional, Sequence

from repro.datagen import TransactionDatabase, generate
from repro.errors import HarnessError
from repro.harness.hotpath import result_hash
from repro.mining import apriori
from repro.mining.candidates import generate_candidates
from repro.mining.hash_table import LINE_HEADER_BYTES
from repro.mining.hpa import HPAConfig, HPARun
from repro.mining.itemsets import ITEMSET_BYTES
from repro.mining.partition import HashPartitioner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.scales import PreparedWorkload

__all__ = [
    "SIMBENCH_NODE_COUNTS",
    "SIMBENCH_LIMIT_FRACTION",
    "PAPER_PROOF_BUDGET_S",
    "run_simbench",
    "run_paper_proof",
    "write_simbench_json",
    "render_simbench",
    "compare_cells",
]

#: Node counts swept by the bench (the paper's cluster is the 100 cell).
SIMBENCH_NODE_COUNTS = (16, 32, 64, 100)

#: Memory-usage limit as a fraction of the busiest node's candidate
#: footprint — the paper's §5.1 limits sit at 78–97 % of it.
SIMBENCH_LIMIT_FRACTION = 0.9

#: The fixed workload every cell runs (node count is the only variable,
#: so the curve isolates kernel scaling, not workload scaling).
SIMBENCH_WORKLOAD = "T10.I4.D16K"
SIMBENCH_N_ITEMS = 600
SIMBENCH_MINSUP = 0.003
SIMBENCH_TOTAL_LINES = 16384
SIMBENCH_SEED = 42

#: Wall budget for the paper-scale pass-2 proof run (seconds).
PAPER_PROOF_BUDGET_S = 600.0


def _busiest_node_bytes(db: TransactionDatabase, n_app_nodes: int) -> int:
    """Pass-2 candidate footprint of the busiest node (bytes)."""
    ref = apriori(db, minsup=SIMBENCH_MINSUP, max_k=1)
    l1 = sorted(ref.large_of_size(1))
    c2 = generate_candidates(l1, 2)
    part = HashPartitioner(SIMBENCH_TOTAL_LINES, n_app_nodes)
    counts = part.partition_counts(c2)
    lines_per_node = SIMBENCH_TOTAL_LINES // n_app_nodes
    return int(counts.max()) * ITEMSET_BYTES + lines_per_node * LINE_HEADER_BYTES


def _cell_config(n_app_nodes: int, limit_bytes: int) -> HPAConfig:
    return HPAConfig(
        minsup=SIMBENCH_MINSUP,
        n_app_nodes=n_app_nodes,
        n_memory_nodes=max(2, n_app_nodes // 8),
        total_lines=SIMBENCH_TOTAL_LINES,
        memory_limit_bytes=limit_bytes,
        pager="remote",
        max_k=2,
        seed=SIMBENCH_SEED,
        kernel="vector",
    )


def _run_cell(db: TransactionDatabase, n_app_nodes: int) -> dict:
    busiest = _busiest_node_bytes(db, n_app_nodes)
    limit = max(1, int(busiest * SIMBENCH_LIMIT_FRACTION))
    run = HPARun(db, _cell_config(n_app_nodes, limit))
    start = time.perf_counter()
    res = run.run()
    wall_s = time.perf_counter() - start
    events = run.env.events_processed
    sim_s = res.total_time_s
    p2 = res.pass_result(2)
    return {
        "n_nodes": n_app_nodes,
        "limit_bytes": limit,
        "busiest_node_bytes": busiest,
        "events": events,
        "wall_s": wall_s,
        "events_per_sec": events / wall_s if wall_s > 0 else float("inf"),
        "sim_time_s": sim_s,
        "wall_per_sim_s": wall_s / sim_s if sim_s > 0 else float("inf"),
        "faults": sum(p2.faults_per_node),
        "count_messages": p2.count_messages,
        "result_hash": result_hash(res),
    }


def run_simbench(
    node_counts: Optional[Sequence[int]] = None,
    baseline: Optional[dict] = None,
) -> dict:
    """Run the sweep; returns the ``BENCH_simkernel.json`` payload.

    ``baseline`` is a previously captured payload (or its ``cells``-
    bearing subset) whose per-node-count numbers are embedded for
    comparison; speedups are computed for overlapping cells.
    """
    counts = tuple(node_counts) if node_counts else SIMBENCH_NODE_COUNTS
    if any(n < 2 for n in counts):
        raise HarnessError(f"simbench needs >= 2 app nodes per cell, got {counts}")
    db = generate(SIMBENCH_WORKLOAD, n_items=SIMBENCH_N_ITEMS, seed=SIMBENCH_SEED)
    cells = [_run_cell(db, n) for n in counts]
    payload: dict = {
        "bench": "simkernel",
        "workload": SIMBENCH_WORKLOAD,
        "n_items": SIMBENCH_N_ITEMS,
        "minsup": SIMBENCH_MINSUP,
        "total_lines": SIMBENCH_TOTAL_LINES,
        "limit_fraction": SIMBENCH_LIMIT_FRACTION,
        "pager": "remote",
        "kernel": "vector",
        "seed": SIMBENCH_SEED,
        "cells": cells,
    }
    if baseline is not None:
        base_cells = {c["n_nodes"]: c for c in baseline.get("cells", [])}
        payload["baseline"] = {
            "cells": [base_cells[n] for n in counts if n in base_cells],
        }
        payload["speedup_events_per_sec"] = {
            str(c["n_nodes"]): c["events_per_sec"]
            / base_cells[c["n_nodes"]]["events_per_sec"]
            for c in cells
            if c["n_nodes"] in base_cells
        }
        payload["equivalent"] = all(
            c["result_hash"] == base_cells[c["n_nodes"]]["result_hash"]
            for c in cells
            if c["n_nodes"] in base_cells
        )
    return payload


def _busiest_resident_bytes(prep: "PreparedWorkload") -> int:
    """Actual resident footprint of the busiest node (bytes).

    Hash lines are created lazily, so a node pays :data:`LINE_HEADER_BYTES`
    only for lines that hold at least one candidate.  At sparse scales
    (paper: 102 400 lines for ~90 K candidates) the analytic
    every-line-has-a-header estimate overshoots so far that a 90 % limit
    never triggers paging — this sizing keeps the proof run inside the
    paper's 78–97 % residency regime with the remote store genuinely
    exercised.
    """
    from collections import Counter

    scale = prep.scale
    ref = apriori(prep.db, minsup=scale.minsup, max_k=1)
    l1 = sorted(ref.large_of_size(1))
    c2 = generate_candidates(l1, 2)
    part = HashPartitioner(scale.total_lines, scale.n_app_nodes)
    cand_per_node: Counter[int] = Counter()
    lines_per_node: dict[int, set[int]] = {}
    for itemset in c2:
        line = part.line_of(itemset)
        node = part.node_of_line(line)
        cand_per_node[node] += 1
        lines_per_node.setdefault(node, set()).add(line)
    return max(
        n * ITEMSET_BYTES + len(lines_per_node[node]) * LINE_HEADER_BYTES
        for node, n in cand_per_node.items()
    )


def run_paper_proof() -> dict:
    """Run the full pass-2 HPA proof at the registered ``paper`` scale.

    100 application nodes over the 1 M-transaction T10.I4 workload with
    the remote pager at the bench's 90 % limit — the configuration the
    sim-kernel fast path exists to make tractable.  Returns a payload
    recording wall time against :data:`PAPER_PROOF_BUDGET_S` (workload
    generation is timed separately from the simulated run).
    """
    from repro.harness.scales import prepare_workload

    t0 = time.perf_counter()
    prep = prepare_workload("paper")
    prepare_wall_s = time.perf_counter() - t0
    scale = prep.scale
    busiest = _busiest_resident_bytes(prep)
    limit = max(1, int(busiest * SIMBENCH_LIMIT_FRACTION))
    config = HPAConfig(
        minsup=scale.minsup,
        n_app_nodes=scale.n_app_nodes,
        n_memory_nodes=scale.max_memory_nodes,
        total_lines=scale.total_lines,
        memory_limit_bytes=limit,
        pager="remote",
        max_k=2,
        seed=scale.seed,
        kernel="vector",
    )
    run = HPARun(prep.db, config)
    t0 = time.perf_counter()
    res = run.run()
    wall_s = time.perf_counter() - t0
    events = run.env.events_processed
    p2 = res.pass_result(2)
    return {
        "scale": scale.name,
        "workload": scale.workload,
        "n_items": scale.n_items,
        "minsup": scale.minsup,
        "n_transactions": len(prep.db),
        "n_app_nodes": scale.n_app_nodes,
        "n_memory_nodes": scale.max_memory_nodes,
        "n_candidates_2": prep.n_candidates_2,
        "limit_bytes": limit,
        "busiest_node_bytes": busiest,
        "prepare_wall_s": prepare_wall_s,
        "wall_s": wall_s,
        "budget_s": PAPER_PROOF_BUDGET_S,
        "under_budget": wall_s < PAPER_PROOF_BUDGET_S,
        "events": events,
        "events_per_sec": events / wall_s if wall_s > 0 else float("inf"),
        "sim_time_s": res.total_time_s,
        "faults": sum(p2.faults_per_node),
        "count_messages": p2.count_messages,
        "result_hash": result_hash(res),
    }


def compare_cells(current: dict, reference: dict) -> "list[str]":
    """Hash mismatches between two payloads' overlapping cells.

    Returns human-readable mismatch descriptions (empty = equivalent);
    the CI smoke job fails on any entry.
    """
    ref = {c["n_nodes"]: c for c in reference.get("cells", [])}
    problems = []
    for cell in current.get("cells", []):
        n = cell["n_nodes"]
        if n not in ref:
            continue
        if cell["result_hash"] != ref[n]["result_hash"]:
            problems.append(
                f"{n}-node cell: result_hash {cell['result_hash'][:16]}… "
                f"!= reference {ref[n]['result_hash'][:16]}…"
            )
    return problems


def write_simbench_json(out_dir: "str | pathlib.Path", data: dict) -> pathlib.Path:
    """Write ``BENCH_simkernel.json`` under ``out_dir``; returns the path."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "BENCH_simkernel.json"
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def render_simbench(data: dict) -> str:
    """Human-readable summary of a :func:`run_simbench` payload."""
    lines = [
        f"simkernel bench — {data['workload']} remote pager, "
        f"limit {data['limit_fraction']:.0%} of busiest node",
        f"  {'nodes':>5s} {'events':>10s} {'wall_s':>8s} {'events/s':>10s} "
        f"{'wall/sim_s':>10s} {'faults':>8s}",
    ]
    speedups = data.get("speedup_events_per_sec", {})
    for c in data["cells"]:
        extra = ""
        s = speedups.get(str(c["n_nodes"]))
        if s is not None:
            extra = f"  ({s:.1f}x vs baseline)"
        lines.append(
            f"  {c['n_nodes']:>5d} {c['events']:>10d} {c['wall_s']:>8.2f} "
            f"{c['events_per_sec']:>10.0f} {c['wall_per_sim_s']:>10.2f} "
            f"{c['faults']:>8d}{extra}"
        )
    if "equivalent" in data:
        lines.append(
            "  result hashes vs baseline: "
            + ("MATCH" if data["equivalent"] else "MISMATCH")
        )
    proof = data.get("paper_scale")
    if proof is not None:
        lines.append(
            f"  paper scale ({proof['workload']}, {proof['n_app_nodes']} "
            f"nodes): {proof['wall_s']:.0f}s wall for {proof['events']} "
            f"events — {'UNDER' if proof['under_budget'] else 'OVER'} the "
            f"{proof['budget_s']:.0f}s budget"
        )
    return "\n".join(lines)
