"""The benchmark's three workloads: inputs, timed operation, checks, counters.

Every workload is built from the benchmark seed alone; the program under
test only ever receives the generated inputs.  Each one exposes:

- ``setup(seed)``: data generation plus workload preparation (timed as
  ``setup_s``);
- ``oracle(prep)``: the expected output, computed outside every timed
  region;
- ``run(prep, oracle, tracer=None)``: one timed operation, returning an
  :class:`Op` with its host wall time, the checks it passed or failed and
  the exact work counters read from public state afterwards.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import statistics
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro import datagen
from repro.harness.experiments import ALL_SWEEPS
from repro.harness.hotpath import result_hash
from repro.harness.scales import SCALES, prepare_workload
from repro.harness.sweep import engine
from repro.mining import apriori
from repro.mining.candidates import generate_candidates
from repro.mining.hash_table import LINE_HEADER_BYTES
from repro.mining.hpa import HPAConfig, HPARun
from repro.mining.itemsets import ITEMSET_BYTES
from repro.mining.partition import HashPartitioner
from repro.runtime.driver import MiningDriver
from repro.runtime.scenarios import clear_cache
from repro.runtime.store import ResultStore, result_from_dict, result_store_session
from tracer import Tracer, layer_boundaries

#: Sweep fan-out of ``sweep-fig345-j2``; also what ``host_degraded`` is
#: judged against.
SWEEP_JOBS = 2


@dataclass
class Op:
    """One timed operation and what it produced."""

    wall_s: float
    attempted: int
    failures: "list[str]"
    digest: str
    counts: "dict[str, float]" = field(default_factory=dict)
    extra: "dict[str, Any]" = field(default_factory=dict)


def run_counts(run: Any, res: Any) -> "dict[str, float]":
    """Exact work counters of one finished simulated run (public state)."""
    net = run.cluster.network.stats
    mailboxes = list(run.cluster.transport.stats().values())
    pagers = run.runtime.pager_chains()
    return {
        "sim.events": run.env.events_processed,
        "sim.sim_time_s": res.total_time_s,
        "cluster.messages": net.messages,
        "cluster.wire_bytes": net.wire_bytes,
        "cluster.retransmissions": net.retransmissions,
        "cluster.mailbox_peak_depth": max((m["peak_depth"] for m in mailboxes), default=0),
        "cluster.blocked_puts": sum(m["blocked_puts"] for m in mailboxes),
        "cluster.disk_ios": sum(
            n.data_disk.stats.total_ios() + n.swap_disk.stats.total_ios()
            for n in run.cluster
        ),
        "core.inserts": sum(m.stats.inserts for m in run.managers.values()),
        "core.faults": sum(p.stats.faults for p in pagers),
        "core.swap_outs": sum(p.stats.swap_outs for p in pagers),
        "core.update_msgs": sum(p.stats.update_messages for p in pagers),
        "core.migrations": sum(p.stats.migrations for p in pagers),
        "core.placement_rejections": sum(p.stats.placement_rejections for p in pagers),
        "core.fault_sim_s": sum(p.stats.fault_time_s for p in pagers),
        "mining.candidates": sum(p.n_candidates for p in res.passes if p.k >= 2),
        "mining.large": len(res.large_itemsets),
    }


def add_counts(total: "dict[str, float]", more: "dict[str, float]") -> None:
    for key, value in more.items():
        if key == "cluster.mailbox_peak_depth":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


@contextmanager
def collect_run_counts(sink: "list[dict]") -> Iterator[None]:
    """Append :func:`run_counts` of every driver run finished inside."""
    original = MiningDriver.__dict__["run"]

    def run(self: Any) -> Any:
        res = original(self)
        sink.append(run_counts(self, res))
        return res

    MiningDriver.run = run
    try:
        yield
    finally:
        MiningDriver.run = original


# ---------------------------------------------------------------------------
# Single simulated runs: fanin100-swap, mine8-allpass
# ---------------------------------------------------------------------------


@dataclass
class SimPrep:
    db: Any
    config: Any


class SimRunWorkload:
    """One HPA run per operation, checked against sequential Apriori."""

    kind = "run"
    ops_per_call = 1
    #: Fewest timed runs per benchmark run, whatever ``--seconds`` says.
    min_reps = 3

    def __init__(self, name: str, make_config: Callable[[Any, int], Any],
                 workload: str, n_items: int) -> None:
        self.name = name
        self.make_config = make_config
        self.workload = workload
        self.n_items = n_items

    def setup(self, seed: int) -> SimPrep:
        db = datagen.generate(self.workload, n_items=self.n_items, seed=seed)
        return SimPrep(db, self.make_config(db, seed))

    def oracle(self, prep: SimPrep) -> Any:
        cfg = prep.config
        return apriori(prep.db, minsup=cfg.minsup, max_k=cfg.max_k).large_itemsets

    def run(self, prep: SimPrep, oracle: Any, tracer: Optional[Tracer] = None) -> Op:
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.patched(layer_boundaries()))
            t0 = time.perf_counter()
            run = HPARun(prep.db, prep.config)
            res = run.run()
            wall = time.perf_counter() - t0
        failures = []
        if res.large_itemsets != oracle:
            failures.append("mined itemsets differ from sequential apriori")
        return Op(wall, 1, failures, result_hash(res), run_counts(run, res))


def _fanin_config(db: Any, seed: int) -> Any:
    """HPA pass 2, remote swap, limit at 90 % of the busiest node's
    candidate footprint (the paper's 78-97 % residency regime)."""
    minsup, nodes, lines = 0.003, 100, 16384
    l1 = sorted(apriori(db, minsup=minsup, max_k=1).large_of_size(1))
    counts = HashPartitioner(lines, nodes).partition_counts(generate_candidates(l1, 2))
    busiest = int(counts.max()) * ITEMSET_BYTES + (lines // nodes) * LINE_HEADER_BYTES
    return HPAConfig(
        minsup=minsup, n_app_nodes=nodes, n_memory_nodes=nodes // 8,
        total_lines=lines, memory_limit_bytes=max(1, int(busiest * 0.9)),
        pager="remote", max_k=2, seed=seed, kernel="vector",
    )


def _mine8_config(db: Any, seed: int) -> Any:
    """The ``full`` scale's layout, no pager, every pass to termination."""
    s = SCALES["full"]
    return HPAConfig(
        minsup=s.minsup, n_app_nodes=s.n_app_nodes, total_lines=s.total_lines,
        max_k=0, seed=seed, kernel="vector",
    )


# ---------------------------------------------------------------------------
# The figure sweep: sweep-fig345-j2
# ---------------------------------------------------------------------------

SWEEP_NAMES = ("fig3", "fig4", "fig5")
SWEEP_SCALE = "tiny"


@dataclass
class SweepPrep:
    seed: int
    db: Any
    minsup: float
    sweeps: "dict[str, Any]"
    cold_reports: Optional[str] = None


class SweepWorkload:
    """fig3+fig4+fig5 at ``tiny`` scale from an empty result store."""

    kind = "sweep"
    #: Grid cells per pass at ``tiny`` scale; an exception fails all of them.
    ops_per_call = 39
    name = "sweep-fig345-j2"
    min_reps = 2

    def __init__(self, work: Path) -> None:
        self.work = work
        self._stores = 0
        #: The most recent cold pass: (its input, its store directory).
        self._last: "Optional[tuple[SweepPrep, Path]]" = None

    def setup(self, seed: int) -> SweepPrep:
        prepare_workload.cache_clear()
        prep = prepare_workload(SWEEP_SCALE, seed)
        prepare_workload(SWEEP_SCALE)  # the reports read the default-seed geometry
        sweeps = {n: ALL_SWEEPS[n] for n in SWEEP_NAMES}
        for sweep in sweeps.values():
            sweep.scenarios(SWEEP_SCALE, seed)
        return SweepPrep(seed, prep.db, prep.scale.minsup, sweeps)

    def oracle(self, prep: SweepPrep) -> Any:
        return apriori(prep.db, minsup=prep.minsup, max_k=2).large_itemsets

    def _fresh_store(self) -> Path:
        self._stores += 1
        path = self.work / f"store-{self._stores}"
        if path.exists():
            shutil.rmtree(path)
        return path

    def _pass(self, prep: SweepPrep, store_path: Path, jobs: int,
              tracer: Optional[Tracer] = None) -> "tuple[float, list, Any]":
        """One pass over the three sweeps; returns (wall, outcomes, store)."""
        clear_cache()
        engine.shutdown_pools()
        sweeps = prep.sweeps
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.patched(layer_boundaries()))
                sweeps = {
                    n: dataclasses.replace(
                        s, report=tracer.wrap(f"harness:{n}.report", s.report))
                    for n, s in sweeps.items()
                }
            store = ResultStore(store_path)
            t0 = time.perf_counter()
            with result_store_session(store):
                outcomes = [
                    engine.run_sweep_outcome(s, SWEEP_SCALE, jobs=jobs, seed=prep.seed)
                    for s in sweeps.values()
                ]
            wall = time.perf_counter() - t0
        engine.shutdown_pools()
        return wall, outcomes, store

    def _check(self, prep: SweepPrep, oracle: Any, outcomes: list, store: Any,
               failures: "list[str]") -> str:
        """Check every stored cell against the oracle; returns the reports."""
        for key in store.keys():
            payload = store.read_payload(key)
            if payload is None:
                failures.append(f"store entry {key[:12]} unreadable")
                continue
            if result_from_dict(payload["result"]).large_itemsets != oracle:
                failures.append(f"cell {key[:12]}: itemsets differ from apriori")
        return report_bytes(outcomes)

    def run(self, prep: SweepPrep, oracle: Any, tracer: Optional[Tracer] = None,
            jobs: int = SWEEP_JOBS) -> Op:
        """One cold pass: empty store to the three rendered reports."""
        path = self._fresh_store()
        wall, outcomes, store = self._pass(prep, path, jobs, tracer)
        failures: "list[str]" = []
        reports = self._check(prep, oracle, outcomes, store, failures)
        records = [r for o in outcomes for r in o.records]
        if prep.cold_reports is None:
            prep.cold_reports = reports
        elif reports != prep.cold_reports:
            failures.append("cold reports differ between passes")
        if self._last is not None:
            shutil.rmtree(self._last[1], ignore_errors=True)
        self._last = (prep, path)
        executed = [r.wall_s for r in records if r.source != "cached"]
        return Op(
            wall, len(records), failures, hashlib.sha256(reports.encode()).hexdigest(),
            extra={
                "jobs": jobs,
                "cells": len(records),
                "cell_walls": executed,
                "store": store.stats(),
                "store_entries": len(store.keys()),
            },
        )

    def warm(self, tracer: Optional[Tracer] = None) -> Op:
        """Re-render the last cold pass from its store: nothing may execute."""
        assert self._last is not None
        prep, path = self._last
        wall, outcomes, store = self._pass(prep, path, SWEEP_JOBS, tracer)
        failures: "list[str]" = []
        records = [r for o in outcomes for r in o.records]
        executed = sum(1 for r in records if r.source != "cached")
        if executed:
            failures.append(f"warm pass executed {executed} cells")
        reports = report_bytes(outcomes)
        if reports != prep.cold_reports:
            failures.append("warm reports differ from the cold reports")
        return Op(wall, len(records), failures,
                  hashlib.sha256(reports.encode()).hexdigest(),
                  extra={"store": store.stats()})

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def report_bytes(outcomes: list) -> str:
    """The three rendered reports (``ExperimentReport.to_json``) as one string."""
    return "\n".join(o.report.to_json() for o in outcomes)


def median(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0


def make_workloads(work: Path) -> "dict[str, Any]":
    """The workloads by name; the sweep keeps its stores under ``work``."""
    return {w.name: w for w in (
        SimRunWorkload("fanin100-swap", _fanin_config, "T10.I4.D8K", 600),
        SimRunWorkload("mine8-allpass", _mine8_config, "T10.I4.D4K", 600),
        SweepWorkload(work),
    )}
