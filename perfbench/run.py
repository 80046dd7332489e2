"""The repository benchmark: end-to-end and per-layer host cost of ``repro``.

Run from the repository root::

    python3 perfbench/run.py                       # all three workloads
    python3 perfbench/run.py --workload fanin100-swap --seed 7 --seconds 40
    python3 perfbench/run.py --workload mine8-allpass --trace 1

``--trace 0`` (default) measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` is a separate run that also wraps every layer's
public entry points and reports per-layer self times and exact work
counters.  Human-readable lines come first; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  The full record — metrics, checks, host metadata and, for
traced runs, the span aggregates — is written under ``.perfbench/``.
See ``perfbench/README.md`` for the workloads and the metric glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
COUNTS_FILE = HERE / "counts.json"

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics and units.  Every traced run reports all of them; a
#: metric of a layer the workload does not exercise reads 0.
PER_LAYER = {
    "sim.self_s": "s", "sim.events": "count", "sim.events_per_msg": "ratio",
    "sim.us_per_event": "us", "sim.sim_time_s": "s",
    "cluster.self_s": "s", "cluster.messages": "count", "cluster.wire_bytes": "B",
    "cluster.retransmissions": "count", "cluster.mailbox_peak_depth": "count",
    "cluster.blocked_puts": "count", "cluster.disk_ios": "count",
    "core.self_s": "s", "core.insert_s": "s", "core.inserts": "count",
    "core.count_s": "s", "core.count_calls": "count", "core.faults": "count",
    "core.swap_outs": "count", "core.update_msgs": "count",
    "core.migrations": "count", "core.placement_rejections": "count",
    "core.fault_sim_s": "s", "core.refetch_ratio": "ratio",
    "mining.self_s": "s", "mining.candgen_s": "s", "mining.kernel_s": "s",
    "mining.candidates": "count", "mining.large": "count",
    "runtime.build_s": "s", "runtime.store_hits": "count",
    "runtime.store_misses": "count", "runtime.store_entries": "count",
    "runtime.store_get_s": "s",
    "harness.cells": "count", "harness.cells_executed": "count",
    "harness.cell_wall_p50_s": "s", "harness.cell_wall_max_s": "s",
    "harness.parallel_eff": "ratio", "harness.report_s": "s", "harness.warm_s": "s",
    "datagen.generate_s": "s", "datagen.transactions": "count",
    "trace.overhead": "ratio", "trace.unattributed_s": "s",
}

#: Counters that must repeat exactly; a change is reported as a delta.
KEY_COUNTS = ("sim.events", "cluster.messages", "core.faults", "sim.sim_time_s")

COUNT_BOUNDARIES = (".count_itemset", ".count_resident_bulk",
                    ".count_resident_batch", ".count_span_codes")
KERNEL_CLASSES = ("CountingKernel.", "OwnerStreams.", "PrefixIndex.")


def _bootstrap() -> None:
    """Make ``repro`` importable here and in spawned sweep workers, and
    keep every temporary file inside the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def _commit() -> str:
    """HEAD's commit, read from ``.git`` rather than asked of ``git``: a
    child process would count towards ``peak_rss_mb`` (a forked child
    starts with this process's resident set).  An exported tree has no
    ``.git`` and reports ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_meta(seed: int) -> dict:
    import numpy

    from workloads import SWEEP_JOBS

    cpus = len(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(), "cpus_available": cpus,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "loadavg_before": list(os.getloadavg()), "commit": _commit(), "seed": seed,
        "sweep_jobs": SWEEP_JOBS, "host_degraded": cpus < SWEEP_JOBS,
    }


def reset_peak_rss() -> None:
    """Restart this process's peak resident set (Linux ``clear_refs``), so
    the next :func:`peak_rss_mb` covers only what follows.  Where that is
    not allowed the reading stays the process's lifetime peak."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS of this process since :func:`reset_peak_rss`, plus that of
    its largest finished child.

    Linux charges a child with the resident set it was spawned from, so a
    sweep worker's figure is at least this process's RSS at its spawn."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    own_kb = int(line.split()[1])
    except OSError:
        pass
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + child_kb) / 1024.0


class Ledger:
    """Attempted operations, failures and checks of one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: "list[str]" = []
        #: Result digest per input: every operation on one input must
        #: reproduce it exactly (reps, traced against untraced, warm
        #: against cold).
        self.digests: "dict[int, str]" = {}

    def op(self, fn, *args, key: int = 0, attempted: int = 1, **kwargs):
        """Run one operation; an exception counts it failed and returns None.

        Garbage left by the previous operation is collected first, so no
        operation pays for its predecessor's cycles."""
        gc.collect()
        try:
            op = fn(*args, **kwargs)
        except Exception:  # the benchmark must report a broken program, not die
            traceback.print_exc(file=sys.stderr)
            self.attempted += attempted
            self.failures.append(f"{getattr(fn, '__name__', fn)} raised")
            return None
        self.attempted += op.attempted
        self.failures += op.failures
        if self.digests.setdefault(key, op.digest) != op.digest:
            self.failures.append(f"input {key}: result digest differs between operations")
        return op

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def input_seed(seed: int, i: int) -> int:
    """Seed of the run's ``i``-th input; input 0 is ``--seed`` itself."""
    return seed + i * 1_000_003


def measure(wl, seed: int, seconds: float) -> "tuple[Ledger, dict, dict]":
    """The untraced run: end-to-end metrics only.

    Inputs are generated one after another from the seed.  Each is set up
    (timed), its oracle computed, and the operation run on it once
    (timed).  Another input is started only while it can be expected to
    finish within ``seconds`` of the first set-up, judged by the inputs
    done so far, so the run lasts about ``seconds`` however fast the host
    is, and its means span as many databases as fit in it rather than
    resting on one draw of the generator.

    The host-speed probe runs before the first set-up and after every
    set-up and every operation, and the run's times are reported at
    reference host speed (:mod:`hostspeed`); the raw times and the probe
    readings are kept in the result file.  The peak resident set is
    restarted before each operation and read after it."""
    from statistics import fmean

    from hostspeed import probe, scale
    from workloads import median

    ledger = Ledger()
    setup_walls: "list[float]" = []
    walls: "list[float]" = []
    rss: "list[float]" = []
    readings = [probe()]
    t_start = time.perf_counter()
    while True:
        i = len(walls)
        gc.collect()
        t0 = time.perf_counter()
        prep = wl.setup(input_seed(seed, i))
        setup_walls.append(time.perf_counter() - t0)
        readings.append(probe())
        oracle = wl.oracle(prep)
        if i == 0 and wl.kind == "run":
            ledger.op(wl.run, prep, oracle)  # warm-up: checked, not timed
        reset_peak_rss()
        op = ledger.op(wl.run, prep, oracle, key=i, attempted=wl.ops_per_call)
        if op is None:
            break
        rss.append(peak_rss_mb())
        readings.append(probe())
        walls.append(op.wall_s)
        elapsed = time.perf_counter() - t_start
        if len(walls) >= wl.min_reps and elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    info: dict = {"setup_wall_s": setup_walls, "run_wall_s": walls,
                  "probe_s": readings, "peak_rss_mb": rss}
    if wl.kind == "sweep":
        warm = ledger.op(wl.warm, key=len(walls) - 1, attempted=wl.ops_per_call)
        info["warm_s"] = warm.wall_s if warm else None
        wl.cleanup()
    speed = scale(readings)
    metrics = {
        "setup_s": fmean(setup_walls) * speed,
        "run_s": fmean(walls) * speed if walls else 0.0,
        "peak_rss_mb": median(rss),
    }
    info["raw"] = {"setup_s": fmean(setup_walls),
                   "run_wall_s": fmean(walls) if walls else 0.0, "scale": speed}
    return ledger, metrics, info


def _layer_metrics(ledger: Ledger, tr, wall: float) -> dict:
    """Per-layer numbers of one traced operation; checks that the layers'
    self times fit inside its wall time."""
    layers = tr.layer_self_s()
    ledger.require(sum(layers.values()) <= wall, "layer self times exceed the traced wall")
    count = [tr.boundary(s) for s in COUNT_BOUNDARIES]
    kernel = [st for name, st in tr.stats.items()
              if any(c in name for c in KERNEL_CLASSES)]
    return {
        "sim.self_s": layers.get("sim", 0.0),
        "cluster.self_s": layers.get("cluster", 0.0),
        "core.self_s": layers.get("core", 0.0),
        "core.insert_s": tr.boundary(".insert_candidate").total_s,
        "core.count_s": sum(st.total_s for st in count),
        "core.count_calls": sum(st.calls for st in count),
        "mining.self_s": layers.get("mining", 0.0),
        "mining.candgen_s": tr.boundary(".generate_candidates").total_s,
        "mining.kernel_s": sum(st.total_s for st in kernel),
        "runtime.build_s": tr.boundary(".build_runtime").total_s,
        "harness.report_s": tr.boundary(".report").total_s,
        "trace.unattributed_s": wall - sum(layers.values()),
    }


def _derived(m: dict) -> None:
    def ratio(a: str, b: str) -> float:
        return m[a] / m[b] if m[b] else 0.0

    m["sim.events_per_msg"] = ratio("sim.events", "cluster.messages")
    m["core.refetch_ratio"] = ratio("core.faults", "core.swap_outs")


def measure_traced(wl, seed: int, seconds: float) -> "tuple[Ledger, dict, dict]":
    """The traced run, on input 0 (``--seed`` itself): per-layer self
    times from traced operations, exact counters from untraced ones."""
    from tracer import Tracer, layer_boundaries
    from workloads import add_counts, collect_run_counts, median

    ledger = Ledger()
    setup_tr = Tracer()
    with setup_tr.patched(layer_boundaries()):
        prep = wl.setup(seed)
    oracle = wl.oracle(prep)
    m = {name: 0 for name in PER_LAYER}
    m["datagen.generate_s"] = setup_tr.boundary(".generate").total_s
    m["datagen.transactions"] = len(prep.db)
    dumps: dict = {"setup": setup_tr.dump()}

    if wl.kind == "run":
        ledger.op(wl.run, prep, oracle)  # warm-up
        # Untraced and traced runs alternate, so each pair shares the host's
        # speed of the moment and the overhead is not a ratio of two moments.
        untraced, traced, t_start = [], [], time.perf_counter()
        while not traced or time.perf_counter() - t_start < seconds:
            base = ledger.op(wl.run, prep, oracle)
            if base is None:
                break
            if not untraced:
                m.update(base.counts)
            untraced.append(base.wall_s)
            tr = Tracer()
            tr.calibrate()
            op = ledger.op(wl.run, prep, oracle, tr)
            if op is None:
                break
            lm = _layer_metrics(ledger, tr, op.wall_s)
            ledger.require(op.counts == base.counts, "traced counters differ")
            traced.append((op.wall_s, lm))
            dumps.setdefault("runs", []).append(tr.dump())
        if not untraced:
            return ledger, m, dumps
        untraced_work = median(untraced)
        dumps["untraced_wall_s"] = untraced
    else:
        base = ledger.op(wl.run, prep, oracle, attempted=wl.ops_per_call)
        if base is None:
            return ledger, m, dumps
        walls = base.extra["cell_walls"]
        store = base.extra["store"]
        m.update({
            "harness.cells": base.extra["cells"],
            "harness.cells_executed": len(walls),
            "harness.cell_wall_p50_s": median(walls),
            "harness.cell_wall_max_s": max(walls, default=0.0),
            "harness.parallel_eff": sum(walls) / (base.extra["jobs"] * base.wall_s),
            "runtime.store_hits": store["hits"],
            "runtime.store_misses": store["misses"],
            "runtime.store_entries": base.extra["store_entries"],
        })
        warm = ledger.op(wl.warm, attempted=wl.ops_per_call)
        m["harness.warm_s"] = warm.wall_s if warm else 0.0
        get_tr = Tracer(sampled=frozenset({"runtime:ResultStore.get"}))
        ledger.op(wl.warm, get_tr, attempted=wl.ops_per_call)
        gets = get_tr.stats.get("runtime:ResultStore.get")
        m["runtime.store_get_s"] = median(gets.samples) if gets else 0.0
        untraced_work = sum(walls)
        tr, sink = Tracer(), []
        tr.calibrate()
        with collect_run_counts(sink):
            op = ledger.op(wl.run, prep, oracle, tr, jobs=1, attempted=wl.ops_per_call)
        traced = []
        if op is not None:
            lm = _layer_metrics(ledger, tr, op.wall_s)
            traced.append((op.wall_s, lm))
            dumps["runs"] = [tr.dump()]
            counts: dict = {}
            for c in sink:
                add_counts(counts, c)
            m.update(counts)
        wl.cleanup()

    if traced:
        for key in traced[0][1]:
            m[key] = median([lm[key] for _, lm in traced])
        traced_wall = median([w for w, _ in traced])
        m["trace.overhead"] = traced_wall / untraced_work - 1.0
        dumps["traced_wall_s"] = [w for w, _ in traced]
        dumps["untraced_work_s"] = untraced_work
    if m["sim.events"]:
        m["sim.us_per_event"] = untraced_work / m["sim.events"] * 1e6
    _derived(m)
    return ledger, m, dumps


def count_deltas(workload: str, seed: int, m: dict) -> "list[str]":
    """Exact counters against the recorded reference, as count deltas."""
    if not COUNTS_FILE.is_file():
        return []
    ref = json.loads(COUNTS_FILE.read_text()).get(workload, {})
    if ref.get("seed") != seed:
        return []
    lines = []
    for key in KEY_COUNTS:
        if key in ref["counts"]:
            delta = m[key] - ref["counts"][key]
            lines.append(f"  {key}: {m[key]:g} (reference {ref['counts'][key]:g}, "
                         f"delta {delta:+g})")
    return lines


def run_one(name: str, seed: int, seconds: float, trace: bool,
            record_counts: bool = False) -> dict:
    from workloads import make_workloads

    work = WORK / "work" / f"{os.getpid()}-{name}"
    wl = make_workloads(work)[name]
    meta = host_meta(seed)
    if meta["host_degraded"]:
        print(f"[{name}] warning: {meta['cpus_available']} CPU(s) available for "
              f"{meta['sweep_jobs']} sweep workers; the sweep measures contention")
    t0 = time.perf_counter()
    if trace:
        ledger, metrics, detail = measure_traced(wl, seed, seconds)
        units = PER_LAYER
    else:
        ledger, metrics, detail = measure(wl, seed, seconds)
        units = END_TO_END
    meta["loadavg_after"] = list(os.getloadavg())
    meta["elapsed_s"] = time.perf_counter() - t0
    failed = len(ledger.failures)
    record = {
        "workload": name, "trace": int(trace), "meta": meta,
        "correct": failed == 0, "attempted": max(1, ledger.attempted),
        "failed": failed, "failures": ledger.failures,
        "fail_frac": failed / max(1, ledger.attempted), "digests": ledger.digests,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "detail": detail,
    }
    out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"[{name}] seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{meta['elapsed_s']:.1f}s, commit {meta['commit'][:12]}, "
          f"load {meta['loadavg_before'][0]:.2f}->{meta['loadavg_after'][0]:.2f}")
    if not trace:
        n = len(detail["run_wall_s"])
        raw = detail["raw"]
        print(f"  setup_s      {metrics['setup_s']:.4f} s   (mean of {len(detail['setup_wall_s'])}, "
              f"reference speed; raw {raw['setup_s']:.4f} s)")
        label = "sweep_cold_s" if wl.kind == "sweep" else "run_wall_s  "
        print(f"  run_s        {metrics['run_s']:.4f} s   (mean of {n}, reference speed)")
        print(f"  {label} {raw['run_wall_s']:.4f} s   (mean of {n}, raw host wall)")
        if wl.kind == "sweep" and detail.get("warm_s") is not None:
            print(f"  sweep_warm_s {detail['warm_s']:.4f} s")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB   (median of {n})")
    else:
        for k, u in PER_LAYER.items():
            print(f"  {k:28s} {metrics[k]:.6g} {u}")
        deltas = count_deltas(name, seed, metrics)
        if deltas:
            print("  exact counters vs perfbench/counts.json:")
            print("\n".join(deltas))
        if record_counts:
            data = json.loads(COUNTS_FILE.read_text()) if COUNTS_FILE.is_file() else {}
            data[name] = {"seed": seed, "counts": {
                k: metrics[k] for k, u in PER_LAYER.items()
                if u == "count" or k == "sim.sim_time_s"}}
            COUNTS_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"  fail_frac    {record['fail_frac']:.4f} ratio ({failed} of {record['attempted']} failed)"
          + ("" if not ledger.failures else f": {ledger.failures[:3]}"))
    return record


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "fanin100-swap", "mine8-allpass",
                                 "sweep-fig345-j2"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-counts", action="store_true",
                        help="with --trace 1: store the exact counters as the "
                        "reference that later runs report deltas against")
    args = parser.parse_args(argv)
    _bootstrap()
    from repro.harness.sweep.engine import shutdown_pools

    names = (["fanin100-swap", "mine8-allpass", "sweep-fig345-j2"]
             if args.workload == "all" else [args.workload])
    try:
        records = [run_one(n, args.seed, args.seconds, bool(args.trace),
                           args.record_counts) for n in names]
    finally:
        shutdown_pools()
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}:{k}": v
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
