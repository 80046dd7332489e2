"""``repro-bench`` command-line entry point.

Usage::

    repro-bench fig4                 # one experiment at the small scale
    repro-bench all --scale full     # every experiment, paper-like layout
    repro-bench all --jobs 4         # fan scenario runs out to 4 workers
    repro-bench all --resume         # reuse results persisted in .repro-store
    repro-bench --worker --store DIR # drain the store's work queue (N hosts)
    repro-bench --store-gc --store DIR   # compact entries + queue state
    repro-bench --serve --store DIR      # read-only HTTP over the store
    repro-bench --list

Each experiment prints the same rows/series the paper's table or figure
reports, at the selected workload scale.  ``--jobs``/``--resume`` only
change *how* scenarios are executed (worker processes leasing cells
from the store's work queue, the persistent result store) — the printed
reports are byte-identical either way.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.scales import SCALES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the tables and figures of the IPPS 2000 "
        "remote-memory data-mining paper on the simulated cluster.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help=f"experiment id: {', '.join(ALL_EXPERIMENTS)} or 'all'",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="workload scale (default: small)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the named run scenarios in the runtime catalogue",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write <DIR>/<experiment>.json with the raw data",
    )
    parser.add_argument(
        "--hotpath-json",
        metavar="DIR",
        default=None,
        help="run the counting-kernel hot-path benchmark at --scale and "
        "write <DIR>/BENCH_hotpath.json; exits non-zero if the kernel "
        "and naive runs disagree",
    )
    parser.add_argument(
        "--race",
        action="store_true",
        help="run the schedule-race sanitizer over the golden suite and "
        "the dynamic scenarios (same as the repro-race tool); exits "
        "non-zero on unaudited same-epoch conflicts",
    )
    parser.add_argument(
        "--simkernel-json",
        metavar="DIR",
        default=None,
        help="run the sim-kernel throughput benchmark (events/sec and "
        "wall per simulated second across node counts) and write "
        "<DIR>/BENCH_simkernel.json; compares result hashes against the "
        "committed artifact's cells when present",
    )
    parser.add_argument(
        "--simkernel-nodes",
        metavar="N[,N...]",
        default=None,
        help="restrict --simkernel-json to these node counts "
        "(e.g. 16,32 for the CI smoke job)",
    )
    parser.add_argument(
        "--simkernel-paper",
        action="store_true",
        help="with --simkernel-json, also run the paper-scale (100-node, "
        "1M-transaction) pass-2 proof and embed it in the artifact; "
        "exits non-zero if it misses the 10-minute budget",
    )
    parser.add_argument(
        "--simkernel-baseline",
        metavar="FILE",
        default=None,
        help="baseline BENCH_simkernel.json to embed and compare against "
        "(default: the committed benchmarks/BENCH_simkernel.json when "
        "it exists)",
    )
    parser.add_argument(
        "--profile",
        metavar="SCENARIO",
        default=None,
        help="run the named scenario under cProfile and print the "
        "top-N cumulative hot spots as sorted JSON "
        "(see --list-scenarios for names)",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="number of hot spots --profile prints (default: 25)",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="collect full telemetry (events, metrics, Chrome trace, "
        "manifest) for every run into <DIR>; summarize with repro-trace",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="execute scenario grids with N worker processes "
        "(default: 1, in-process); reports are byte-identical either way",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist every scenario result in a content-addressed store "
        "at <DIR> and reuse whatever is already there",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse results persisted by a previous invocation; shorthand "
        "for --store .repro-store when --store is not given",
    )
    parser.add_argument(
        "--sweep-json",
        metavar="FILE",
        default=None,
        help="write per-experiment wall-clock and cache accounting "
        "(the BENCH_sweep.json row format) to <FILE>",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the scale's workload seed (an independent "
        "replication of the synthetic database; the multi-seed axis "
        "repro-report aggregates over)",
    )
    parser.add_argument(
        "--store-stats",
        action="store_true",
        help="print the result store's hit/miss/write counters and "
        "per-entry sizes as JSON on stdout (requires --store/--resume; "
        "with no experiment, just inspects the store)",
    )
    parser.add_argument(
        "--external-workers",
        action="store_true",
        help="with --jobs N: don't spawn local worker processes; rely "
        "on repro-bench --worker processes attached to the same store "
        "(the scheduler still drains whatever they don't lease)",
    )
    worker = parser.add_argument_group(
        "worker mode", "drain the store's lease-based work queue "
        "(run N of these against one shared --store, local or remote)"
    )
    worker.add_argument(
        "--worker",
        action="store_true",
        help="run as a sweep worker: lease cells from the store's work "
        "queue, execute, persist, release — until the queue stays idle",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="worker identity recorded on leases and completion "
        "records (default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        metavar="S",
        help="lease duration in seconds; a live worker renews, so only "
        "a crashed worker's lease ever expires (default: 30)",
    )
    worker.add_argument(
        "--idle-exit",
        type=float,
        default=10.0,
        metavar="S",
        help="exit after S seconds without leasing anything "
        "(default: 10; raise above --lease-ttl so a surviving worker "
        "outlives and reclaims a crashed peer's lease)",
    )
    worker.add_argument(
        "--drain",
        action="store_true",
        help="exit as soon as the queue is completely empty instead of "
        "lingering --idle-exit seconds for late-arriving work",
    )
    parser.add_argument(
        "--store-gc",
        action="store_true",
        help="garbage-collect the result store: drop orphaned temp "
        "files, old-format entries, stale leases, and completed queue "
        "records; prints the JSON summary (requires --store/--resume)",
    )
    parser.add_argument(
        "--gc-tmp-age",
        type=float,
        default=3600.0,
        metavar="S",
        help="with --store-gc: only remove temp files older than S "
        "seconds (default: 3600 — younger ones may belong to a live "
        "writer)",
    )
    serve = parser.add_argument_group(
        "serve mode", "read-only HTTP over a warm store (never executes)"
    )
    serve.add_argument(
        "--serve",
        action="store_true",
        help="answer scenario-key and sweep-report queries from the "
        "store as JSON over HTTP (requires --store/--resume)",
    )
    serve.add_argument(
        "--serve-host",
        default="127.0.0.1",
        metavar="HOST",
        help="bind address for --serve (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        metavar="N",
        help="port for --serve (default: 8321; 0 picks a free port)",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    store_dir = args.store
    if args.resume and store_dir is None:
        store_dir = ".repro-store"
    if args.worker or args.store_gc or args.serve:
        if store_dir is None:
            mode = "--worker" if args.worker else (
                "--store-gc" if args.store_gc else "--serve"
            )
            print(
                f"repro-bench: {mode} needs a store (--store/--resume)",
                file=sys.stderr,
            )
            return 2
    if args.worker:
        import json

        from repro.harness.sweep.queue import default_worker_id
        from repro.harness.sweep.worker import WorkerOptions, worker_loop
        from repro.runtime import ResultStore

        options = WorkerOptions(
            worker_id=args.worker_id or default_worker_id(),
            lease_ttl_s=args.lease_ttl,
            idle_exit_s=args.idle_exit,
            exit_when_empty=args.drain,
        )
        stats = worker_loop(ResultStore(store_dir), options)
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    if args.store_gc:
        import json

        from repro.harness.sweep.queue import store_gc
        from repro.runtime import ResultStore

        summary = store_gc(ResultStore(store_dir), tmp_age_s=args.gc_tmp_age)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if args.serve:
        from repro.harness.sweep.serve import serve_store
        from repro.runtime import ResultStore

        return serve_store(
            ResultStore(store_dir), host=args.serve_host, port=args.port
        )
    if args.list_scenarios:
        from repro.runtime import list_scenarios

        print("named scenarios:")
        print(
            f"  {'name':20s} {'drv':4s} {'placement':15s} {'repl':7s} "
            f"{'churn':10s} description"
        )
        for s in list_scenarios():
            churn = s.churn.partition(":")[0]
            if s.failures:
                churn = f"{churn}+fail" if churn != "none" else "fail"
            print(
                f"  {s.name:20s} {s.driver:4s} {s.placement:15s} "
                f"{s.replacement:7s} {churn:10s} {s.description}"
            )
        return 0
    if args.profile is not None:
        import json

        from repro.harness.profile import profile_scenario, render_profile

        data = profile_scenario(args.profile, top_n=args.profile_top, seed=args.seed)
        print(render_profile(data), file=sys.stderr)
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    if args.simkernel_json is not None:
        import json
        import pathlib

        from repro.harness.simbench import (
            render_simbench,
            run_simbench,
            write_simbench_json,
        )

        node_counts = None
        if args.simkernel_nodes:
            node_counts = [int(n) for n in args.simkernel_nodes.split(",")]
        baseline_path = args.simkernel_baseline
        if baseline_path is None:
            committed = pathlib.Path(__file__).resolve().parents[3] / (
                "benchmarks/BENCH_simkernel.json"
            )
            if committed.exists():
                baseline_path = str(committed)
        baseline = None
        if baseline_path is not None:
            raw = json.loads(pathlib.Path(baseline_path).read_text())
            # The reference's own cells (not any baseline section it
            # embeds) are what a fresh run must reproduce.
            baseline = raw
        data = run_simbench(node_counts, baseline=baseline)
        if args.simkernel_paper:
            from repro.harness.simbench import run_paper_proof

            data["paper_scale"] = run_paper_proof()
        path = write_simbench_json(args.simkernel_json, data)
        print(render_simbench(data))
        print(f"[simkernel bench written to {path}]")
        if data.get("equivalent") is False:
            print(
                "simkernel bench: result hashes diverged from the baseline",
                file=sys.stderr,
            )
            return 1
        if data.get("paper_scale", {}).get("under_budget") is False:
            print(
                "simkernel bench: paper-scale proof missed the wall budget",
                file=sys.stderr,
            )
            return 1
        if args.experiment is None:
            return 0
    if args.race:
        from repro.analysis.race.cli import main as race_main

        race_args = ["--quiet"]
        if args.json is not None:
            race_args += ["--output", f"{args.json}/repro-race.json"]
        return race_main(race_args)
    if args.hotpath_json is not None:
        from repro.harness.hotpath import (
            render_hotpath,
            run_hotpath,
            write_hotpath_json,
        )

        data = run_hotpath(args.scale)
        path = write_hotpath_json(args.hotpath_json, data)
        print(render_hotpath(data))
        print(f"[hotpath bench written to {path}]")
        if not data["equivalent"]:
            print(
                "hotpath bench: kernel and naive runs disagree "
                "(result-hash mismatch)",
                file=sys.stderr,
            )
            return 1
        if args.experiment is None:
            return 0
    if args.store_stats and args.store is None and not args.resume:
        print(
            "repro-bench: --store-stats needs a store (--store/--resume)",
            file=sys.stderr,
        )
        return 2
    if args.store_stats and args.experiment is None:
        # Pure inspection: report on the store as it sits on disk.
        import json

        from repro.runtime import ResultStore

        store = ResultStore(args.store or ".repro-store")
        print(json.dumps(
            {"stats": store.stats(), "entry_stats": store.entry_stats()},
            indent=2,
            sort_keys=True,
        ))
        return 0
    if args.list or args.experiment is None:
        print("available experiments:")
        for name in ALL_EXPERIMENTS:
            print(f"  {name}")
        print("or 'all'")
        return 0

    names = list(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    from contextlib import nullcontext

    telemetry = None
    if args.trace is not None:
        from repro.obs import Telemetry, telemetry_session
        from repro.runtime import clear_cache

        # Cached runs would leave the trace empty; force real executions.
        clear_cache()
        telemetry = Telemetry()
        session = telemetry_session(telemetry)
    else:
        session = nullcontext()

    store = None
    if store_dir is not None:
        from repro.runtime import ResultStore, result_store_session

        store = ResultStore(store_dir)
        store_session = result_store_session(store)
    else:
        store_session = nullcontext()

    from repro.harness.sweep import run_sweep_outcome, shutdown_pools

    outcomes = []
    wall_start = time.perf_counter()
    try:
        with session, store_session:
            for name in names:
                start = time.perf_counter()
                outcome = run_sweep_outcome(
                    ALL_EXPERIMENTS[name], args.scale, jobs=args.jobs,
                    seed=args.seed,
                    spawn_workers=not args.external_workers,
                    lease_ttl_s=args.lease_ttl,
                )
                elapsed = time.perf_counter() - start
                outcomes.append(outcome)
                print(outcome.report)
                print(
                    f"[{name} completed in {elapsed:.1f}s wall; "
                    f"{outcome.n_cached} cached / "
                    f"{outcome.n_executed} executed]"
                )
                print()
                if args.json is not None:
                    import pathlib

                    out = pathlib.Path(args.json)
                    out.mkdir(parents=True, exist_ok=True)
                    (out / f"{name}.json").write_text(outcome.report.to_json())
    finally:
        shutdown_pools()

    if store is not None:
        stats = store.stats()
        print(
            f"[result store {stats['path']}: {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['writes']} writes, "
            f"{stats['entries']} entries]"
        )
        if args.store_stats:
            import json

            print(json.dumps(
                {"stats": stats, "entry_stats": store.entry_stats()},
                indent=2,
                sort_keys=True,
            ))
    if args.sweep_json is not None:
        import json
        import pathlib

        payload = {
            "scale": args.scale,
            "jobs": args.jobs,
            "wall_s": time.perf_counter() - wall_start,
            "store": store.stats() if store is not None else None,
            "experiments": [o.timing_dict() for o in outcomes],
        }
        sweep_out = pathlib.Path(args.sweep_json)
        sweep_out.parent.mkdir(parents=True, exist_ok=True)
        sweep_out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[sweep timings written to {sweep_out}]")

    if telemetry is not None:
        import platform

        import numpy

        import repro
        from repro.obs.export import write_trace_dir

        manifest = {
            "experiments": names,
            "scale": args.scale,
            "seed": SCALES[args.scale].seed,
            "versions": {
                "repro": getattr(repro, "__version__", "unknown"),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
            "wall_time_s": time.perf_counter() - wall_start,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        paths = write_trace_dir(args.trace, telemetry, manifest)
        print(f"[trace written to {args.trace}: " +
              ", ".join(sorted(p.name for p in paths.values())) + "]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
