"""Tests for the sim-kernel throughput benchmark harness.

The real sweep takes minutes; these tests exercise the payload/compare/
render/CLI plumbing with synthetic cells and only validate the heavy
path's argument checking.
"""

import json
import pathlib

import pytest

from repro.errors import HarnessError
from repro.harness import cli
from repro.harness.scales import SCALES
from repro.harness.simbench import (
    PAPER_PROOF_BUDGET_S,
    SIMBENCH_NODE_COUNTS,
    compare_cells,
    render_simbench,
    run_simbench,
    write_simbench_json,
)


def _cell(n, h="a" * 64):
    return {
        "n_nodes": n,
        "limit_bytes": 1000,
        "busiest_node_bytes": 1111,
        "events": 1000 * n,
        "wall_s": 2.0,
        "events_per_sec": 500.0 * n,
        "sim_time_s": 1.0,
        "wall_per_sim_s": 2.0,
        "faults": 7,
        "count_messages": 99,
        "result_hash": h,
    }


def _payload(**extra):
    data = {
        "bench": "simkernel",
        "workload": "T10.I4.D16K",
        "limit_fraction": 0.9,
        "cells": [_cell(16), _cell(32)],
    }
    data.update(extra)
    return data


def test_paper_scale_registered():
    scale = SCALES["paper"]
    assert scale.n_app_nodes == 100
    assert scale.workload == "T10.I4.D1000K"  # the paper's 1M transactions
    assert scale.minsup == 0.001
    assert 100 in SIMBENCH_NODE_COUNTS


def test_run_simbench_rejects_tiny_cells():
    with pytest.raises(HarnessError):
        run_simbench([1])


def test_compare_cells():
    current = _payload()
    assert compare_cells(current, _payload()) == []
    drifted = _payload()
    drifted["cells"][1] = _cell(32, h="b" * 64)
    problems = compare_cells(current, drifted)
    assert len(problems) == 1 and "32-node" in problems[0]
    # Non-overlapping cells are not compared.
    assert compare_cells(current, {"cells": [_cell(64, h="c" * 64)]}) == []


def test_write_and_render(tmp_path):
    data = _payload(
        baseline={"queue": "heapq", "cells": [_cell(16)]},
        speedup_events_per_sec={"16": 5.2},
        equivalent=True,
    )
    path = write_simbench_json(tmp_path, data)
    assert path.name == "BENCH_simkernel.json"
    assert json.loads(path.read_text())["equivalent"] is True
    text = render_simbench(data)
    assert "5.2x vs baseline" in text
    assert "MATCH" in text


def test_render_paper_scale_line():
    proof = {
        "workload": "T10.I4.D1000K",
        "n_app_nodes": 100,
        "wall_s": 71.0,
        "events": 4_657_620,
        "budget_s": PAPER_PROOF_BUDGET_S,
        "under_budget": True,
    }
    text = render_simbench(_payload(paper_scale=proof))
    assert "UNDER" in text and "paper scale" in text
    proof["under_budget"] = False
    assert "OVER" in render_simbench(_payload(paper_scale=proof))


def test_cli_simkernel_json(tmp_path, capsys, monkeypatch):
    import repro.harness.simbench as simbench

    monkeypatch.setattr(
        simbench, "run_simbench", lambda counts, baseline=None: _payload()
    )
    code = cli.main(["--simkernel-json", str(tmp_path)])
    assert code == 0
    assert "simkernel bench" in capsys.readouterr().out
    assert (tmp_path / "BENCH_simkernel.json").exists()


def test_cli_simkernel_json_fails_on_hash_drift(tmp_path, capsys, monkeypatch):
    import repro.harness.simbench as simbench

    monkeypatch.setattr(
        simbench,
        "run_simbench",
        lambda counts, baseline=None: _payload(equivalent=False),
    )
    code = cli.main(["--simkernel-json", str(tmp_path)])
    assert code == 1
    assert "diverged" in capsys.readouterr().err


def test_cli_simkernel_paper_fails_over_budget(tmp_path, capsys, monkeypatch):
    import repro.harness.simbench as simbench

    proof = {
        "workload": "T10.I4.D1000K",
        "n_app_nodes": 100,
        "wall_s": 700.0,
        "events": 1,
        "budget_s": PAPER_PROOF_BUDGET_S,
        "under_budget": False,
    }
    monkeypatch.setattr(
        simbench, "run_simbench", lambda counts, baseline=None: _payload()
    )
    monkeypatch.setattr(simbench, "run_paper_proof", lambda: proof)
    code = cli.main(["--simkernel-json", str(tmp_path), "--simkernel-paper"])
    assert code == 1
    assert "budget" in capsys.readouterr().err
    # Under budget the same invocation passes.
    proof["under_budget"] = True
    code = cli.main(["--simkernel-json", str(tmp_path), "--simkernel-paper"])
    assert code == 0


def test_cli_simkernel_nodes_parsing(tmp_path, monkeypatch):
    import repro.harness.simbench as simbench

    seen = {}

    def fake(counts, baseline=None):
        seen["counts"] = counts
        return _payload()

    monkeypatch.setattr(simbench, "run_simbench", fake)
    code = cli.main(
        ["--simkernel-json", str(tmp_path), "--simkernel-nodes", "16,32"]
    )
    assert code == 0
    assert seen["counts"] == [16, 32]


@pytest.mark.parametrize("n_nodes", [16, 32])
def test_cell_reproduces_committed_hash(n_nodes):
    """A fresh cell reproduces the committed artifact's result hash.

    The tiny-scale goldens cannot see protocol timing drift of a few
    percent; these cells run at a fan-in where they can (the 16-node
    cell catches a window sender woken in the freeing put's own round
    instead of two hops later, and NIC grants taken without their
    grant event).
    """
    artifact = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "BENCH_simkernel.json"
    )
    committed = json.loads(artifact.read_text())
    assert n_nodes in {c["n_nodes"] for c in committed["cells"]}
    data = run_simbench([n_nodes])
    assert compare_cells(data, committed) == []
