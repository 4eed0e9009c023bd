"""Tests of the benchmark itself, on tiny instances (a few seconds in all).

    python3 -m pytest -q perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

TINY = {
    "path": run.Workload("tiny-path", dict(n_nodes=8, topology="random", n_edges=12),
                         dict(shape="path", count=6, length_range=(1, 3)), 2, "pe", run.embed_pe),
    "ring": run.Workload("tiny-ring", dict(n_nodes=6, topology="cycle"),
                         dict(shape="cycle", count=4, length_range=(3, 4), revenue_rule="proportional"),
                         2, "gr", run.embed_gr),
}


def loaded_program():
    """The pcvne already imported in this process; the benchmark's own
    loader re-imports it, which would hand other tests fresh classes."""
    pkg = importlib.import_module("pcvne")
    importlib.import_module("pcvne.jsonio")
    return pkg


@pytest.fixture(autouse=True)
def quick(monkeypatch):
    monkeypatch.setattr(run, "MIN_VISIT_S", 0.0)
    monkeypatch.setattr(run, "MIN_SETUP_S", 0.0)
    monkeypatch.setattr(run, "MIN_SETUP_REPEATS", 2)


def tiny_run(kind, trace, workload=None):
    result, record, tracer = run.run_workload(workload or TINY[kind], seed=3, seconds=0,
                                              trace=trace, pkg_loader=loaded_program)
    json.dumps(result)
    json.dumps(record)
    return result, record, tracer


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(kind, trace):
    result, record, _ = tiny_run(kind, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert set(record["digests"]) == {f"tiny-{kind}/{TINY[kind].method_name}", f"tiny-{kind}/generic"}


def test_traced_ring_counts_come_from_the_ring_solver():
    result, _, tracer = tiny_run("ring", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cycle_embedding.build_wdag.calls"] == m["cycle_embedding.min_weight_cycle.calls"] > 0
    assert m["cycle_embedding.wdag_arcs"] > 0
    assert m["path_embedding.iterations"] == 0 and m["knapsack.solve_mdkp.self_s"] == 0
    assert tracer.spans and all(s is not None for s in tracer.spans)
    # every patch is undone after the traced calls
    pkg = loaded_program()
    for mod_name, attr, _name, _counter in spans.PATCHES:
        assert not hasattr(getattr(getattr(pkg, mod_name), attr), "__wrapped__")


def test_traced_path_stage_split():
    result, _, _ = tiny_run("path", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["path_embedding.iterations"] >= 1
    assert 0 < m["path_embedding.fund_ratio"] <= 1
    assert m["path_embedding.funded"] <= m["path_embedding.packed"]
    assert m["cycle_embedding.build_wdag.calls"] == 0


def corrupting_pe(pkg, net, requests, fallback):
    batch = pkg.path_embedding.procedure_pe(net, requests)
    net.residual_cpu[net.nodes[0]] -= 1  # residuals no longer match the batch
    return batch


def raising_pe(pkg, net, requests, fallback):
    raise RuntimeError("embedder broke")


@pytest.mark.parametrize("method", [corrupting_pe, raising_pe])
def test_broken_embedder_counts_as_failed(method):
    workload = run.Workload("broken", TINY["path"].substrate, TINY["path"].requests, 2, "pe", method)
    result, record, _ = tiny_run("path", 0, workload)
    assert not result["correct"]
    assert result["failed"] == 2  # the method's call on each instance; generic passes
    assert result["attempted"] == 4
    assert record["failures"]


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    self_s = tracer.self_seconds()
    assert len(tracer.spans) == 4 and [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
    assert self_s["inner"] > 0 and self_s["outer"] >= 0
    assert abs(self_s["inner"] + self_s["outer"] - total / 1e9) < 1e-9


def test_benchmark_json_matches_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ring", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
