"""Smoke test of the benchmark: every workload, untraced and traced, on tiny
inputs. Run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracing import Tracer  # noqa: E402
from workloads import Search, Verify  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric(workload):
    plain = run_bench(workload, 0)
    assert plain.returncode == 0, plain.stderr
    result = json.loads(plain.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0

    traced = run_bench(workload, 1)
    assert traced.returncode == 0, traced.stderr
    result = json.loads(traced.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cli.calls"]["value"] > 0
    spans = json.loads((HERE / "out" / f"{workload}-seed3-trace1-spans.json").read_text())
    assert {"cli.main", "kernel"} <= {s["name"] for s in spans}


def test_tracer_restores_every_binding():
    import crossfree.cli
    import crossfree.kernel
    import crossfree.search

    before = (crossfree.cli.parse_family, crossfree.search.crossing_graph, crossfree.kernel.find_k_clique_in)
    tracer = Tracer()
    tracer.install()
    try:
        assert crossfree.search.crossing_graph is not before[1]
        fam = crossfree.parse_family("n 4\n0,1\n1,2\n2,3\n0,3\n")
        crossfree.max_cross_free(fam, 2, "strict")
    finally:
        tracer.uninstall()
    assert (crossfree.cli.parse_family, crossfree.search.crossing_graph, crossfree.kernel.find_k_clique_in) == before
    layers = tracer.layer_metrics()
    assert layers["families.parse_calls"] == 1 and layers["search.calls"] == 1
    # the 4-set universe, then the re-check of the 2-set optimum
    assert layers["crossing.graph_calls"] == 2 and layers["crossing.pairs"] == 6 + 1
    assert layers["kernel.calls"] > 0


def test_checks_catch_wrong_outputs():
    universe = {0b0011, 0b0110, 0b1100, 0b1001}
    wrong_size = json.dumps({"size": 3, "proven_optimal": True, "best": ["0,1", "1,2", "2,3"]})
    assert Search.check(wrong_size, 4, universe, 2, "strict", 4)
    crossing = json.dumps({"size": 2, "proven_optimal": True, "best": ["0,1", "1,2"]})
    assert Search.check(crossing, 4, universe, 2, "strict", 2)
    not_crossing = json.dumps({"witness": ["0,1", "2,3"]})
    assert Verify.check_witness(not_crossing, (None, 4, universe), 2)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("search", 0, cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
