"""The benchmark's seed-1 trace counters, pinned.

Each workload of ``perfbench/`` runs one traced pass at seed 1, as
``perfbench/run.py --seed 1 --trace 1`` does. Every per-layer metric whose
unit is not seconds (calls, nodes, edges, sets kept, ratios) must equal
``golden/trace_counters_seed1.json``, so a change that meant to keep
pruning and results must keep each count too. A change that alters pruning
on purpose rewrites the JSON and names each old and new value.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "trace_counters_seed1.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTERS = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_seed1_trace_counters_match_golden(tmp_path, workload):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--workdir", str(tmp_path / "work"), "--trace"],
        capture_output=True, text=True, env=env, timeout=150,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    assert {name: result["layers"][name] for name in COUNTERS} == GOLDEN[workload]
