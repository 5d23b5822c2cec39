"""crossfree benchmark: one command, three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload {search,verify,pipeline} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run it from anywhere; it uses the checkout it sits in, with
``PYTHONPATH=<checkout>/src`` (crossfree need not be installed). Traffic is
a closed loop: passes run one after another, each in a fresh worker process
(see worker.py) that issues one command at a time, until ``--seconds`` have
passed and at least ``MIN_PASSES`` passes were made. A fresh process per
pass is what a CLI user pays on every call, and it keeps caches from
carrying across passes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, each
the median over passes, with times scaled to a reference CPU speed (see
worker.py). With ``--trace 1`` untraced and traced passes alternate, and it
reports the per-layer metrics (medians over traced passes) and
``trace.overhead_s``. The line before it gives the environment, raw and
scaled wall-time quartiles and the sample count. Per-pass records go to
``perfbench/out/``, and a traced run's spans to a ``-spans.json`` file
there. ``--smoke`` swaps in tiny inputs that reach every metric and check.
Exit code 1, with no result line, if crossfree cannot be run or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MIN_PASSES = 3


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_pass(args, traced: bool, index: int) -> dict:
    workdir = OUT / f"work-{os.getpid()}-{index}"
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir),
    ]
    cmd += ["--trace"] * traced + ["--smoke"] * args.smoke
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not ready.strip() or not rest.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(rest.splitlines()[-1])
    result["raw"]["setup_s"] = setup_s
    result["setup_s"] = setup_s * result["speed"]
    result["kernel"] = json.loads(ready)["kernel"]
    result["traced"] = traced
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the harness")
    args = parser.parse_args()
    if not (ROOT / "src" / "crossfree" / "__init__.py").is_file():
        print(f"error: no crossfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    passes = []
    start = perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(args, traced, len(passes)))
            counts = [sum(p["traced"] == t for p in passes) for t in (False, bool(args.trace))]
            if perf_counter() - start >= args.seconds and min(counts) >= MIN_PASSES:
                break
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    walls = [p["wall_s"] for p in plain]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    if args.trace:
        for p in traced:
            p["layers"]["trace.overhead_s"] = p["wall_s"] - statistics.median(walls)
        values = {m["name"]: [p["layers"][m["name"]] for p in traced] for m in spec["per_layer"]}
    else:
        values = {m["name"]: [p[m["name"]] for p in plain] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": statistics.median(v), "unit": units[name]} for name, v in values.items()}

    def quartiles(values):
        return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "env": {
            "python": platform.python_version(),
            "kernel": passes[0]["kernel"],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "commit": git_commit(),
        },
        "wall_s_quartiles": quartiles(walls),
        "raw_wall_s_quartiles": quartiles([p["raw"]["wall_s"] for p in plain]),
        "wall_s_samples": len(walls),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
    }

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [dict(s, **{"pass": i}) for i, p in enumerate(passes) for s in p.pop("spans", ())]
    (OUT / f"{stem}.json").write_text(json.dumps({**detail, "metrics": metrics, "passes": passes}, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
