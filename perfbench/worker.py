"""One pass of one workload in a fresh process; started by run.py.

The worker imports crossfree, builds and writes the workload's inputs, and
prints a ``ready`` line: that is the end of set-up. It then issues the
pass's commands one at a time, each a call to ``crossfree.cli.main(argv)``
with stdout and stderr captured, checks every output once the pass has
ended, and prints one JSON line with the pass's figures.

Times are normalised to a reference speed. The speed of a CPU of a shared
VM drifts by 20-40% over seconds to minutes, far more than the changes the
benchmark must resolve. So between commands, at most every
``SEGMENT_S`` of command time, the worker times a fixed pure-Python loop
(``reference_s``), and scales each stretch of command time by ``REF_S``
over the mean of the two loop times around it. The raw times are reported
next to the scaled ones.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

from tracing import Tracer
from workloads import WORKLOADS

PASS_TIMEOUT_S = 150
# reference_s() on the machine the benchmark was tuned on (Intel Xeon,
# 2 vCPUs, Python 3.11), so scaled seconds are about real seconds there
REF_S = 0.010
SEGMENT_S = 0.2


def reference_s() -> float:
    """Time of a fixed pure-Python integer loop: this CPU's speed now."""
    start = perf_counter()
    x = 0
    for i in range(70_000):
        x ^= (i * 2654435761) & 0xFFFFFFFF
    return perf_counter() - start


class Clock:
    """Command time, raw and scaled to the reference speed."""

    def __init__(self):
        self.first_ref = self.ref = reference_s()
        self.raw_wall = self.raw_cpu = self.wall = self.cpu = 0.0
        self.pending_wall = self.pending_cpu = 0.0

    def add(self, wall: float, cpu: float) -> None:
        self.pending_wall += wall
        self.pending_cpu += cpu
        if self.pending_wall >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        ref = reference_s()
        speed = REF_S / ((self.ref + ref) / 2)
        self.raw_wall += self.pending_wall
        self.raw_cpu += self.pending_cpu
        self.wall += self.pending_wall * speed
        self.cpu += self.pending_cpu * speed
        self.ref = ref
        self.pending_wall = self.pending_cpu = 0.0


def emit(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    signal.alarm(PASS_TIMEOUT_S)  # a hung pass kills the worker, and run.py fails

    import crossfree
    from crossfree import cli

    args.workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    emit({"ready": True, "kernel": crossfree.KERNEL_IMPLEMENTATION})

    tracer = Tracer() if args.trace else None
    clock = Clock()
    calls = []

    def run_cli(argv, expect, check):
        out, err = io.StringIO(), io.StringIO()
        wall0, cpu0 = perf_counter(), process_time()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if tracer is not None:
                    tracer.cmd = len(calls)
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        clock.add(perf_counter() - wall0, process_time() - cpu0)
        calls.append((argv, expect, check, code, out.getvalue(), err.getvalue()))
        return out.getvalue()

    aborted = None
    if tracer is not None:
        tracer.install()
    try:
        workload.run(run_cli)
    except Exception as exc:  # a crash or unusable output ends the pass
        aborted = f"pass aborted after {len(calls)} commands: {exc!r}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    clock.flush()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = [aborted] if aborted else []
    for argv, expect, check, code, out, err in calls:
        if code != expect:
            problem = f"exit {code}, expected {expect}; stderr: {err.strip()[-300:]}"
        else:
            try:
                problem = check(out)
            except Exception as exc:
                problem = f"output check raised {exc!r}"
        if problem:
            failures.append(f"{' '.join(argv)}: {problem}")
    result = {
        "wall_s": clock.wall,
        "cpu_s": clock.cpu,
        "peak_rss_mb": peak_rss_mb,
        "speed": REF_S / clock.first_ref,
        "raw": {"wall_s": clock.raw_wall, "cpu_s": clock.raw_cpu},
        "attempted": len(calls) + bool(aborted),
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.spans
    emit(result)


if __name__ == "__main__":
    sys.exit(main())
