"""Benchmark of dvrfilt: one named workload, end-to-end or traced.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: scalar-padic, scalar-tadic, matrix, cli (see bench/README.md).
The workload runs in a fresh interpreter (bench/worker.py) as a closed
loop with one client, on one CPU, with its times scaled to a reference
machine speed (bench/speed.py).  Set-up is measured in that interpreter and in
``SETUP_PROBES`` more fresh ones, and reported as the median.  Every op's
output is checked outside the timed region.

Prints a ``record:`` line (seed, op mix, op count, digest of the outputs,
Python version, nproc, load average) and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with ``--trace 0``, the per-module metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("scalar-padic", "scalar-tadic", "matrix", "cli")
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(args: list, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), *args]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: int, extra: "list | None" = None) -> "tuple[dict, dict]":
    """Run one workload; returns (result line, run record)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }
    base = ["--workload", workload, "--seed", str(seed)]

    def probes(n: int) -> list:
        return [_worker(base + ["--setup-only"], deadline)["setup_s"] for _ in range(n)]

    # Set-up is sampled before and after the measured run, so that the
    # median spans the run rather than one moment of a machine whose speed
    # drifts.
    before = [] if trace else probes(SETUP_PROBES // 2)
    main = _worker(base + ["--seconds", str(seconds), "--trace", str(trace), *(extra or [])], deadline)
    metrics = dict(main["metrics"])
    if not trace:
        setups = before + [main["setup_s"]] + probes(SETUP_PROBES - len(before))
        metrics["setup_s"] = (statistics.median(setups), "s")
        record["setup_samples_s"] = setups
    attempted, failed = main["attempted"], main["failed"]
    record.update(
        {k: main[k] for k in ("ops", "op_mix", "pool_ops", "digest", "digest_ops", "busy_s", "errors")},
        error_rate=failed / attempted,
    )
    for key in ("capped", "missing_hooks", "spans", "ref_ms"):
        if key in main:
            record[key] = main[key]
    result = {
        "correct": failed == 0 and not main.get("capped", False),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }
    return result, record


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    The speed gauge (bench/speed.py) runs in the worker; on a shared host
    each CPU's speed drifts on its own, so a CLI child that ran on another
    CPU than the gauge would be scaled by the wrong speed.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dvrfilt benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dvrfilt", "__init__.py")):
        print(f"error: no dvrfilt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        result, record = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
