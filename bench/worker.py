"""Run one benchmark workload in this fresh interpreter.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1

``bench/run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src``; it prints one JSON object as the last line of stdout.
With ``--setup-only`` it builds the inputs, prints the set-up time and
exits.  The loop is closed with one client: each op starts after the
previous one returned, with no threads.
"""

import sys
import time

import speed

# dvrfilt is imported first, and timed: the import is part of set-up.  The
# machine's speed is gauged before it (see bench/speed.py).
_REF0_S = speed.reference_s()
_T0 = time.perf_counter()
import dvrfilt  # noqa: F401
_IMPORT_S = time.perf_counter() - _T0

import argparse
import hashlib
import json
import math
import os
import re
import resource
import statistics

import tracer as tracing
import workloads

# A run measures at least this many ops, so that at least ten latency
# samples lie beyond the 90th percentile.  The output digest covers the
# first MIN_OPS ops, which every run executes whatever its speed.
MIN_OPS = 110
WARMUP_OPS = 8
# Wall-clock cap on one worker, well inside the benchmark's time limit.
MAX_WALL_S = 140.0
PROBES = 5

FIELDS = ("padic:2", "padic:5", "padic:101", "tadic:2", "tadic:3", "tadic:0")
SNF_CURVE = tuple((f, f"n{r}") for f, r, c in workloads.MATRIX_SHAPES if r == c)


def execute(call):
    """Time one op; an op that raises yields the exception as its output."""
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as e:  # counted as a failed op
        out = e
    return time.perf_counter() - t0, out


_EXP = re.compile(r"t\^(\d+)|t")
_INT = re.compile(r"(?<![\^\d])\d+")


class Tally:
    """Latencies, failures, digest and output statistics of one pass."""

    def __init__(self, round_len: int) -> None:
        self.latencies: list = []
        self.busy = 0.0
        self.round_len = round_len
        self.round_busy: list = []
        self.failed = 0
        self.errors: list = []
        self.mix: dict = {}
        self.field_busy: dict = {}
        self.snf_ms: dict = {}
        self.digest = hashlib.sha256()
        self.max_poly_len = 0
        self.max_coeff_bits = 0
        self.max_snf_chars = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def digest_ops(self) -> int:
        return min(self.attempted, MIN_OPS)

    def ops_per_s(self) -> float:
        """Median over complete rounds of the op mix of ops per second of op time."""
        rounds = self.round_busy[: self.attempted // self.round_len]
        if not rounds:
            return self.attempted / self.busy
        return self.round_len / statistics.median(rounds)

    def add(self, i: int, op, seconds: float, out) -> None:
        self.latencies.append(seconds)
        self.busy += seconds
        if i % self.round_len == 0:
            self.round_busy.append(0.0)
        self.round_busy[-1] += seconds
        self.mix[op.kind] = self.mix.get(op.kind, 0) + 1
        self.field_busy[op.field] = self.field_busy.get(op.field, 0.0) + seconds
        try:
            if isinstance(out, Exception):
                raise out
            text, elements = op.check(out)
        except Exception as e:  # a wrong or missing output
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {i} {op.kind} {op.field}: {type(e).__name__}: {e}")
            text, elements = f"failed {type(e).__name__}", []
        if i < MIN_OPS:
            self.digest.update(f"{i}|{op.kind}|{op.field}|{text}\n".encode())
        if isinstance(out, workloads.MatrixOut):
            key = (op.field, op.shape)
            self.snf_ms.setdefault(key, []).append(out.snf_s * 1000)
            self.max_snf_chars = max([self.max_snf_chars, *map(len, elements)])
        for t in elements:
            exps = [int(m.group(1) or 1) for m in _EXP.finditer(t)]
            if exps:
                self.max_poly_len = max(self.max_poly_len, 1 + max(exps))
            for m in _INT.finditer(t):
                self.max_coeff_bits = max(self.max_coeff_bits, int(m.group()).bit_length())


def timed_loop(ops: list, round_len: int, seconds: float, min_ops: int,
               deadline: float) -> "tuple[Tally, bool, speed.Gauge]":
    """Replay ``ops`` for ``seconds`` of op time; the tally holds scaled times."""
    tally, gauge = Tally(round_len), speed.Gauge()
    i, busy, capped = 0, 0.0, False
    while busy < seconds or i < min_ops:
        if time.perf_counter() > deadline:
            capped = True
            break
        op = ops[i % len(ops)]
        seconds_i, out = execute(op.call)
        busy += seconds_i
        for (j, out_j), scaled in gauge.add((i, out), seconds_i):
            tally.add(j, ops[j % len(ops)], scaled, out_j)
        i += 1
    for (j, out_j), scaled in gauge.flush():
        tally.add(j, ops[j % len(ops)], scaled, out_j)
    return tally, capped, gauge


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def probe_s(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        workloads.run_process([sys.executable, "-c", code])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def untraced(args, ops: list, round_len: int, deadline: float) -> dict:
    tally, capped, gauge = timed_loop(ops, round_len, args.seconds, args.min_ops, deadline)
    rss = peak_rss_mb(args.workload)
    lat = tally.latencies
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    metrics = {
        "ops_per_s": (tally.ops_per_s(), "ops/s"),
        "op_ms_p50": (statistics.median(lat) * 1000, "ms"),
        "op_ms_p90": (p90 * 1000, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "success_rate": (1 - tally.failed / tally.attempted, "ratio"),
    }
    return {"tally": tally, "metrics": metrics, "capped": capped,
            "ref_ms": statistics.median(gauge.samples) * 1000}


def traced(args, pool: list, round_len: int) -> dict:
    n = args.trace_ops or workloads.TRACE_ROUNDS[args.workload] * round_len
    plain, _, _ = timed_loop(pool, round_len, 0.0, n, math.inf)
    ops = [pool[i % len(pool)] for i in range(n)]

    tr = tracing.Tracer()
    tr.install()
    outs, gauge = [], speed.Gauge()
    for i, op in enumerate(ops):
        call = op.traced_call or op.call
        seconds, out = execute(lambda: tr.op(i, op.kind, op.field, call))
        outs += gauge.add(out, seconds)
    outs += gauge.flush()
    tr.uninstall()

    tally = Tally(round_len)
    dispatch_s = []
    for i, (op, (out, seconds)) in enumerate(zip(ops, outs)):
        if isinstance(out, workloads.CliOut) and out.trace is not None:
            tr.absorb(out.trace)
            dispatch_s += [e["total_s"] for e in out.trace["edges"] if e["name"] == "cli.dispatch"]
        tally.add(i, op, seconds, out)

    metrics = layer_metrics(tr, plain, tally, dispatch_s)
    metrics["cli.interp_start_s"] = (interp := probe_s("pass"), "s")
    metrics["cli.import_s"] = (probe_s("import dvrfilt.cli") - interp, "s")
    metrics["trace.overhead_ratio"] = (tally.busy / plain.busy, "ratio")

    os.makedirs(os.path.join(workloads.BENCH, "out"), exist_ok=True)
    spans = os.path.join(workloads.BENCH, "out", f"spans-{args.workload}-seed{args.seed}.json")
    with open(spans, "w") as fh:
        json.dump(tr.dump(), fh)
    return {"tally": plain, "traced_tally": tally, "metrics": metrics,
            "missing_hooks": tr.missing, "spans": os.path.relpath(spans, workloads.ROOT)}


def layer_metrics(tr, plain: Tally, tally: Tally, dispatch_s: list) -> dict:
    """The per-module metrics; None where every hook behind one is missing."""
    totals = tr.group_totals()

    def calls(group):
        return totals.get(group, [0])[0] if tr.has_group(group) else None

    def self_s(*groups):
        present = [g for g in groups if tr.has_group(g)]
        return sum(totals.get(g, [0, 0.0])[1] for g in present) if present else None

    def ratio(hits, group):
        n = calls(group)
        return None if n is None else (hits / n if n else 0.0)

    m = {
        "elements.construct_calls": (calls("elements.construct"), "count"),
        "elements.construct_self_s": (self_s("elements.construct"), "s"),
        "elements.construct_noop_ratio": (ratio(tr.construct_noop, "elements.construct"), "ratio"),
        "elements.poly_gcd_calls": (calls("elements.poly_gcd"), "count"),
        "elements.poly_gcd_self_s": (self_s("elements.poly_gcd"), "s"),
        "elements.poly_gcd_nontrivial_ratio": (ratio(tr.gcd_nontrivial, "elements.poly_gcd"), "ratio"),
        "elements.poly_mul_calls": (calls("elements.poly_mul"), "count"),
        "elements.poly_mul_self_s": (self_s("elements.poly_mul"), "s"),
        "elements.poly_divmod_self_s": (self_s("elements.poly_divmod"), "s"),
        "elements.arith_calls": (calls("elements.arith"), "count"),
        "elements.arith_self_s": (self_s("elements.arith"), "s"),
        "elements.parse_calls": (calls("elements.parse"), "count"),
        "elements.parse_self_s": (self_s("elements.parse"), "s"),
        "elements.format_calls": (calls("elements.format"), "count"),
        "elements.format_self_s": (self_s("elements.format"), "s"),
        "elements.max_poly_len": (tally.max_poly_len, "coeffs"),
        "elements.max_coeff_bits": (tally.max_coeff_bits, "bits"),
        "valuation.calls": (calls("valuation.valuation"), "count"),
        "valuation.self_s": (self_s("valuation.valuation", "valuation.residue", "valuation.other",
                                    "valuation.checker"), "s"),
        "valuation.residue_calls": (calls("valuation.residue"), "count"),
        "valuation.residue_self_s": (self_s("valuation.residue"), "s"),
        "valuation.checker_self_s": (self_s("valuation.checker"), "s"),
        "sampling.calls": (calls("sampling"), "count"),
        "sampling.self_s": (self_s("sampling"), "s"),
        "filtration.self_s": (self_s("filtration"), "s"),
        "graded.calls": (calls("graded"), "count"),
        "graded.self_s": (self_s("graded"), "s"),
        "ideals.self_s": (self_s("ideals"), "s"),
        "spectrum.self_s": (self_s("spectrum"), "s"),
        "filtered_modules.snf_calls": (calls("filtered_modules.snf"), "count"),
        "filtered_modules.snf_self_s": (self_s("filtered_modules.snf"), "s"),
        "filtered_modules.det_self_s": (self_s("filtered_modules.det"), "s"),
        "filtered_modules.leading_self_s": (self_s("filtered_modules.leading"), "s"),
        "filtered_modules.injective_self_s": (self_s("filtered_modules.injective"), "s"),
        "filtered_modules.snf_max_entry_chars": (tally.max_snf_chars, "chars"),
    }
    for field, size in SNF_CURVE:
        samples = plain.snf_ms.get((field, size))
        name = f"filtered_modules.snf_ms.{field.replace(':', '')}.{size}"
        m[name] = (statistics.median(samples) if samples else 0.0, "ms")
    dispatch = "cli.dispatch" not in tr.missing
    m["cli.dispatch_s"] = ((statistics.median(dispatch_s) if dispatch_s else 0.0) if dispatch else None, "s")
    m["cli.dispatch_calls"] = (len(dispatch_s) if dispatch else None, "count")
    for field in FIELDS:
        m[f"field.{field.replace(':', '')}.busy_s"] = (plain.field_busy.get(field, 0.0), "s")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--min-ops", type=int, default=MIN_OPS)
    p.add_argument("--trace-ops", type=int, default=0, help="ops in the traced run (0: TRACE_ROUNDS)")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    ops, round_len = workloads.build(args.workload, args.seed)
    setup_s = _IMPORT_S + time.perf_counter() - t0
    setup_s *= 2 * speed.REF_S / (_REF0_S + speed.reference_s())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    deadline = time.perf_counter() + MAX_WALL_S

    for op in ops[:WARMUP_OPS]:
        execute(op.call)
    if args.trace:
        result = traced(args, ops, round_len)
    else:
        result = untraced(args, ops, round_len, deadline)
    tallies = [result.pop("tally")] + ([result.pop("traced_tally")] if "traced_tally" in result else [])
    first = tallies[0]
    out = {
        "setup_s": setup_s,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "errors": [e for t in tallies for e in t.errors][:5],
        "ops": first.attempted,
        "op_mix": first.mix,
        "pool_ops": len(ops),
        "digest": first.digest.hexdigest(),
        "digest_ops": first.digest_ops,
        "round_ops": round_len,
        "busy_s": first.busy,
        **result,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
