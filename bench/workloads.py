"""The benchmark's four workloads: seeded inputs, operations and their checks.

A workload is a pool of operations built from the seed during set-up and
replayed in order.  Each op has a timed ``call`` and an untimed ``check``
that raises ``VerifyError`` on a wrong output and otherwise returns the
output as canonical text (for the digest) plus the text of every field
element in it (for the expression-swell metrics).

The benchmark calls only names dvrfilt exports and ``ValuationSpec``
methods.  Every call goes through the ``dv.`` module attribute at call time,
so the traced run's hooks see it.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import dvrfilt as dv
from dvrfilt.cli import dispatch

import gen
from verify import check_cli, check_det, check_leading, check_snf, require

WORKLOADS = ("scalar-padic", "scalar-tadic", "matrix", "cli")

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


class Op(NamedTuple):
    kind: str
    field: str
    call: Callable[[], object]
    check: Callable[[object], "tuple[str, list]"]
    shape: str = ""
    traced_call: "Callable[[], object] | None" = None


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


# ---------------------------------------------------------------------------
# scalar workloads

# Size of one op per field: axioms: samples; filt: (samples, max_level);
# adic: (samples, levels); lemma32, prop36: samples; split, symbol, ideal:
# batch length.  The sizes give every op kind a similar cost (a few ms), so
# that latency quantiles fall inside a dense part of the distribution, and
# tadic:0 gets smaller counts so that no single field takes almost all of
# the time.
PADIC_SIZES = dict(axioms=150, filt=(6, 3), adic=(20, (1, 2, 3, 4)), lemma32=10, prop36=300,
                   split=500, symbol=120, ideal=700)
TADIC_SIZES = dict(axioms=16, filt=(1, 2), adic=(3, (1, 2, 3)), lemma32=4, prop36=60,
                   split=100, symbol=40, ideal=400)
TADIC0_SIZES = dict(axioms=3, filt=(1, 1), adic=(1, (1, 2)), lemma32=1, prop36=15,
                    split=20, symbol=10, ideal=300)

SCALAR_FIELDS = {
    "scalar-padic": {"padic:2": PADIC_SIZES, "padic:5": PADIC_SIZES, "padic:101": PADIC_SIZES},
    "scalar-tadic": {"tadic:2": TADIC_SIZES, "tadic:3": TADIC_SIZES, "tadic:0": TADIC0_SIZES},
}

# Unit size of generated elements: digits of numerator and denominator
# (padic) or degree of the unit polynomials (tadic).
ELEMENT_SIZE = {"padic": 2, "tadic": 1}

LEMMA32_STATUS = {
    "i": "FAIL-LITERAL",
    "ii": "PASS",
    "iii": "PASS",
    "iv-upper": "PASS",
    "iv-lower": "FAIL-LITERAL",
}
PROP36_STATUS = {"first-half": "PASS", "second-half": "FAIL-LITERAL"}


# Scalar ops draw their elements from one pool per field: POOL_PER_LEVEL
# parsed elements of each valuation in VALUATIONS.
VALUATIONS = range(-4, 9)
POOL_PER_LEVEL = 24


def _element_pool(rng: random.Random, spec) -> dict:
    """valuation -> parsed elements of exactly that valuation."""
    field, size = str(spec.field), ELEMENT_SIZE[spec.field.kind]
    return {
        k: [dv.parse_element(gen.element_text(rng, field, k, size), spec.field) for _ in range(POOL_PER_LEVEL)]
        for k in VALUATIONS
    }


def _check_report(report, totals: dict) -> None:
    require(report.ok, "checker reported a violation")
    got = {r.name: r.total for r in report.results}
    for name, total in totals.items():
        require(got.get(name) == total, f"{name} total is {got.get(name)}, want {total}")


def _check_status(report, want: dict) -> str:
    require(report.status_map() == want, f"clause statuses {report.status_map()}, want {want}")
    return report.render()


def _axioms(rng, field, spec, sizes, pool) -> Op:
    seed, n = _seed(rng), sizes["axioms"]

    def check(report):
        _check_report(report, {"mul": n, "ultrametric": n})
        return report.render(), []

    return Op("axioms", field, lambda: dv.check_valuation_axioms(spec, seed, n), check)


def _filt(rng, field, spec, sizes, pool) -> Op:
    seed, (n, top) = _seed(rng), sizes["filt"]
    level = (top + 1) * n

    def check(report):
        _check_report(report, {"subset": level, "sum-closure": level, "ring-multiple": level,
                               "product": (top + 1) * level})
        return report.render(), []

    return Op("filt", field, lambda: dv.check_filtration_axioms(spec, seed, n, top), check)


def _adic(rng, field, spec, sizes, pool) -> Op:
    seed, (n, levels) = _seed(rng), sizes["adic"]

    def check(reports):
        for r in reports:
            _check_report(r, {"power-product-in-level": n, "pi-power-witness": n})
        return "\n".join(r.render() for r in reports), []

    return Op("adic", field, lambda: [dv.adic_vs_valuation(spec, k, seed, n) for k in levels], check)


def _split(rng, field, spec, sizes, pool) -> Op:
    items = []
    for _ in range(sizes["split"]):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        items.append((rng.choice(pool[n + m + rng.randint(0, 2)]), n, m))

    def check(pairs):
        texts = []
        for (c, n, m), (a, b) in zip(items, pairs, strict=True):
            require(a * b == c, "a * b != c")
            require(spec.valuation(a) >= n and spec.valuation(b) >= m, "split factor below its level")
            texts += [dv.format_element(a), dv.format_element(b)]
        return ",".join(texts), texts

    return Op("split", field, lambda: [dv.strong_split(spec, c, n, m) for c, n, m in items], check)


def _symbol(rng, field, spec, sizes, pool) -> Op:
    items = []
    for _ in range(sizes["symbol"]):
        kx, ky = rng.randint(0, 4), rng.randint(0, 4)
        items.append((rng.choice(pool[kx]), rng.choice(pool[ky]), kx + ky))

    def run():
        return [dv.gr_arith("mul", dv.symbol(spec, x), dv.symbol(spec, y)) for x, y, _ in items]

    def check(products):
        texts = []
        for (x, y, k), g in zip(items, products, strict=True):
            text = dv.format_graded(g)
            require(text == dv.format_graded(dv.symbol(spec, x * y)), "symbol(x) * symbol(y) != symbol(x * y)")
            m = re.fullmatch(r"[^T]*(T(\^(\d+))?)?", text)
            degree = 0 if m.group(1) is None else int(m.group(3) or 1)
            require(degree == k, f"graded degree {degree}, want {k}")
            texts.append(text)
        return ",".join(texts), []

    return Op("symbol", field, run, check)


def _ideal(rng, field, spec, sizes, pool) -> Op:
    items = []
    for _ in range(sizes["ideal"]):
        ks = [rng.randint(-4, 6) for _ in range(rng.randint(1, 4))]
        gens = [rng.choice(pool[k]) for k in ks]
        if rng.random() < 0.2:
            gens.append(dv.FieldElement.zero(spec.field))
        items.append((gens, f"pi^{min(ks)}*R"))

    def check(ideals):
        texts = []
        for (_, want), ideal in zip(items, ideals, strict=True):
            got = dv.format_ideal(ideal)
            require(got == want, f"ideal {got}, want {want}")
            texts.append(got)
        return ",".join(texts), []

    return Op("ideal", field, lambda: [dv.ideal_from_generators(spec, g) for g, _ in items], check)


def _lemma32(rng, field, spec, sizes, pool) -> Op:
    seed, n, ff = _seed(rng), sizes["lemma32"], dv.FiltFn(spec)
    return Op("lemma32", field, lambda: dv.lemma32_report(ff, seed, n),
              lambda r: (_check_status(r, LEMMA32_STATUS), []))


def _prop36(rng, field, spec, sizes, pool) -> Op:
    seed, n, ff = _seed(rng), sizes["prop36"], dv.FiltFn(spec)
    x = rng.choice(pool[rng.randint(1, 4)])
    return Op("prop36", field, lambda: dv.prop36_check(ff, x, seed, n),
              lambda r: (_check_status(r, PROP36_STATUS), []))


SCALAR_OPS = (_axioms, _filt, _adic, _split, _symbol, _ideal, _lemma32, _prop36)


def _scaled(sizes: dict, m: float) -> dict:
    def scale(n: int) -> int:
        return max(1, round(n * m))

    return {k: scale(v) if isinstance(v, int) else (scale(v[0]), v[1]) for k, v in sizes.items()}


def _scalar_round(rng: random.Random, r: int, fields: dict, specs: dict, pools: dict) -> list:
    # Each op's size is scaled by a factor in [0.5, 1.5] that depends on the
    # round, not the seed: op costs then spread smoothly, so the latency
    # quantiles do not sit in a gap between op kinds, and the spread is the
    # same for every seed.
    ops = []
    for make in SCALAR_OPS:
        for f, sizes in fields.items():
            m = random.Random(f"{make.__name__}:{f}:{r}").uniform(0.5, 1.5)
            ops.append(make(rng, f, specs[f], _scaled(sizes, m), pools[f]))
    return ops


# ---------------------------------------------------------------------------
# matrix workload

MATRIX_SHAPES = (
    ("padic:2", 2, 2), ("padic:2", 4, 4), ("padic:2", 8, 8), ("padic:2", 16, 16),
    ("padic:2", 3, 5), ("padic:2", 6, 4),
    ("tadic:3", 2, 2), ("tadic:3", 3, 3), ("tadic:3", 4, 4), ("tadic:3", 6, 6), ("tadic:3", 4, 3),
    ("tadic:0", 2, 2), ("tadic:0", 3, 3), ("tadic:0", 3, 2),
)


class MatrixOut(NamedTuple):
    snf: object
    snf_s: float
    det: object
    leading: tuple
    gr_injective: bool
    injective: bool


def _matrix(rng: random.Random, r: int, field: str, rows: int, cols: int) -> Op:
    spec = dv.ValuationSpec.from_string(field)
    # The structure of the r-th matrix of a shape is the same for every seed;
    # the seed draws its units.
    skeleton = random.Random(f"matrix:{r}:{field}:{rows}x{cols}")
    entries, src, dst = gen.shifted_matrix(rng, field, rows, cols, ELEMENT_SIZE[spec.field.kind], skeleton)
    a = tuple(tuple(dv.parse_element(e, spec.field) for e in row) for row in entries)
    fmap = dv.make_filtered_map(
        dv.FilteredFreeModule(spec, tuple(src)), dv.FilteredFreeModule(spec, tuple(dst)), a
    )
    square = rows == cols

    def run():
        t0 = time.perf_counter()
        res = dv.snf(spec, a)
        snf_s = time.perf_counter() - t0
        det = dv.det(spec, a) if square else None
        return MatrixOut(res, snf_s, det, dv.leading_matrix(fmap), dv.gr_injective(fmap),
                         dv.map_injective(fmap))

    def check(out):
        exps = check_snf(spec, a, out.snf)
        if square:
            check_det(spec, a, out.det, out.snf)
        rank = check_leading(spec, fmap, out.leading)
        require(out.gr_injective == (rank == cols), "gr_injective disagrees with the leading rank")
        require(out.injective == (len(exps) == cols), "map_injective disagrees with the SNF rank")
        mats = [[[dv.format_element(x) for x in row] for row in m] for m in out.snf]
        parts = [";".join(",".join(row) for row in m) for m in mats]
        lead = ";".join(",".join(str(c) for c in row) for row in out.leading)
        det_text = dv.format_element(out.det) if square else "-"
        texts = [t for m in mats for row in m for t in row]
        return "|".join(parts + [det_text, lead, str(out.gr_injective), str(out.injective)]), texts

    shape = f"n{rows}" if square else f"n{rows}x{cols}"
    return Op("snf", field, run, check, shape)


# ---------------------------------------------------------------------------
# CLI workload

CLI_FIELDS = ("padic:2", "padic:101", "tadic:3", "tadic:0")


class CliOut(NamedTuple):
    code: int
    stdout: str
    trace: "dict | None" = None


def run_process(cmd: list, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the checkout's sources."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)


def _cli(argv: list, field: str) -> Op:
    def run():
        proc = run_process([sys.executable, "-m", "dvrfilt.cli", *argv])
        return CliOut(proc.returncode, proc.stdout)

    def run_traced():
        proc = run_process([sys.executable, os.path.join(BENCH, "cli_child.py"), *argv])
        last = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1]
        return CliOut(proc.returncode, proc.stdout, json.loads(last))

    def check(out):
        check_cli(argv, out.code, out.stdout, dispatch(argv))
        return f"{out.code}|{out.stdout}", []

    return Op(f"cli.{argv[0]}", field, run, check, traced_call=run_traced)


def _cli_round(rng: random.Random, r: int) -> list:
    field = CLI_FIELDS[r % len(CLI_FIELDS)]
    ops = [_cli(argv, field) for argv in gen.cli_argvs(rng, field, r)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

# A round is one pass over the op mix: every scalar op on every field, every
# matrix shape, or every CLI subcommand on one field.  The pool holds
# POOL_ROUNDS distinct rounds; runs replay it in order.  The matrix pool is
# large so that a run rarely sees a matrix twice: its op costs spread widely.
POOL_ROUNDS = {"scalar-padic": 8, "scalar-tadic": 8, "matrix": 24, "cli": 8}
# Rounds in the traced run, so that its counts repeat exactly for a seed.
TRACE_ROUNDS = {"scalar-padic": 40, "scalar-tadic": 24, "matrix": 8, "cli": 8}


def build(workload: str, seed: int) -> "tuple[list, int]":
    """The workload's op pool and round length; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in SCALAR_FIELDS:
        fields = SCALAR_FIELDS[workload]
        specs = {f: dv.ValuationSpec.from_string(f) for f in fields}
        pools = {f: _element_pool(rng, specs[f]) for f in fields}
    rounds = []
    for r in range(POOL_ROUNDS[workload]):
        if workload in SCALAR_FIELDS:
            rounds.append(_scalar_round(rng, r, fields, specs, pools))
        elif workload == "matrix":
            rounds.append([_matrix(rng, r, f, rows, cols) for f, rows, cols in MATRIX_SHAPES])
        else:
            rounds.append(_cli_round(rng, r))
    return [op for ops in rounds for op in ops], len(rounds[0])
