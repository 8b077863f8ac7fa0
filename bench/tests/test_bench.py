"""Tests of the benchmark itself: tiny runs of every workload, fault injection,
and the traced run's tolerance of missing hook targets.

Run with ``python -m pytest -q bench/tests`` from the repository root.
"""

import json
import os

import pytest

import dvrfilt as dv
import run
import speed
import tracer
import verify
import worker
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(workload):
    result, record = run.run(workload, seed=3, seconds=0, trace=0, extra=["--min-ops", "4"])
    assert set(result["metrics"]) == END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert record["error_rate"] == 0
    assert result["metrics"]["success_rate"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(record["setup_samples_s"]) == run.SETUP_PROBES + 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    result, record = run.run(workload, seed=3, seconds=0, trace=1, extra=["--trace-ops", "3"])
    assert set(result["metrics"]) == PER_LAYER
    assert result["failed"] == 0
    assert record["missing_hooks"] == []
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    with open(os.path.join(run.ROOT, record["spans"])) as fh:
        spans = json.load(fh)
    assert len(spans["ops"]) == 3


def test_same_seed_same_inputs():
    def texts(seed):
        return [op.check(op.call())[0] for op in workloads.build("matrix", seed)[0][:3]]

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


def _first(workload, kind):
    return next(op for op in workloads.build(workload, 1)[0] if op.kind.startswith(kind))


def test_tampered_snf_is_counted_as_failure():
    for field, shape in (("padic:2", "n4"), ("tadic:3", "n3")):
        op = next(op for op in workloads.build("matrix", 1)[0] if (op.field, op.shape) == (field, shape))
        out = op.call()
        d = [list(row) for row in out.snf.d]
        d[0][0] = d[0][0] * dv.pi_power(d[0][0].spec, 1)
        bad = out._replace(snf=out.snf._replace(d=tuple(tuple(r) for r in d)))
        tally = worker.Tally(1)
        tally.add(0, op, 0.001, out)
        tally.add(1, op, 0.001, bad)
        assert (tally.attempted, tally.failed) == (2, 1)
        with pytest.raises(verify.VerifyError):
            op.check(bad)


def test_wrong_cli_stdout_is_counted_as_failure():
    op = _first("cli", "cli.")
    good = op.call()
    bad = good._replace(stdout=good.stdout + "x\n")
    tally = worker.Tally(1)
    tally.add(0, op, 0.001, good)
    tally.add(1, op, 0.001, bad)
    tally.add(2, op, 0.001, good._replace(code=1))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_missing_hook_reports_null(monkeypatch):
    monkeypatch.delattr(dv.elements, "poly_gcd")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == ["elements.poly_gcd"]
    tally = worker.Tally(1)
    metrics = worker.layer_metrics(tr, tally, tally, [])
    assert metrics["elements.poly_gcd_calls"][0] is None
    assert metrics["elements.poly_gcd_nontrivial_ratio"][0] is None
    assert metrics["elements.poly_mul_calls"][0] == 0


def test_uninstall_restores_originals():
    snf, post_init = dv.snf, dv.FieldElement.__post_init__
    tr = tracer.Tracer()
    tr.install()
    assert dv.snf is not snf
    tr.uninstall()
    assert dv.snf is snf and dv.filtered_modules.snf is snf
    assert dv.FieldElement.__post_init__ is post_init


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.install()
    try:
        spec = dv.ValuationSpec.from_string("tadic:3")
        tr.op(0, "t", "tadic:3", lambda: dv.snf(spec, [[dv.parse_element("t+1", spec.field)]]))
    finally:
        tr.uninstall()
    totals = tr.group_totals()
    calls, self_s, total_s = totals["filtered_modules.snf"]
    assert calls == 1 and 0 < self_s < total_s
    assert ("op.t", "filtered_modules.snf") in tr.edges


def test_run_refuses_a_directory_without_sources(monkeypatch):
    monkeypatch.setattr(run, "ROOT", os.path.join(run.BENCH, "no-such-checkout"))
    assert run.main(["--workload", "cli", "--seed", "1", "--seconds", "1"]) == 2


def test_gauge_scales_by_the_reference_around_the_work(monkeypatch):
    refs = iter([9.0, 2 * speed.REF_S, 4 * speed.REF_S])
    monkeypatch.setattr(speed, "reference_s", lambda: next(refs))
    gauge = speed.Gauge(every_s=0.1)
    assert gauge.add("a", 0.06) == []
    # The machine ran at half, then a quarter of the reference speed.
    scaled = gauge.add("b", 0.06)
    assert [item for item, _ in scaled] == ["a", "b"]
    assert all(abs(s - 0.06 * 2 / 6) < 1e-12 for _, s in scaled)
    assert gauge.flush() == []
