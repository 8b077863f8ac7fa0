"""The failure branches of the sampled checkers and literal clause suites.

On a correct field no law fails, so the counterexample and witness code
never runs.  These tests make a law fail on a fixed pattern of calls and
pin the whole report: pass counts, totals, and the first counterexample
or witness of each law.
"""

import random

import pytest

from dvrfilt import DomainError, FieldSpec, filtration, sampling, spectrum
from dvrfilt.spectrum import FiltFn
from dvrfilt.valuation import ExtInt, ValuationSpec, check_valuation_axioms

S2 = ValuationSpec.from_string("padic:2")


def _on_calls(every, offset, wrapped, broken):
    """``wrapped``, except that calls offset, offset + every, ... (counted
    from 0) return ``broken`` of the true result."""
    count = [0]

    def wrapper(*args):
        result = wrapped(*args)
        i = count[0]
        count[0] += 1
        return broken(result) if i % every == offset else result

    return wrapper


def _off_by(delta):
    return lambda v: v if v.is_infinite else ExtInt(v.finite + delta)


def _patch_valuation(monkeypatch, every, offset, delta):
    broken = _on_calls(every, offset, ValuationSpec.valuation, _off_by(delta))
    monkeypatch.setattr(ValuationSpec, "valuation", broken)


def _patch_level_member(monkeypatch, every):
    broken = _on_calls(every, every - 1, filtration.level_member, lambda ok: False)
    monkeypatch.setattr(filtration, "level_member", broken)


VALUATION_FAILURES = {
    "padic:2": "\n".join(
        (
            "axiom=mul pass=27/40 counterexample=136/23,352/31",
            "axiom=ultrametric pass=36/40 counterexample=34/23,27/1600",
            "axiom=ultrametric-sharp pass=25/35 counterexample=1600/11,-9/928",
        )
    ),
    "tadic:3": "\n".join(
        (
            "axiom=mul pass=27/40 counterexample=(t^3)/(t+1),t",
            "axiom=ultrametric pass=38/40 counterexample=(2*t^8+2*t^7+2*t^6)/(t^2+2*t+2),(2*t^3+t^2+1)/(t^9+2*t^8+2*t^7+2*t^6)",
            "axiom=ultrametric-sharp pass=28/35 counterexample=(2*t^2+2*t+2)/(t+1),t^3",
        )
    ),
}


@pytest.mark.parametrize("field", ["padic:2", "tadic:3"])
def test_valuation_axioms_report_failures(monkeypatch, field):
    spec = ValuationSpec.from_string(field)
    _patch_valuation(monkeypatch, 9, 2, 1)
    report = check_valuation_axioms(spec, 5, 40)
    assert not report.ok
    assert report.render() == VALUATION_FAILURES[field]


FILTRATION_FAILURES = {
    "padic:2": "\n".join(
        (
            "axiom=subset pass=15/18 counterexample=-3008/37 (level 1)",
            "axiom=sum-closure pass=16/18 counterexample=0,72 (level 0)",
            "axiom=ring-multiple pass=16/18 counterexample=136,624/7 (level 1)",
            "axiom=product pass=46/54 counterexample=12/37,2 (levels 0,0)",
        )
    ),
    "tadic:3": "\n".join(
        (
            "axiom=subset pass=15/18 counterexample=(2*t^7)/(t^3+2*t^2+t+1) (level 1)",
            "axiom=sum-closure pass=16/18 counterexample=(t^9+t^8+2*t^6)/(t^2+1),2*t^3+2*t^2 (level 0)",
            "axiom=ring-multiple pass=16/18 counterexample=(t^9+t^7+t^6)/(t+1),2*t^6+t^5 (level 1)",
            "axiom=product pass=46/54 counterexample=0,0 (levels 0,0)",
        )
    ),
}


@pytest.mark.parametrize("field", ["padic:2", "tadic:3"])
def test_filtration_axioms_report_failures(monkeypatch, field):
    spec = ValuationSpec.from_string(field)
    _patch_level_member(monkeypatch, 7)
    report = filtration.check_filtration_axioms(spec, 3, 6, 2)
    assert not report.ok
    assert report.render() == FILTRATION_FAILURES[field]


ADIC_FAILURES = {
    "padic:2": "\n".join(
        (
            "axiom=power-product-in-level pass=8/12 counterexample=-52/7*1664/15",
            "axiom=pi-power-witness pass=9/12 counterexample=-6400/41",
        )
    ),
    "tadic:3": "\n".join(
        (
            "axiom=power-product-in-level pass=8/12 counterexample=2*t^4*(2*t^3+t^2)/(t^3+t^2+2)",
            "axiom=pi-power-witness pass=9/12 counterexample=(2*t^4+t^3+t^2)/(t^3+t^2+2*t+2)",
        )
    ),
}


@pytest.mark.parametrize("field", ["padic:2", "tadic:3"])
def test_adic_comparison_reports_failures(monkeypatch, field):
    spec = ValuationSpec.from_string(field)
    _patch_level_member(monkeypatch, 4)
    _patch_valuation(monkeypatch, 5, 3, -7)
    report = filtration.adic_vs_valuation(spec, 2, 11, 12)
    assert not report.ok
    assert report.render() == ADIC_FAILURES[field]


CLAUSE_FAILURES = {
    "padic:2": "\n".join(
        (
            "clause=i status=FAIL-LITERAL witness=2",
            "clause=ii status=PASS",
            "clause=iii status=FAIL-LITERAL witness=2",
            "clause=iv-upper status=FAIL-LITERAL witness=1",
            "clause=iv-lower status=FAIL-LITERAL witness=4",
            "clause=first-half status=FAIL-LITERAL witness=4",
            "clause=second-half status=FAIL-LITERAL witness=2",
            "clause=first-half status=FAIL-LITERAL witness=0",
            "clause=second-half status=FAIL-LITERAL witness=2",
        )
    ),
    "tadic:3": "\n".join(
        (
            "clause=i status=FAIL-LITERAL witness=t",
            "clause=ii status=PASS",
            "clause=iii status=FAIL-LITERAL witness=t",
            "clause=iv-upper status=FAIL-LITERAL witness=1",
            "clause=iv-lower status=FAIL-LITERAL witness=t^2",
            "clause=first-half status=FAIL-LITERAL witness=t^2",
            "clause=second-half status=FAIL-LITERAL witness=t",
            "clause=first-half status=FAIL-LITERAL witness=0",
            "clause=second-half status=FAIL-LITERAL witness=t",
        )
    ),
}


def _flip_upper_member(monkeypatch, every, offset):
    flip = _on_calls(every, offset, spectrum.upper_member, lambda ok: not ok)
    monkeypatch.setattr(spectrum, "upper_member", flip)


@pytest.mark.parametrize("field", ["padic:2", "tadic:3"])
def test_literal_clauses_report_first_witnesses(monkeypatch, field):
    spec = ValuationSpec.from_string(field)
    # clauses iii and iv-upper hold on a correct field; with upper_member
    # flipped on calls 4, 17, 30, ... each fails at a sample past the first
    ff = FiltFn(spec)
    _flip_upper_member(monkeypatch, 13, 4)
    lemma = spectrum.lemma32_report(ff, 2, 6)
    x = spec.uniformizer_power(2)
    # prop36's first half fails at x itself, then at the sixth upper_member call
    _flip_upper_member(monkeypatch, 1000, 0)
    at_x = spectrum.prop36_check(ff, x, 2, 6)
    _flip_upper_member(monkeypatch, 1000, 5)
    at_sample = spectrum.prop36_check(ff, x, 2, 6)
    got = "\n".join(r.render() for r in (lemma, at_x, at_sample))
    assert got == CLAUSE_FAILURES[field]


CLAUSE_II_FAILURE = "\n".join(
    (
        "clause=i status=FAIL-LITERAL witness=2",
        "clause=ii status=FAIL-LITERAL witness=-1504/39",
        "clause=iii status=PASS",
        "clause=iv-upper status=PASS",
        "clause=iv-lower status=FAIL-LITERAL witness=4",
    )
)


def test_infinite_power_value_is_a_clause_ii_witness(monkeypatch):
    # FiltFn.value reports infinity on its 32nd call, the square of the
    # eighth nonzero sample: clause ii then holds that sample as its witness
    broken = _on_calls(1000, 31, FiltFn.value, lambda v: ExtInt(None))
    monkeypatch.setattr(FiltFn, "value", broken)
    report = spectrum.lemma32_report(FiltFn(S2), 4, 8)
    assert report.render() == CLAUSE_II_FAILURE


# -- the seed and sample count of every sampled entry point: plain ints only,
# -- checked once per call by sampling._seeded, before any draw

def _sampled_entry_points():
    x = S2.uniformizer_power(1)
    yield "check_valuation_axioms", lambda seed, n: check_valuation_axioms(S2, seed, n)
    yield "check_filtration_axioms", lambda seed, n: filtration.check_filtration_axioms(S2, seed, n, 2)
    yield "adic_vs_valuation", lambda seed, n: filtration.adic_vs_valuation(S2, 2, seed, n)
    yield "lemma32_report", lambda seed, n: spectrum.lemma32_report(FiltFn(S2), seed, n)
    yield "prop36_check", lambda seed, n: spectrum.prop36_check(FiltFn(S2), x, seed, n)


ENTRY_POINTS = dict(_sampled_entry_points())


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [None, True, 1.5, "1"], ids=repr)
def test_seed_and_sample_count_must_be_plain_ints(name, bad, monkeypatch):
    from dvrfilt import sampling

    monkeypatch.setattr(sampling, "random_ring_element", None)  # no draw happens
    monkeypatch.setattr(sampling, "random_nonzero_element", None)
    monkeypatch.setattr(sampling, "random_level_element", None)
    kind = type(bad).__name__
    with pytest.raises(DomainError, match=rf"^seed must be an int, not {kind}$"):
        ENTRY_POINTS[name](bad, 2)
    with pytest.raises(DomainError, match=rf"^samples must be an int, not {kind}$"):
        ENTRY_POINTS[name](1, bad)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_the_guard_runs_once_per_call(name, monkeypatch):
    from dvrfilt import sampling

    calls = []
    guard = sampling._seeded
    monkeypatch.setattr(sampling, "_seeded", lambda seed, n: calls.append(n) or guard(seed, n))
    ENTRY_POINTS[name](3, 4)
    assert calls == [4]


# -- the level bound and sampler windows: plain ints only, rejected with the
# -- same message before any draw

@pytest.mark.parametrize("bad", [None, True, 1.5, "1"], ids=repr)
def test_max_level_must_be_a_plain_int(bad, monkeypatch):
    monkeypatch.setattr(sampling, "random_ring_element", None)  # no draw happens
    monkeypatch.setattr(sampling, "random_level_element", None)
    with pytest.raises(DomainError, match=rf"^max_level must be an int, not {type(bad).__name__}$"):
        filtration.check_filtration_axioms(S2, 1, 2, bad)


@pytest.mark.parametrize("sampler", ["random_nonzero_element", "random_element"])
@pytest.mark.parametrize("field", ["padic:2", "tadic:3", "tadic:0"])
@pytest.mark.parametrize(
    "window", [(1.5, 3), (0, 2.0), (True, False), (0, True), ("1", 3), (None, None)], ids=repr
)
def test_sampler_windows_must_be_plain_ints(sampler, field, window):
    spec = FieldSpec.from_string(field)
    name, bad = ("kmin", window[0]) if type(window[0]) is not int else ("kmax", window[1])
    # twelve seeds: random_element's zero draw (1 in 12) must not skip the check
    for seed in range(12):
        rng = random.Random(seed)
        state = rng.getstate()
        with pytest.raises(DomainError, match=rf"^{name} must be an int, not {type(bad).__name__}$"):
            getattr(sampling, sampler)(spec, rng, *window)
        assert rng.getstate() == state
