"""Literal semigroup-filtration semantics and the two-point spectrum."""

import random

import pytest

from dvrfilt import (
    DomainError,
    FieldElement,
    FiltFn,
    SpecPrime,
    ValuationSpec,
    branched,
    lemma32_report,
    level_member,
    lower_member,
    lower_member_literal,
    parse_element,
    prop36_check,
    spec_f,
    upper_member,
    upper_member_literal,
)
from dvrfilt.sampling import (
    random_maximal_ideal_element,
    random_ring_element,
    random_unit,
)

S2 = ValuationSpec.from_string("padic:2")
ST3 = ValuationSpec.from_string("tadic:3")
FF2 = FiltFn(S2)
FFT3 = FiltFn(ST3)
FF101 = FiltFn(ValuationSpec.from_string("padic:101"))
FFT0 = FiltFn(ValuationSpec.from_string("tadic:0"))
FOUR_FIELDS = [FF2, FF101, FFT3, FFT0]
FOUR_IDS = ["padic:2", "padic:101", "tadic:3", "tadic:0"]

EXPECTED_LEMMA32 = {
    "i": "FAIL-LITERAL",
    "ii": "PASS",
    "iii": "PASS",
    "iv-upper": "PASS",
    "iv-lower": "FAIL-LITERAL",
}


def _strata_elements(spec, seed, max_v=10):
    # one element per valuation in {0..max_v}, plus zero and random units
    rng = random.Random(seed)
    out = [FieldElement.zero(spec.field)]
    for v in range(max_v + 1):
        out.append(spec.uniformizer_power(v))
        out.append(spec.uniformizer_power(v) * random_unit(spec.field, rng))
    return out


def test_f_value_examples():
    assert FF2.value(FieldElement.one(S2.field)) == 0
    assert FF2.value(FieldElement.zero(S2.field)).is_infinite
    assert FF2.value(parse_element("12", S2.field)) == 2


def test_f_value_rejects_outside_ring():
    with pytest.raises(ValueError):
        FF2.value(parse_element("1/2", S2.field))


def test_upper_member_examples():
    x = parse_element("6", S2.field)
    assert upper_member(FF2, x, 5)
    # enumeration route finds the witness n = 5: f(6^5) = 5
    assert upper_member_literal(FF2, x, 5)
    assert not upper_member(FF2, FieldElement.one(S2.field), 7)
    assert not upper_member_literal(FF2, FieldElement.one(S2.field), 7)
    assert upper_member(FF2, FieldElement.zero(S2.field), 3)
    with pytest.raises(ValueError):
        upper_member(FF2, x, 0)
    with pytest.raises(ValueError):
        upper_member(FF2, parse_element("1/2", S2.field), 1)


def test_lower_member_examples():
    x8 = parse_element("8", S2.field)  # v = 3
    assert lower_member(FF2, x8, 6)  # n = 2
    assert lower_member_literal(FF2, x8, 6)
    x16 = parse_element("16", S2.field)  # v = 4, and 4 does not divide 6
    assert not lower_member(FF2, x16, 6)
    assert not lower_member_literal(FF2, x16, 6)
    assert lower_member(FF2, FieldElement.one(S2.field), 0)
    assert lower_member_literal(FF2, FieldElement.one(S2.field), 0)
    assert not lower_member(FF2, FieldElement.zero(S2.field), 4)
    with pytest.raises(ValueError):
        lower_member(FF2, x8, -1)


@pytest.mark.usefixtures("valuation_guard")
@pytest.mark.parametrize("ff", FOUR_FIELDS, ids=FOUR_IDS)
def test_closed_forms_match_literal_enumeration_exhaustively(ff):
    spec = ff.spec
    for x in _strata_elements(spec, seed=3):
        fx = ff.value(x)
        for g in range(1, 11):
            want_upper = x.is_zero or fx >= 1
            assert upper_member(ff, x, g) == want_upper
            assert upper_member_literal(ff, x, g) == want_upper
            want_lower = (not x.is_zero) and fx.finite >= 1 and g % fx.finite == 0
            assert lower_member(ff, x, g) == want_lower
            assert lower_member_literal(ff, x, g) == want_lower
        want_zero = (not x.is_zero) and fx.finite == 0
        assert lower_member(ff, x, 0) == want_zero
        assert lower_member_literal(ff, x, 0) == want_zero


@pytest.mark.parametrize("ff", FOUR_FIELDS, ids=FOUR_IDS)
def test_literal_members_multiply_only_before_a_further_check(ff, monkeypatch):
    # a unit is in no upper(g) and in no lower(g) for g >= 1, so the literal
    # routes check every n in [1, max(g, 1)] and need x^1 .. x^max(g, 1)
    products = [0]
    mul = FieldElement.__mul__

    def counted(a, b):
        products[0] += 1
        return mul(a, b)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    unit = FieldElement.one(ff.spec.field)
    for g in range(11):
        if g:
            products[0] = 0
            assert not upper_member_literal(ff, unit, g)
            assert products[0] == g - 1
        products[0] = 0
        assert lower_member_literal(ff, unit, g) == (g == 0)
        assert products[0] == max(g, 1) - 1


def test_level_sets_tie_into_filtration():
    # A_g = {x in R : f(x) >= g} coincides with the filtration level R_g
    rng = random.Random(19)
    for _ in range(500):
        x = random_ring_element(S2.field, rng)
        for g in range(0, 11):
            assert (FF2.value(x) >= g) == level_member(S2, x, g)


def test_lemma32_statuses_exact():
    report = lemma32_report(FF2, 11, 500)
    assert report.status_map() == EXPECTED_LEMMA32


def test_lemma32_deterministic_across_seeds():
    for seed in (0, 1, 7, 99, 12345):
        report = lemma32_report(FF2, seed, 100)
        assert report.status_map() == EXPECTED_LEMMA32


def test_lemma32_witnesses_are_wellformed():
    report = lemma32_report(FF2, 11, 200)
    by_clause = {c.clause: c for c in report.clauses}
    # clause i: pi lies in the radical of the positive part but not in the
    # literal lower(0)
    assert by_clause["i"].witness is not None
    w = parse_element(by_clause["i"].witness, S2.field)
    assert S2.valuation(w) >= 1
    assert not lower_member(FF2, w, 0)
    # clause iv-lower: the witness violates monotonicity for some g <= h
    assert by_clause["iv-lower"].witness is not None
    w2 = parse_element(by_clause["iv-lower"].witness, S2.field)
    violations = [
        (g, h)
        for g in range(0, 11)
        for h in range(g, 11)
        if lower_member(FF2, w2, h) and not lower_member(FF2, w2, g)
    ]
    assert violations
    assert by_clause["ii"].witness is None
    assert by_clause["iii"].witness is None


def test_lemma32_tadic_instance():
    assert lemma32_report(FFT3, 5, 200).status_map() == EXPECTED_LEMMA32


def test_spec_f_two_points():
    assert spec_f(FF2) == [SpecPrime.ZERO_IDEAL, SpecPrime.MAXIMAL_IDEAL]


def test_branched_criterion():
    assert branched(FF2, SpecPrime.MAXIMAL_IDEAL)
    assert not branched(FF2, SpecPrime.ZERO_IDEAL)
    # direct remark-style evaluation for m: the only union candidate over
    # properly smaller primes is (0), which differs from m
    assert SpecPrime.ZERO_IDEAL is not SpecPrime.MAXIMAL_IDEAL


def test_prop36_first_half_passes_second_fails_literally():
    x = parse_element("6", S2.field)  # f = 1
    report = prop36_check(FF2, x, seed=2)
    by_clause = {c.clause: c for c in report.clauses}
    assert by_clause["first-half"].status == "PASS"
    assert by_clause["second-half"].status == "FAIL-LITERAL"
    w = parse_element(by_clause["second-half"].witness, S2.field)
    assert lower_member(FF2, w, 1) and not w.is_zero


def test_prop36_higher_value():
    x = parse_element("4", S2.field)  # f = 2
    report = prop36_check(FF2, x, seed=2, samples=100)
    assert report.clauses[0].status == "PASS"


def test_prop36_domain_errors():
    with pytest.raises(ValueError):
        prop36_check(FF2, FieldElement.one(S2.field), seed=0)
    with pytest.raises(ValueError):
        prop36_check(FF2, parse_element("1/2", S2.field), seed=0)
    with pytest.raises(ValueError):
        prop36_check(FF2, FieldElement.zero(S2.field), seed=0)


def test_prop36_rejects_fewer_than_one_sample(monkeypatch):
    # the same error as lemma32 and the sampled checkers, before any draw
    import dvrfilt.spectrum as spectrum

    monkeypatch.setattr(spectrum.sampling, "random_ring_element", None)
    for samples in (0, -1):
        for x in ("6", "4"):
            with pytest.raises(DomainError, match=r"^samples must be >= 1$"):
                prop36_check(FF2, parse_element(x, S2.field), seed=3, samples=samples)


def test_prop36_first_half_on_sampled_maximal_elements():
    rng = random.Random(77)
    for _ in range(100):
        x = random_maximal_ideal_element(S2.field, rng)
        report = prop36_check(FF2, x, seed=5, samples=50)
        assert report.clauses[0].status == "PASS"


def test_spec_prime_parsing():
    assert SpecPrime.from_string("0") is SpecPrime.ZERO_IDEAL
    assert SpecPrime.from_string("m") is SpecPrime.MAXIMAL_IDEAL
    with pytest.raises(ValueError):
        SpecPrime.from_string("p")
