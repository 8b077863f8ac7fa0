"""Valuation, uniformizer, residue field, and the axiom checker."""

import random
from enum import IntEnum
from fractions import Fraction

import pytest

from dvrfilt import (
    INFINITY,
    DomainError,
    ExtInt,
    FieldElement,
    ResidueElem,
    ValuationSpec,
    check_valuation_axioms,
    format_element,
    parse_element,
)
from dvrfilt.sampling import random_ring_element

from conftest import FIELD_STRINGS, GUARD_FIELDS

S2 = ValuationSpec.from_string("padic:2")
S3 = ValuationSpec.from_string("padic:3")
S5 = ValuationSpec.from_string("padic:5")
ST3 = ValuationSpec.from_string("tadic:3")
ST0 = ValuationSpec.from_string("tadic:0")


# -- independent oracles

def _trial_division_ord(n, p):
    # exponent of p in the full prime factorization of n
    n = abs(n)
    assert n != 0
    count = 0
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    for f in factors:
        if f == p:
            count += 1
    return count


def _lowest_nonzero_index(coeffs):
    for i, c in enumerate(coeffs):
        if c:
            return i
    raise AssertionError("zero polynomial")


def test_valuation_8_12_padic2():
    # oracle: 8 = 2^3, 12 = 2^2 * 3, so v = 3 - 2 = 1
    assert _trial_division_ord(8, 2) - _trial_division_ord(12, 2) == 1
    assert S2.valuation(parse_element("8/12", S2.field)) == 1


@pytest.mark.parametrize("field_str", FIELD_STRINGS)
def test_valuation_of_one_is_zero(field_str):
    spec = ValuationSpec.from_string(field_str)
    assert spec.valuation(FieldElement.one(spec.field)) == 0
    assert spec.valuation(FieldElement.zero(spec.field)) is INFINITY or spec.valuation(
        FieldElement.zero(spec.field)
    ).is_infinite


def test_valuation_tadic_order():
    x = parse_element("t^2", ST3.field) / parse_element("t+1", ST3.field)
    assert _lowest_nonzero_index(x.num) - _lowest_nonzero_index(x.den) == 2
    assert ST3.valuation(x) == 2


def test_valuation_negative():
    assert S2.valuation(parse_element("1/2", S2.field)) == -1
    assert ST0.valuation(parse_element("(t+1)/(t^3)", ST0.field)) == -3


def test_uniformizer_power_examples():
    assert format_element(S5.uniformizer_power(3)) == "125"
    assert S5.uniformizer_power(0) == FieldElement.one(S5.field)
    assert format_element(S2.uniformizer_power(-2)) == "1/4"
    assert format_element(ST3.uniformizer_power(2)) == "t^2"
    assert format_element(ST3.uniformizer_power(-1)) == "(1)/(t)"


@pytest.mark.parametrize("field_str", FIELD_STRINGS)
def test_uniformizer_power_valuation_range(field_str):
    spec = ValuationSpec.from_string(field_str)
    for n in range(-20, 21):
        assert spec.valuation(spec.uniformizer_power(n)) == n
    assert spec.valuation(spec.uniformizer) == 1


def test_residue_modular_inverse_oracle():
    # 7 * 5^{-1} mod 2: the oracle computes the inverse from scratch
    inv5 = pow(5, -1, 2)
    assert (7 * inv5) % 2 == 1
    assert S2.residue(parse_element("7/5", S2.field)) == ResidueElem(2, 1)


def test_residue_of_uniformizer_is_zero():
    for spec in (S2, ST3, ST0):
        assert spec.residue(spec.uniformizer).is_zero


def test_residue_evaluation_oracle_tadic0():
    # evaluating (t+3)/(t+1) at t = 0 gives 3
    x = parse_element("(t+3)/(t+1)", ST0.field)
    assert ST0.residue(x) == ResidueElem(0, Fraction(3))


def test_residue_tadic_p():
    x = parse_element("(t+2)/(2*t+1)", ST3.field)
    # 2 * 1^{-1} mod 3
    assert ST3.residue(x) == ResidueElem(3, 2)


def test_residue_domain_error_outside_ring():
    with pytest.raises(ValueError):
        S2.residue(parse_element("1/2", S2.field))
    with pytest.raises(ValueError):
        ST3.residue(parse_element("(1)/(t)", ST3.field))


def test_residue_of_zero():
    assert S2.residue(FieldElement.zero(S2.field)).is_zero


@pytest.mark.parametrize("field_str", FIELD_STRINGS)
def test_residue_is_ring_homomorphism(field_str):
    spec = ValuationSpec.from_string(field_str)
    rng = random.Random(99)
    for _ in range(1000):
        x = random_ring_element(spec.field, rng)
        y = random_ring_element(spec.field, rng)
        assert spec.residue(x * y) == spec.residue(x) * spec.residue(y)
        assert spec.residue(x + y) == spec.residue(x) + spec.residue(y)


def test_residue_kernel_is_maximal_ideal():
    rng = random.Random(5)
    for _ in range(200):
        x = random_ring_element(S2.field, rng)
        assert S2.residue(x).is_zero == (S2.valuation(x) >= 1)


def test_check_valuation_axioms_passes():
    report = check_valuation_axioms(S2, 42, 1000)
    assert report.ok
    names = [r.name for r in report.results]
    assert names == ["mul", "ultrametric", "ultrametric-sharp"]
    assert report.results[0].total == 1000


def test_axioms_small_example_padic3():
    a = parse_element("3", S3.field)
    b = parse_element("6", S3.field)
    assert S3.valuation(a * b) == 2
    assert S3.valuation(a) + S3.valuation(b) == ExtInt(2)


def test_cancellation_pair_hits_infinity_branch():
    a = parse_element("5/3", S2.field)
    s = a + (-a)
    v = S2.valuation(s)
    assert v.is_infinite
    assert v >= min(S2.valuation(a), S2.valuation(-a))


def test_report_rendering():
    report = check_valuation_axioms(S2, 0, 10)
    text = report.render()
    assert "axiom=mul pass=10/10" in text


# -- extended integers

def test_extint_ordering_and_addition():
    assert INFINITY > ExtInt(10**18)
    assert INFINITY >= INFINITY
    assert not (INFINITY < INFINITY)
    assert ExtInt(3) < INFINITY
    assert INFINITY + 5 is not None and (INFINITY + 5).is_infinite
    assert (INFINITY + INFINITY).is_infinite
    assert ExtInt(2) + ExtInt(3) == 5
    assert ExtInt(2) + 3 == ExtInt(5)
    assert min(ExtInt(4), INFINITY) == 4
    assert 3 * ExtInt(4) == 12
    assert (2 * INFINITY).is_infinite


def test_extint_finite_accessor():
    assert ExtInt(7).finite == 7
    with pytest.raises(ValueError):
        INFINITY.finite


def test_multiplicativity_on_ring_pairs():
    rng = random.Random(17)
    for spec in (S2, ST3):
        for _ in range(300):
            x = random_ring_element(spec.field, rng)
            y = random_ring_element(spec.field, rng)
            assert spec.valuation(x * y) == spec.valuation(x) + spec.valuation(y)


@pytest.mark.parametrize(
    "char, bad",
    [(3, 1.7), (3, Fraction(1, 2)), (3, "1"), (0, 1.5), (0, None), (3, True), (0, False),
     (3, IntEnum("Small", [("ONE", 1)]).ONE)],
    ids=["float-mod-3", "fraction-mod-3", "str-mod-3", "float-over-Q", "none-over-Q",
         "bool-mod-3", "bool-over-Q", "intenum-mod-3"],
)
def test_residue_elem_rejects_non_coefficients(char, bad):
    with pytest.raises(DomainError):
        ResidueElem(char, bad)


@pytest.mark.parametrize("char", [2.5, 4, 1, -3, True, "3", None])
def test_residue_elem_rejects_bad_characteristics(char):
    with pytest.raises(DomainError):
        ResidueElem(char, 1)


def test_residue_elem_canonical_values():
    assert ResidueElem(3, Fraction(7, 1)).value == 1
    assert ResidueElem(3, -1) == ResidueElem(3, 2)
    assert ResidueElem(0, 3).value == Fraction(3)
    assert (ResidueElem(5, 2) / ResidueElem(5, 3)).value == 4
    assert (ResidueElem(0, Fraction(1, 2)) / ResidueElem(0, 3)).value == Fraction(1, 6)


# -- v(x) is kept on the element after its first computation

def _valued_texts(spec):
    # pi^2 and pi^-1 times a unit, as element text
    unit = parse_element("3/5" if spec.field.kind == "padic" else "(1+t)/(1+2*t)", spec.field)
    return tuple(format_element(spec.uniformizer_power(n) * unit) for n in (2, -1))


@pytest.mark.parametrize("field", GUARD_FIELDS)
def test_valuation_cache_is_invisible(field):
    spec = ValuationSpec.from_string(field)
    for text in (*_valued_texts(spec), "0"):
        valued, fresh = parse_element(text, spec.field), parse_element(text, spec.field)
        before = repr(valued)
        v = spec.valuation(valued)
        assert spec.valuation(valued) is v
        assert valued == fresh and hash(valued) == hash(fresh)
        assert repr(valued) == repr(fresh) == before
        assert "_v" not in repr(valued) and spec.valuation(fresh) == v
        for x in (valued, parse_element(text, spec.field)):
            with pytest.raises(AttributeError):
                x._v = ExtInt(5)
            with pytest.raises(AttributeError):
                del x._v
        assert spec.valuation(valued) is v


@pytest.mark.parametrize("field", GUARD_FIELDS)
def test_valuation_is_never_derived_from_operands(field):
    # arithmetic on valued operands leaves its results unvalued; each
    # result's v(x) is computed from its own num/den when first asked for
    spec = ValuationSpec.from_string(field)
    a, b = (parse_element(t, spec.field) for t in _valued_texts(spec))
    va, vb = spec.valuation(a), spec.valuation(b)
    results = (a + b, a - b, a * b, a / b, -a, a.inverse(), a.shift(3), a ** 2, a ** -1)
    assert all(y._v is None for y in results)
    assert [spec.valuation(y) for y in results] == [-1, -1, 1, 3, 2, -2, 5, 4, -2]
    assert (va, vb) == (2, -1)


@pytest.mark.parametrize("field", GUARD_FIELDS)
def test_cached_valuation_still_checks_the_field(field):
    spec = ValuationSpec.from_string(field)
    other = ValuationSpec.from_string("tadic:2" if field.startswith("padic") else "padic:3")
    x = parse_element(_valued_texts(spec)[0], spec.field)
    assert spec.valuation(x) == 2
    with pytest.raises(DomainError):
        other.valuation(x)
    # an equal but distinct field spec values the same element
    assert ValuationSpec.from_string(field).valuation(x) == 2


@pytest.mark.parametrize("field", GUARD_FIELDS)
def test_valuations_past_the_shared_values(field):
    # small values come from a shared table; the ends of its range and the
    # values past them are exact
    spec = ValuationSpec.from_string(field)
    for n in (-258, -257, -256, -255, -1, 0, 1, 255, 256, 257, 258, 1000):
        x = spec.uniformizer_power(n)
        assert spec.valuation(x) == n and spec.valuation(x).value == n
        assert spec.valuation(spec.uniformizer_power(n)) == spec.valuation(x)
    assert spec.valuation(spec.uniformizer_power(3)) is spec.valuation(spec.uniformizer_power(3))
