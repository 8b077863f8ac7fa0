"""Fractional ideals: normal form, group law, lattice operations."""

import random

import pytest

from dvrfilt import (
    DomainError,
    FieldElement,
    FracIdeal,
    ValuationSpec,
    as_power_of_m,
    denominator_witness,
    format_ideal,
    ideal_from_generators,
    ideal_intersect,
    ideal_inverse,
    ideal_op,
    ideal_product,
    ideal_sum,
    parse_element,
    parse_ideal,
)
from dvrfilt.sampling import random_element, random_nonzero_element

S2 = ValuationSpec.from_string("padic:2")
S3 = ValuationSpec.from_string("padic:3")
ST0 = ValuationSpec.from_string("tadic:0")

R = FracIdeal.unit(S2)


def _gens(spec, *texts):
    return [parse_element(t, spec.field) for t in texts]


def test_from_generators_min_valuation():
    # v(8/3) = 3, v(6) = 1
    ideal = ideal_from_generators(S2, _gens(S2, "8/3", "6"))
    assert ideal.exponent == 1


def test_from_generators_zero():
    assert ideal_from_generators(S2, _gens(S2, "0")).is_zero
    assert ideal_from_generators(S2, []).is_zero


def test_from_generators_fractional():
    assert ideal_from_generators(S2, _gens(S2, "1/4")).exponent == -2


def test_from_generators_order_independent_and_idempotent():
    rng = random.Random(13)
    for _ in range(200):
        gens = [random_element(S2.field, rng) for _ in range(rng.randint(1, 5))]
        ideal = ideal_from_generators(S2, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert ideal_from_generators(S2, shuffled) == ideal
        if not ideal.is_zero:
            # appending a member of the ideal changes nothing
            extra = S2.uniformizer_power(ideal.exponent + rng.randint(0, 4))
            assert ideal_from_generators(S2, gens + [extra]) == ideal


def test_product_inverse_pair_is_ring():
    assert ideal_product(FracIdeal(S2, 2), FracIdeal(S2, -2)) == R


def test_sum_with_zero():
    i = FracIdeal(S2, 5)
    assert ideal_sum(i, FracIdeal.zero(S2)) == i
    assert ideal_sum(FracIdeal.zero(S2), i) == i


def test_intersect_takes_max():
    got = ideal_intersect(FracIdeal(S2, 1), FracIdeal(S2, 3))
    assert got.exponent == 3
    # containment check on generators: pi^3 R inside pi^1 R
    assert FracIdeal(S2, 1).contains_element(S2.uniformizer_power(3))
    assert not FracIdeal(S2, 3).contains_element(S2.uniformizer_power(1))


def test_zero_absorbs_product_and_intersect():
    z = FracIdeal.zero(S2)
    i = FracIdeal(S2, -4)
    assert ideal_product(i, z).is_zero
    assert ideal_intersect(i, z).is_zero


def test_ideal_op_dispatch():
    i, j = FracIdeal(S2, 2), FracIdeal(S2, 3)
    assert ideal_op("product", i, j).exponent == 5
    assert ideal_op("sum", i, j).exponent == 2
    assert ideal_op("intersect", i, j).exponent == 3
    with pytest.raises(ValueError):
        ideal_op("quotient", i, j)


def test_inverse_examples():
    assert ideal_inverse(FracIdeal(S2, 3)).exponent == -3
    assert ideal_inverse(R) == R
    i = FracIdeal(S2, -1)
    assert ideal_inverse(i).exponent == 1
    assert ideal_product(i, ideal_inverse(i)) == R
    # generator-level check: pi^{-1} * pi = 1
    prod = S2.uniformizer_power(-1) * S2.uniformizer
    assert prod == FieldElement.one(S2.field)


def test_inverse_of_zero_rejected():
    with pytest.raises(ValueError):
        ideal_inverse(FracIdeal.zero(S2))


def test_denominator_witness():
    a = denominator_witness(FracIdeal(S2, -2))
    assert a == parse_element("4", S2.field)
    # 4 * (1/4 * r) lies in R for the generator
    assert S2.valuation(a * S2.uniformizer_power(-2)) >= 0
    assert denominator_witness(FracIdeal(S2, 5)) == FieldElement.one(S2.field)
    assert denominator_witness(R) == FieldElement.one(S2.field)
    assert denominator_witness(FracIdeal.zero(S2)) == FieldElement.one(S2.field)


def test_as_power_of_m():
    assert as_power_of_m(ideal_from_generators(S2, _gens(S2, "12", "8"))) == 2
    assert as_power_of_m(R) == 0
    assert as_power_of_m(ideal_from_generators(S3, _gens(S3, "9"))) == 2
    with pytest.raises(ValueError):
        as_power_of_m(FracIdeal(S2, -1))
    with pytest.raises(ValueError):
        as_power_of_m(FracIdeal.zero(S2))


def test_group_law_on_random_ideals():
    rng = random.Random(29)
    for spec in (S2, ST0):
        unit = FracIdeal.unit(spec)
        for _ in range(1000):
            i = FracIdeal(spec, rng.randint(-10, 10))
            assert ideal_product(i, ideal_inverse(i)) == unit


def test_containment_matches_membership():
    rng = random.Random(37)
    for _ in range(300):
        i = FracIdeal(S2, rng.randint(-5, 5))
        j = FracIdeal(S2, rng.randint(-5, 5))
        assert i.contains(j) == (i.exponent <= j.exponent)
        x = random_nonzero_element(S2.field, rng)
        if j.contains_element(x) and i.contains(j):
            assert i.contains_element(x)


def test_product_distributes_over_sum():
    rng = random.Random(43)
    for _ in range(300):
        a = FracIdeal(S2, rng.randint(-6, 6))
        b = FracIdeal(S2, rng.randint(-6, 6))
        c = FracIdeal(S2, rng.randint(-6, 6))
        left = ideal_product(c, ideal_sum(a, b))
        right = ideal_sum(ideal_product(c, a), ideal_product(c, b))
        assert left == right


def test_rendering_and_parsing():
    assert format_ideal(FracIdeal(S2, 2)) == "pi^2*R"
    assert format_ideal(FracIdeal(S2, -1)) == "pi^-1*R"
    assert format_ideal(FracIdeal.zero(S2)) == "0"
    assert parse_ideal("pi^-1*R", S2) == FracIdeal(S2, -1)
    assert parse_ideal("0", S2).is_zero
    with pytest.raises(ValueError):
        parse_ideal("R", S2)


def test_mixed_spec_rejected():
    with pytest.raises(ValueError):
        ideal_product(FracIdeal(S2, 1), FracIdeal(S3, 1))


@pytest.mark.parametrize("bad", [1.5, 2.0, "1"])
def test_non_integer_exponent_rejected(bad):
    with pytest.raises(DomainError):
        FracIdeal(S2, bad)
