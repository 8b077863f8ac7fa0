"""The associated graded ring: symbols, arithmetic, polynomial realization."""

import random
from enum import IntEnum

import pytest

from dvrfilt import (
    DomainError,
    FieldElement,
    GradedElement,
    ResidueElem,
    ValuationSpec,
    format_graded,
    gr_arith,
    gr_to_poly,
    parse_element,
    parse_graded,
    poly_to_gr,
    symbol,
)
from dvrfilt.sampling import random_nonzero_element

from oracles import residue_poly_add, residue_poly_mul

S2 = ValuationSpec.from_string("padic:2")
S3 = ValuationSpec.from_string("padic:3")
S5 = ValuationSpec.from_string("padic:5")
ST0 = ValuationSpec.from_string("tadic:0")


def test_symbol_of_six_padic2():
    # 6 = 2 * 3, degree 1, and 3 mod 2 = 1
    assert (6 // 2) % 2 == 1
    g = symbol(S2, parse_element("6", S2.field))
    assert g.terms == ((1, ResidueElem(2, 1)),)


def test_symbol_of_one():
    g = symbol(S2, FieldElement.one(S2.field))
    assert g.terms == ((0, ResidueElem(2, 1)),)


def test_symbol_of_18_padic3():
    # 18 = 2 * 3^2, and 18 / 9 = 2
    assert 18 // 9 == 2
    g = symbol(S3, parse_element("18", S3.field))
    assert g.terms == ((2, ResidueElem(3, 2)),)


def test_symbol_domain_errors():
    with pytest.raises(ValueError):
        symbol(S2, FieldElement.zero(S2.field))
    with pytest.raises(ValueError):
        symbol(S2, parse_element("1/2", S2.field))


def test_symbol_coefficient_never_zero():
    rng = random.Random(31)
    for _ in range(300):
        x = random_nonzero_element(S2.field, rng, kmin=0, kmax=6)
        assert not symbol(S2, x).terms[0][1].is_zero


def test_gr_mul_matches_symbol_of_product():
    # sigma(6)^2 = sigma(36): 36 / 4 = 9 and 9 mod 2 = 1
    assert (36 // 4) % 2 == 1
    s6 = symbol(S2, parse_element("6", S2.field))
    s36 = symbol(S2, parse_element("36", S2.field))
    assert gr_arith("mul", s6, s6) == s36
    assert s36.terms == ((2, ResidueElem(2, 1)),)


def test_gr_add_identity():
    u = symbol(S2, parse_element("6", S2.field))
    zero = GradedElement.zero(S2)
    assert gr_arith("add", u, zero) == u


def test_gr_mul_degree_zero_padic3():
    # 2 * 2 = 4 and 4 mod 3 = 1
    u = GradedElement.monomial(S3, 0, ResidueElem(3, 2))
    assert gr_arith("mul", u, u) == GradedElement.monomial(S3, 0, ResidueElem(3, 1))


def test_gr_add_cancels_to_zero():
    u = GradedElement.monomial(S3, 2, ResidueElem(3, 1))
    v = GradedElement.monomial(S3, 2, ResidueElem(3, 2))
    assert (u + v).is_zero


def test_gr_to_poly_monomial():
    u = GradedElement.monomial(S2, 2, ResidueElem(2, 1))
    assert gr_to_poly(u) == (ResidueElem(2, 0), ResidueElem(2, 0), ResidueElem(2, 1))
    assert format_graded(u) == "T^2"


def test_gr_to_poly_zero():
    assert gr_to_poly(GradedElement.zero(S2)) == ()
    assert format_graded(GradedElement.zero(S2)) == "0"
    assert poly_to_gr(S2, ()).is_zero


def test_gr_rendering_padic5():
    u = poly_to_gr(S5, (2, 3))
    assert format_graded(u) == "2 + 3*T"
    assert parse_graded("2 + 3*T", S5) == u


def test_parse_graded_roundtrip():
    rng = random.Random(8)
    for spec in (S2, S3, ST0):
        for _ in range(200):
            coeffs = [rng.randrange(0, 5) for _ in range(rng.randrange(1, 5))]
            u = poly_to_gr(spec, coeffs)
            assert parse_graded(format_graded(u), spec) == u


@pytest.mark.parametrize(
    "spec", [S2, S3, ST0], ids=["padic:2", "padic:3", "tadic:0"]
)
def test_symbol_is_multiplicative(spec):
    rng = random.Random(41)
    for _ in range(1000):
        x = random_nonzero_element(spec.field, rng, kmin=0, kmax=5)
        y = random_nonzero_element(spec.field, rng, kmin=0, kmax=5)
        assert symbol(spec, x * y) == symbol(spec, x) * symbol(spec, y)


def test_gr_to_poly_is_ring_isomorphism():
    rng = random.Random(53)
    char = S3.residue_char
    for _ in range(1000):
        u = poly_to_gr(S3, [rng.randrange(3) for _ in range(rng.randrange(1, 5))])
        v = poly_to_gr(S3, [rng.randrange(3) for _ in range(rng.randrange(1, 5))])
        assert gr_to_poly(u + v) == residue_poly_add(gr_to_poly(u), gr_to_poly(v), char)
        assert gr_to_poly(u * v) == residue_poly_mul(gr_to_poly(u), gr_to_poly(v), char)


def test_no_homogeneous_zero_divisors():
    rng = random.Random(67)
    for spec in (S2, ST0):
        for _ in range(300):
            x = random_nonzero_element(spec.field, rng, kmin=0, kmax=5)
            y = random_nonzero_element(spec.field, rng, kmin=0, kmax=5)
            prod = symbol(spec, x) * symbol(spec, y)
            assert not prod.is_zero


def test_homogeneous_degree_law():
    rng = random.Random(71)
    for _ in range(1000):
        x = random_nonzero_element(S2.field, rng, kmin=0, kmax=5)
        y = random_nonzero_element(S2.field, rng, kmin=0, kmax=5)
        u, v = symbol(S2, x), symbol(S2, y)
        assert (u * v).degree() == u.degree() + v.degree()


def test_graded_element_canonicalization():
    # duplicate degrees merge, zero coefficients drop
    u = GradedElement(S3, ((1, ResidueElem(3, 2)), (1, ResidueElem(3, 1)), (0, ResidueElem(3, 0))))
    assert u.terms == ()
    assert u.is_zero


def test_graded_element_rejects_bad_terms():
    with pytest.raises(ValueError):
        GradedElement(S3, ((-1, ResidueElem(3, 1)),))
    with pytest.raises(ValueError):
        GradedElement(S3, ((0, ResidueElem(5, 1)),))


class _Degree(IntEnum):
    TWO = 2


@pytest.mark.parametrize("degree", [True, False, _Degree.TWO, 2.0], ids=repr)
def test_graded_degrees_are_plain_ints(degree):
    # a degree is a plain int: bool and IntEnum would be kept in terms as given
    with pytest.raises(DomainError):
        GradedElement(S3, ((degree, ResidueElem(3, 1)),))
    assert GradedElement(S3, ((2, ResidueElem(3, 1)),)).terms == ((2, ResidueElem(3, 1)),)
