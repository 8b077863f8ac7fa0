"""Polynomials over the residue field k against sympy's Poly.

k is GF(p) for padic:p and tadic:p and QQ for tadic:0, so k[T] is the
polynomial ring under the tadic fields and the graded ring of every
field.  Seeded random polynomials are multiplied, added and reduced to a
gcd by dvrfilt (``poly_mul`` and ``poly_gcd`` on coefficient tuples, and
``GradedElement`` arithmetic) and by sympy, on each field of the suite.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy import GF, QQ, Poly, Rational, Symbol  # noqa: E402

from dvrfilt import ValuationSpec, gr_to_poly, poly_to_gr  # noqa: E402
from dvrfilt.elements import poly, poly_gcd, poly_mul  # noqa: E402

from conftest import FIELD_STRINGS  # noqa: E402

X = Symbol("X")


def _sympy_poly(coeffs, char):
    domain = GF(char) if char else QQ
    terms = [Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c for c in coeffs]
    return Poly(list(reversed(terms)) or [0], X, domain=domain)


def _random_coeffs(rng, char):
    n = rng.randint(0, 6)
    if char:
        return poly([rng.randrange(char) for _ in range(n)], char)
    return poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)], char)


@pytest.mark.parametrize("field_str", FIELD_STRINGS)
def test_poly_mul_and_gcd_match_sympy(field_str):
    char = ValuationSpec.from_string(field_str).residue_char
    rng = random.Random(f"sympy-poly:{field_str}")
    for _ in range(100):
        a, b, c = (_random_coeffs(rng, char) for _ in range(3))
        # a shared factor c makes most gcds nontrivial
        ac, bc = poly_mul(a, c, char), poly_mul(b, c, char)
        A, B, C = (_sympy_poly(x, char) for x in (a, b, c))
        assert _sympy_poly(ac, char) == A * C
        assert _sympy_poly(poly_mul(ac, bc, char), char) == A * C * B * C
        assert _sympy_poly(poly_gcd(ac, bc, char), char) == (A * C).gcd(B * C)


@pytest.mark.parametrize("field_str", FIELD_STRINGS)
def test_graded_add_and_mul_match_sympy(field_str):
    spec = ValuationSpec.from_string(field_str)
    char = spec.residue_char
    rng = random.Random(f"sympy-graded:{field_str}")
    for _ in range(100):
        a, b = _random_coeffs(rng, char), _random_coeffs(rng, char)
        u, v = poly_to_gr(spec, a), poly_to_gr(spec, b)
        A, B = _sympy_poly(a, char), _sympy_poly(b, char)
        for got, want in ((u + v, A + B), (u * v, A * B)):
            assert _sympy_poly(tuple(c.value for c in gr_to_poly(got)), char) == want
