"""Polynomials over the residue field k against sympy's Poly.

k is GF(p) for padic:p and tadic:p and QQ for tadic:0, so k[T] is the
polynomial ring under the tadic fields and the graded ring of every
field.  Seeded random polynomials up to degree 30 (matrix entries reach
length 27 on tadic:3) are multiplied, divided with remainder, added and
reduced to a gcd by dvrfilt (``poly_mul``, ``poly_divmod`` and
``poly_gcd`` on coefficient tuples, and ``GradedElement`` arithmetic) and
by sympy, on each field of the suite.

For p = 0 the kernels work in Z[t]: the drawn Q[t] polynomials are
cleared of denominators first, the gcd is compared after making it monic
(it is primitive with a positive lead), and the pseudo-division's q and r
after dividing by its scale s (s * a = q * b + r, s = 1 when the division
is exact).

Tuple equality hides a coefficient of the wrong type (a bare int equals
the Fraction of the same value), so the coefficient types are asserted on
their own: the kernels' ints in [0, p) over F_p and ints over Z[t], and
the Fractions of a tadic:0 element's public num/den.
"""

import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy import GF, QQ, Poly, Rational, Symbol  # noqa: E402

from dvrfilt import FieldSpec, ValuationSpec, gr_to_poly, poly_to_gr  # noqa: E402
from dvrfilt.elements import poly, poly_divmod, poly_gcd, poly_mul  # noqa: E402
from dvrfilt.sampling import random_nonzero_element  # noqa: E402

from conftest import FIELD_STRINGS  # noqa: E402

X = Symbol("X")
MAX_DEGREE = 30


def _sympy_poly(coeffs, char):
    domain = GF(char) if char else QQ
    terms = [Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c for c in coeffs]
    return Poly(list(reversed(terms)) or [0], X, domain=domain)


def _random_coeffs(rng, char):
    n = rng.randint(0, MAX_DEGREE + 1)
    if char:
        return poly([rng.randrange(char) for _ in range(n)], char)
    # integer coefficients a third of the time: a kernel that skips the
    # Fraction when the common denominator is 1 must still be caught
    dens = (1,) if rng.random() < 1 / 3 else (1, 2, 3, 4)
    return poly([Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)], char)


def _kernel_form(cs, char):
    # a kernel operand: over Z[t] for p = 0, times the lcm of its denominators
    if char:
        return cs
    m = math.lcm(*[c.denominator for c in cs])
    return tuple(int(c * m) for c in cs)


def _monic_gcd(g, char):
    if char or not g:
        return g
    assert math.gcd(*g) == 1 and g[-1] > 0, g
    return tuple(Fraction(c, g[-1]) for c in g)


def _division_scale(q, Q, char):
    # the s of s * a = q * b + r; 1 over F_p and when the quotient is zero
    if char or not q:
        return 1
    s = Rational(q[-1]) / Q.LC()
    assert s.is_integer and s > 0, s
    return s


def _assert_coeff_types(cs, char, q_type=int):
    if char:
        assert all(type(c) is int and 0 <= c < char for c in cs), cs
    else:
        assert all(type(c) is q_type for c in cs), cs


@pytest.mark.parametrize("field_str", FIELD_STRINGS)
def test_poly_mul_and_gcd_match_sympy(field_str):
    char = ValuationSpec.from_string(field_str).residue_char
    rng = random.Random(f"sympy-poly:{field_str}")
    for _ in range(100):
        a, b, c = (_kernel_form(_random_coeffs(rng, char), char) for _ in range(3))
        # a shared factor c makes most gcds nontrivial
        ac, bc = poly_mul(a, c, char), poly_mul(b, c, char)
        A, B, C = (_sympy_poly(x, char) for x in (a, b, c))
        assert _sympy_poly(ac, char) == A * C
        abc = poly_mul(ac, bc, char)
        assert _sympy_poly(abc, char) == A * C * B * C
        g = poly_gcd(ac, bc, char)
        assert _sympy_poly(_monic_gcd(g, char), char) == (A * C).gcd(B * C)
        for cs in (ac, abc, g):
            _assert_coeff_types(cs, char)


@pytest.mark.parametrize("field_str", FIELD_STRINGS)
def test_poly_divmod_matches_sympy(field_str):
    char = ValuationSpec.from_string(field_str).residue_char
    rng = random.Random(f"sympy-divmod:{field_str}")
    for i in range(100):
        a = _kernel_form(_random_coeffs(rng, char), char)
        b = ()
        while not b:
            b = _kernel_form(_random_coeffs(rng, char), char)
        if i % 3 == 0:
            a = poly_mul(a, b, char)  # zero remainder
        q, r = poly_divmod(a, b, char)
        Q, R = _sympy_poly(a, char).div(_sympy_poly(b, char))
        s = _division_scale(q, Q, char)
        assert _sympy_poly(q, char) == Q * s
        assert _sympy_poly(r, char) == R * s
        if i % 3 == 0:
            assert r == () and s == 1
        assert len(r) < len(b)
        for cs in (q, r):
            _assert_coeff_types(cs, char)


@pytest.mark.parametrize("field_str", [f for f in FIELD_STRINGS if f.startswith("tadic")])
def test_field_element_arithmetic_keeps_coefficient_types(field_str):
    field = FieldSpec.from_string(field_str)
    rng = random.Random(f"coeff-types:{field_str}")
    for _ in range(100):
        x, y = random_nonzero_element(field, rng), random_nonzero_element(field, rng)
        for z in (x + y, x - y, x * y, x / y, x - x):
            _assert_coeff_types(z.num, field.param, Fraction)
            _assert_coeff_types(z.den, field.param, Fraction)


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
