"""Element representation, parsing, formatting, and field arithmetic."""

import random
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dvrfilt import (
    DomainError,
    FieldElement,
    FieldSpec,
    ParseError,
    ValuationSpec,
    field_arith,
    format_element,
    parse_element,
    parse_graded,
    pi_power,
)
from dvrfilt.elements import MAX_EXPONENT, PRIME_TEST_BOUND, is_prime, poly_gcd, poly_mul
from dvrfilt.sampling import random_nonzero_element

from conftest import FIELD_STRINGS

F2 = FieldSpec.from_string("padic:2")
T3 = FieldSpec.from_string("tadic:3")
T0 = FieldSpec.from_string("tadic:0")


# -- independent oracle: naive polynomial division over F_p, used to show a
# -- fraction has no common factor without touching the library's gcd path

def _naive_rem(a, b, p):
    a = list(a)
    while len(a) >= len(b) and any(a):
        while a and a[-1] % p == 0:
            a.pop()
        if len(a) < len(b):
            break
        factor = a[-1] * pow(b[-1], -1, p) % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
        while a and a[-1] % p == 0:
            a.pop()
    return tuple(c % p for c in a)


def _monic_polys(p, degree):
    if degree == 0:
        yield (1,)
        return
    for mask in range(p**degree):
        coeffs = []
        rest = mask
        for _ in range(degree):
            coeffs.append(rest % p)
            rest //= p
        yield tuple(coeffs) + (1,)


def _has_common_factor(a, b, p):
    bound = min(len(a), len(b)) - 1
    for deg in range(1, bound + 1):
        for cand in _monic_polys(p, deg):
            if not _naive_rem(a, p=p, b=cand) and not _naive_rem(b, p=p, b=cand):
                return True
    return False


def test_parse_reduces_integer_fraction():
    x = parse_element("8/12", F2)
    assert (x.num, x.den) == (2, 3)
    assert format_element(x) == "2/3"


def test_parse_zero():
    for text in ("0", "-0", "0/7"):
        assert parse_element(text, F2).is_zero
    assert parse_element("0", T3).is_zero


def test_parse_tadic_fraction_already_reduced():
    x = parse_element("(t^2+2*t)/(t+1)", T3)
    # oracle: brute-force divisor search finds no common monic factor,
    # so the parsed fraction must keep numerator and denominator verbatim
    assert not _has_common_factor((0, 2, 1), (1, 1), 3)
    assert x.num == (0, 2, 1)
    assert x.den == (1, 1)


def test_parse_tadic_reduces_common_factor():
    # (t^2+t)/(t) shares the factor t
    x = parse_element("(t^2+t)/(t)", T3)
    assert x.num == (1, 1)
    assert x.den == (1,)


def test_parse_normalizes_monic_denominator():
    x = parse_element("(t+3)/(2*t+2)", T0)
    assert x.den == (Fraction(1), Fraction(1))
    assert x.num == (Fraction(3, 2), Fraction(1, 2))
    assert format_element(x) == "(1/2*t+3/2)/(t+1)"


def test_coefficients_reduced_mod_p():
    x = parse_element("4*t+7", T3)
    assert x.num == (1, 1)


@pytest.mark.parametrize(
    "text",
    ["", "abc", "1//2", "t^", "2*", "(t", "t)", "(t+1)/(t+1)/(t+1)", "t+/1", "--1",
     "\u0665/\u0663", "t^\u0663", "\uff11*t"],
)
def test_parse_rejects_malformed(text):
    spec = T3 if "t" in text or "(" in text or ")" in text else F2
    with pytest.raises((ParseError, ZeroDivisionError)):
        parse_element(text, spec)


def test_parse_rejects_zero_denominator_polynomial():
    with pytest.raises((ParseError, ZeroDivisionError)):
        parse_element("(t+1)/(0)", T3)
    with pytest.raises(ParseError):
        parse_element("1/0", F2)


def test_composite_param_rejected_at_construction():
    with pytest.raises(ParseError):
        FieldSpec.from_string("padic:4")
    with pytest.raises(ParseError):
        FieldSpec.from_string("tadic:6")
    with pytest.raises(ParseError):
        FieldSpec.from_string("padic:0")
    assert FieldSpec.from_string("tadic:0").param == 0


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(3000) if is_prime(n)] == [
        n for n in range(3000) if _trial_division_is_prime(n)
    ]


def test_large_prime_params_are_accepted():
    # the Mersenne prime 2^61 - 1 is far beyond what trial division settles
    assert FieldSpec.from_string("padic:2305843009213693951").param == 2**61 - 1
    assert FieldSpec("tadic", 2**61 - 1).param == 2**61 - 1


def test_pseudoprimes_are_rejected():
    # Carmichael numbers fool the Fermat test for every coprime base; 2047
    # and 3215031751 are strong pseudoprimes to the first one and four bases
    for n in (561, 1105, 1729, 2047, 3215031751, (2**31 - 1) * 1000000007):
        assert not is_prime(n)
    with pytest.raises(ParseError):
        FieldSpec.from_string("padic:561")


def test_params_above_the_primality_bound_are_rejected():
    with pytest.raises(ParseError):
        FieldSpec.from_string(f"padic:{PRIME_TEST_BOUND}")
    with pytest.raises(ParseError):
        FieldSpec("tadic", 2**127 - 1)
    with pytest.raises(DomainError):
        is_prime(PRIME_TEST_BOUND)


@pytest.mark.parametrize("bad", [1.7, 2.0, "3", Fraction(3, 2), None])
def test_padic_element_rejects_non_integer_parts(bad):
    with pytest.raises(DomainError):
        FieldElement(F2, bad, 1)
    with pytest.raises(DomainError):
        FieldElement(F2, 1, bad)


class _Small(IntEnum):
    ONE = 1
    TWO = 2


# bool and IntEnum are int subclasses; like exponents and shifts, element
# parts must be plain ints, with no silent coercion
INT_SUBCLASS_VALUES = (True, False, _Small.ONE, _Small.TWO)


def test_padic_element_rejects_int_subclasses():
    for bad in INT_SUBCLASS_VALUES:
        with pytest.raises(DomainError):
            FieldElement(F2, bad, 3)
        with pytest.raises(DomainError):
            FieldElement(F2, 1, bad)
        with pytest.raises(DomainError):
            FieldElement.from_int(F2, bad)
    assert FieldElement(F2, 1, 2) == parse_element("1/2", F2)


@pytest.mark.parametrize("field", [T3, T0], ids=["tadic:3", "tadic:0"])
def test_tadic_element_rejects_int_subclass_coefficients(field):
    for bad in INT_SUBCLASS_VALUES:
        with pytest.raises(DomainError):
            FieldElement(field, (bad,), (1,))
        with pytest.raises(DomainError):
            FieldElement(field, (1,), (2, bad))
        with pytest.raises(DomainError):
            FieldElement.from_int(field, bad)


def test_arith_inverse_pair():
    a = parse_element("2/3", F2)
    b = parse_element("3/2", F2)
    assert field_arith("mul", a, b) == FieldElement.one(F2)


def test_arith_add_halves():
    h = parse_element("1/2", F2)
    assert field_arith("add", h, h) == FieldElement.one(F2)


def test_arith_div_cross_checked_by_multiplying_back():
    num = parse_element("t^2", T3)
    den = parse_element("t+1", T3)
    q = field_arith("div", num, den)
    assert q * den == num
    assert format_element(q) == "(t^2)/(t+1)"


def test_arith_unary_and_errors():
    a = parse_element("2/3", F2)
    assert field_arith("neg", a) == parse_element("-2/3", F2)
    assert field_arith("inv", a) == parse_element("3/2", F2)
    with pytest.raises(ValueError):
        field_arith("add", a)
    with pytest.raises(ValueError):
        field_arith("neg", a, a)
    with pytest.raises(ZeroDivisionError):
        field_arith("div", a, FieldElement.zero(F2))
    with pytest.raises(ZeroDivisionError):
        FieldElement.zero(F2).inverse()


def test_format_examples():
    assert format_element(parse_element("2/3", F2)) == "2/3"
    assert format_element(FieldElement.zero(T3)) == "0"
    assert format_element(parse_element("t^2+2*t", T3)) == "t^2+2*t"


def test_mixed_spec_arithmetic_rejected():
    with pytest.raises(ValueError):
        parse_element("1", F2) + parse_element("1", FieldSpec.from_string("padic:5"))


def test_arbitrary_precision():
    big = 10**50
    x = FieldElement(F2, big + 1, big)
    y = x * FieldElement(F2, big, 1)
    assert (y.num, y.den) == (big + 1, 1)


@pytest.mark.parametrize("field_str", FIELD_STRINGS)
def test_roundtrip_thousand_random_elements(field_str):
    spec = FieldSpec.from_string(field_str)
    rng = random.Random(1234)
    for _ in range(1000):
        x = random_nonzero_element(spec, rng)
        assert parse_element(format_element(x), spec) == x
    assert parse_element(format_element(FieldElement.zero(spec)), spec).is_zero


@pytest.mark.usefixtures("trusted_guard")
@pytest.mark.parametrize("field_str", FIELD_STRINGS)
def test_canonical_uniqueness_mul_div(field_str):
    spec = FieldSpec.from_string(field_str)
    rng = random.Random(77)
    for _ in range(300):
        a = random_nonzero_element(spec, rng)
        b = random_nonzero_element(spec, rng)
        assert (a * b) / b == a


@pytest.mark.usefixtures("trusted_guard")
@pytest.mark.parametrize("field_str", FIELD_STRINGS)
def test_field_axioms_on_random_triples(field_str):
    spec = FieldSpec.from_string(field_str)
    rng = random.Random(4321)
    one = FieldElement.one(spec)
    zero = FieldElement.zero(spec)
    for _ in range(1000):
        a = random_nonzero_element(spec, rng)
        b = random_nonzero_element(spec, rng)
        c = random_nonzero_element(spec, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == zero
        assert a * a.inverse() == one
        assert a + b == b + a
        assert a * b == b * a


@given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**6))
def test_padic_roundtrip_hypothesis(num, den):
    x = FieldElement(F2, num, den)
    assert parse_element(format_element(x), F2) == x


@given(
    nums=st.lists(st.integers(0, 2), min_size=1, max_size=5),
    dens=st.lists(st.integers(0, 2), min_size=1, max_size=5),
)
def test_tadic_roundtrip_hypothesis(nums, dens):
    if not any(dens):
        dens = [1]
    x = FieldElement(T3, tuple(nums), tuple(dens))
    assert parse_element(format_element(x), T3) == x


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_pow_matches_repeated_multiplication(a, n):
    if a == 0:
        return
    x = FieldElement(F2, a, 7)
    m = abs(n) % 8
    expected = FieldElement.one(F2)
    for _ in range(m):
        expected = expected * x
    if n < 0:
        expected = expected.inverse()
        assert x ** (-m) == expected
    else:
        assert x**m == expected


@pytest.mark.parametrize("bad", [1.5, "1", None, 2j])
@pytest.mark.parametrize("field", [T3, T0], ids=["tadic:3", "tadic:0"])
def test_tadic_element_rejects_non_rational_coefficients(field, bad):
    with pytest.raises(DomainError):
        FieldElement(field, (bad,), (1,))
    with pytest.raises(DomainError):
        FieldElement(field, (1,), (1, bad))
    with pytest.raises(DomainError):
        FieldElement.from_int(field, bad)


@pytest.mark.parametrize("field", [T3, T0], ids=["tadic:3", "tadic:0"])
def test_tadic_element_rejects_bare_scalar_parts(field):
    for num, den in ((5, (1,)), ((1,), 2), (Fraction(1, 2), (1,))):
        with pytest.raises(DomainError):
            FieldElement(field, num, den)


def test_tadic_p_element_rejects_non_integer_fraction_coefficients():
    with pytest.raises(DomainError):
        FieldElement(T3, (Fraction(1, 2),), (1,))
    assert FieldElement(T3, (Fraction(4, 1),), (1,)) == FieldElement.one(T3)


@pytest.mark.parametrize("bad", [2.0, "7", True, None])
def test_field_spec_rejects_non_int_params(bad):
    with pytest.raises(ParseError):
        FieldSpec("padic", bad)
    with pytest.raises(ParseError):
        FieldSpec("tadic", bad)


def test_field_spec_equality_and_hash_ignore_the_backend():
    a, b = FieldSpec("tadic", 3), FieldSpec.from_string("tadic:3")
    assert a.backend is not b.backend
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert repr(a) == "FieldSpec(kind='tadic', param=3)"


def test_exponents_above_the_bound_are_rejected():
    # only exponents just past the bound, so a missing check stays cheap
    for text in (f"t^{MAX_EXPONENT + 1}", f"2*t^{MAX_EXPONENT + 1}+1", f"(1)/(t^{MAX_EXPONENT + 1})"):
        with pytest.raises(ParseError):
            parse_element(text, T3)
    with pytest.raises(ParseError):
        parse_graded(f"1 + T^{MAX_EXPONENT + 1}", ValuationSpec(T0))
    for field in (F2, T3):
        for n in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1):
            with pytest.raises(DomainError):
                pi_power(field, n)


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", Fraction(1)])
@pytest.mark.parametrize("field", [F2, T3], ids=str)
def test_non_integer_uniformizer_exponents_are_rejected(field, bad):
    with pytest.raises(DomainError):
        pi_power(field, bad)
    with pytest.raises(DomainError):
        FieldElement.one(field).shift(bad)


@pytest.mark.parametrize("bad", INT_SUBCLASS_VALUES + (1.5, 2.0, Fraction(2)), ids=repr)
@pytest.mark.parametrize("field", [F2, T3], ids=str)
def test_powers_take_plain_int_exponents_only(field, bad):
    # like shift and ideal exponents: no bool, IntEnum or float, no coercion
    x = parse_element("3/2" if field is F2 else "t+2", field)
    with pytest.raises(DomainError):
        x ** bad
    assert x ** 2 == x * x


@pytest.mark.parametrize("field", ["padic:2", "padic:101"])
def test_integer_order_of_zero_is_a_domain_error(field):
    # zero is divisible by every power of p, so counting factors never ends
    with pytest.raises(DomainError):
        FieldSpec.from_string(field).backend.order(0)


@pytest.mark.parametrize("field", ["tadic:2", "tadic:3", "tadic:0"])
def test_ring_gcd_agrees_with_poly_gcd(field):
    # zero, constants, pure t-powers, and products t^i * c * u that share the
    # factor c and some power of t
    spec = FieldSpec.from_string(field)
    ring, p = spec.backend, spec.param
    rng = random.Random(f"gcd:{field}")

    # ring values: int tuples, over Z[t] for tadic:0
    def t_power(i):
        return (0,) * i + (1,)

    def unit():
        return ring._random_unit_poly(rng)

    operands = [(), ring.one, (2,) if p != 2 else ring.one, t_power(1), t_power(3)]
    for _ in range(12):
        c = unit()
        for i in (0, 1, 4):
            operands.append(poly_mul(poly_mul(t_power(i), c, p), unit(), p))
    for a in operands:
        for b in operands:
            assert repr(ring.gcd(a, b)) == repr(poly_gcd(a, b, p))
