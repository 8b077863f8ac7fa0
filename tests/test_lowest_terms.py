"""Arithmetic results built in lowest terms, checked against full canonicalization.

Every test here runs under the ``trusted_guard`` fixture, which re-runs the
backend's canonicalization on each result that arithmetic stores without
it; the tests that take valuations also run under ``valuation_guard``,
which recomputes each one from the element's own num/den.  The oracles are
the canonicalizing constructor applied to the schoolbook cross products
and to pi^n, and Laplace expansion for determinants.
"""

import itertools
import random
from fractions import Fraction

import pytest

from dvrfilt import DomainError, FieldElement, FieldSpec, ValuationSpec, det, mat_mul, pi_power, snf
from dvrfilt import sampling
from dvrfilt.elements import MAX_EXPONENT

from conftest import GUARD_FIELDS
from instances import random_matrix

pytestmark = pytest.mark.usefixtures("trusted_guard")


def _coefficient_types_hold(x):
    if x.spec.kind == "padic":
        return type(x.num) is int and type(x.den) is int
    p = x.spec.param
    if p:
        return all(type(c) is int and 0 <= c < p for c in x.num + x.den)
    return all(type(c) is Fraction for c in x.num + x.den)


def _raw(x):
    return repr((x.num, x.den))


def _samples(spec, rng, count):
    # zero, units, and elements of every valuation in [-6, 6]
    out = [FieldElement.zero(spec), FieldElement.one(spec), pi_power(spec, 3)]
    out += [sampling.random_element(spec, rng) for _ in range(count)]
    return out


def _canonical_pi_power(spec, n):
    # built by the canonicalizing constructor, independent of shift
    power = spec.param ** abs(n) if spec.kind == "padic" else (0,) * abs(n) + (1,)
    one = spec.backend.one
    return FieldElement(spec, power, one) if n >= 0 else FieldElement(spec, one, power)


@pytest.mark.parametrize("field", GUARD_FIELDS)
def test_shift_is_multiplication_by_a_pi_power(field):
    spec = FieldSpec.from_string(field)
    rng = random.Random(f"shift:{field}")
    for n in range(-8, 9):
        assert _raw(pi_power(spec, n)) == _raw(_canonical_pi_power(spec, n))
    for x in _samples(spec, rng, 60):
        for n in range(-8, 9):
            y = x.shift(n)
            assert _raw(y) == _raw(_canonical_pi_power(spec, n) * x)
            assert _coefficient_types_hold(y)


@pytest.mark.parametrize("field", GUARD_FIELDS)
def test_shift_rejects_exponents_past_the_bound(field):
    x = FieldElement.one(FieldSpec.from_string(field))
    for n in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1):
        with pytest.raises(DomainError):
            x.shift(n)


@pytest.mark.parametrize("field", GUARD_FIELDS)
def test_henrici_arithmetic_matches_full_canonicalization(field):
    spec = FieldSpec.from_string(field)
    ring = spec.backend
    mul = ring.mul
    rng = random.Random(f"henrici:{field}")
    xs = _samples(spec, rng, 30)
    for a, b in itertools.product(xs, repeat=2):
        cross = (mul(a.num, b.den), mul(b.num, a.den), mul(a.den, b.den))
        assert _raw(a + b) == _raw(FieldElement(spec, ring.add(cross[0], cross[1]), cross[2]))
        assert _raw(a - b) == _raw(FieldElement(spec, ring.sub(cross[0], cross[1]), cross[2]))
        assert _raw(a * b) == _raw(FieldElement(spec, mul(a.num, b.num), cross[2]))
        if b:
            assert _raw(a / b) == _raw(FieldElement(spec, cross[0], mul(a.den, b.num)))
            assert _raw(b.inverse()) == _raw(FieldElement(spec, b.den, b.num))
        assert _raw(-a) == _raw(FieldElement(spec, ring.neg(a.num), a.den))
        assert all(_coefficient_types_hold(y) for y in (a + b, a - b, a * b))


@pytest.mark.usefixtures("valuation_guard")
@pytest.mark.parametrize("field", GUARD_FIELDS)
def test_field_axioms_in_lowest_terms(field):
    spec = FieldSpec.from_string(field)
    v = ValuationSpec(spec).valuation
    rng = random.Random(f"axioms:{field}")
    one, zero = FieldElement.one(spec), FieldElement.zero(spec)
    for _ in range(150):
        a, b, c = (sampling.random_element(spec, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == zero and a + (-a) == zero
        # each of a and b is valued again in every law: later calls hit the cache
        assert v(a * b) == v(a) + v(b)
        assert v(a + b) >= min(v(a), v(b))
        assert v(-a) == v(a)
        if a:
            assert a * a.inverse() == one
            assert (b * a) / a == b
            assert a ** 3 / a ** -2 == a * a * a * a * a
            assert v(a.inverse()) + v(a) == 0
            assert v(a.shift(3)) == v(a) + 3


@pytest.mark.parametrize("field", GUARD_FIELDS)
def test_samplers_keep_draw_order_and_strata(field):
    # each sampler equals pi^k * unit built from an identically seeded
    # generator, so the shift path consumes exactly the old draws
    spec = FieldSpec.from_string(field)
    v = ValuationSpec(spec).valuation
    for seed in range(120):
        rng, ref = random.Random(seed), random.Random(seed)
        x = sampling.random_nonzero_element(spec, rng)
        k = ref.randint(-6, 6)
        assert _raw(x) == _raw(pi_power(spec, k) * sampling.random_unit(spec, ref))
        assert v(x) == k
        n = seed % 5
        x = sampling.random_nonzero_level_element(spec, rng, n)
        k = n + ref.randint(0, 6)
        assert _raw(x) == _raw(pi_power(spec, k) * sampling.random_unit(spec, ref))
        assert v(x) == k
        x = sampling.random_level_element(spec, rng, n)
        assert _raw(x) == _raw(pi_power(spec, n) * sampling.random_ring_element(spec, ref))
        assert v(x) >= n
        assert _coefficient_types_hold(x)
        x = sampling.random_maximal_ideal_element(spec, rng)
        k = 1 + ref.randint(0, 6)
        assert _raw(x) == _raw(pi_power(spec, k) * sampling.random_unit(spec, ref))
        assert v(x) == k
        assert rng.getstate() == ref.getstate()


def _laplace(spec, a):
    if len(a) == 1:
        return a[0][0]
    total = FieldElement.zero(spec.field)
    for j, x in enumerate(a[0]):
        minor = tuple(row[:j] + row[j + 1 :] for row in a[1:])
        term = x * _laplace(spec, minor)
        total = total - term if j % 2 else total + term
    return total


@pytest.mark.usefixtures("valuation_guard")
@pytest.mark.parametrize("field", GUARD_FIELDS)
def test_snf_and_det_in_lowest_terms(field):
    spec = ValuationSpec.from_string(field)
    rng = random.Random(f"snf:{field}")
    for _ in range(25 if field == "tadic:0" else 60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        a = random_matrix(spec, rng, rows, cols, 3)
        u, d, w = snf(spec, a)
        assert mat_mul(spec, mat_mul(spec, u, a), w) == d
        assert spec.valuation(det(spec, u)) == 0 and spec.valuation(det(spec, w)) == 0
        if rows == cols:
            assert _raw(det(spec, a)) == _raw(_laplace(spec, a))
