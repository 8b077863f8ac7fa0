"""tadic:0 against the Fraction kernels it used to run on (``qpoly_reference.py``).

``tadic:0`` elements are stored as primitive Z[t] pairs and show
``Fraction`` tuples over a monic ``den`` only through their public
``num``/``den``.  Derandomized hypothesis draws operands (zero, t-powers,
units with nontrivial content, general quotients) and every result is
compared with the reference's: arithmetic, shift, valuation, residue,
text and the parse round-trip, det, clear_denominators and the samplers'
draws with their generator state.  Everything runs under
``trusted_guard``, which re-canonicalizes every stored pair.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qpoly_reference as ref
from dvrfilt import FieldElement, FieldSpec, ValuationSpec, det, format_element, parse_element, sampling

T0 = FieldSpec.from_string("tadic:0")
ST0 = ValuationSpec(T0)

pytestmark = pytest.mark.usefixtures("trusted_guard")
fixture_settings = settings(suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])

_DENOMINATORS = st.integers(1, 12)
_FRACTIONS = st.builds(Fraction, st.integers(-30, 30), _DENOMINATORS)
_NONZERO = st.builds(Fraction, st.integers(-30, 30).filter(bool), _DENOMINATORS)
_SHAPES = st.sampled_from(("zero", "t-power", "content", "general"))
_CONTENTS = st.sampled_from((6, 10, 12, 35, Fraction(4, 9)))
_DEN_CONTENTS = st.sampled_from((1, 2, 15, Fraction(1, 6)))
_COEFFS = st.lists(_FRACTIONS, min_size=0, max_size=4)


@st.composite
def _polys(draw, nonzero=True):
    cs = draw(_COEFFS)
    if (nonzero and not cs) or (cs and not cs[-1]):
        cs.append(draw(_NONZERO))
    return tuple(cs)


@st.composite
def _pairs(draw):
    """Coefficient tuples (num, den) of one of four shapes."""
    shape = draw(_SHAPES)
    if shape == "zero":
        return (), draw(_polys())
    if shape == "t-power":
        power = (0,) * draw(st.integers(0, 4)) + (draw(_NONZERO),)
        return (power, (draw(_NONZERO),)) if draw(st.booleans()) else ((draw(_NONZERO),), power)
    if shape == "content":
        # a unit (nonzero constant term) times a rational content on each side
        num, den = draw(_polys()), draw(_polys())
        num, den = (draw(_NONZERO),) + num[1:], (draw(_NONZERO),) + den[1:]
        c, e = draw(_CONTENTS), draw(_DEN_CONTENTS)
        return tuple(c * x for x in num), tuple(e * x for x in den)
    return draw(_polys(nonzero=False)), draw(_polys())


PAIRS = _pairs()


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 3))
    return [[draw(PAIRS) for _ in range(n)] for _ in range(n)]


def _both(pair):
    """The element as dvrfilt builds it and as the reference does."""
    return FieldElement(T0, *pair), ref.canonical(*pair)


def _same(x, r):
    assert (repr(x.num), repr(x.den)) == (repr(r[0]), repr(r[1]))
    assert repr(x) == f"FieldElement(spec={T0!r}, num={r[0]!r}, den={r[1]!r})"
    assert format_element(x) == ref.format_element(r)
    assert parse_element(format_element(x), T0) == x


@fixture_settings
@given(PAIRS, PAIRS, st.integers(-5, 5))
def test_arithmetic_matches_the_fraction_reference(p, q, n):
    (x, rx), (y, ry) = _both(p), _both(q)
    _same(x, rx)
    _same(y, ry)
    _same(x + y, ref.add(rx, ry))
    _same(x - y, ref.sub(rx, ry))
    _same(x * y, ref.mul(rx, ry))
    _same(-x, ref.neg(rx))
    _same(x.shift(n), ref.shift(rx, n))
    if y:
        _same(x / y, ref.div(rx, ry))
        _same(y.inverse(), ref.inverse(ry))
        assert ST0.valuation(y).finite == ref.valuation(ry)
        if ref.valuation(ry) >= 0:
            assert repr(ST0.residue(y).value) == repr(ref.residue(ry))


@fixture_settings
@given(_square_matrices())
def test_det_and_clear_denominators_match_the_fraction_reference(rows):
    pairs = [[_both(p) for p in row] for row in rows]
    a = [[x for x, _ in row] for row in pairs]
    ra = [[r for _, r in row] for row in pairs]
    _same(det(ST0, a), ref.det(ra))
    for row, rrow in zip(a, ra):
        nums, scale = T0.backend.clear_denominators(row)
        rnums, rscale = ref.clear_denominators(rrow)
        assert all(type(c) is int for num in nums for c in num)
        # Z[t] and Q[t] scales differ by a rational constant c, and so do the numerators
        c = scale / FieldElement(T0, rscale, (1,))
        assert len(c.num) == len(c.den) == 1
        for num, rnum in zip(nums, rnums):
            assert FieldElement(T0, num, (1,)) == c * FieldElement(T0, rnum, (1,))


@fixture_settings
@given(st.integers(0, 2**32), st.integers(-8, 8), st.integers(0, 8))
def test_draws_match_the_fraction_reference(seed, kmin, width):
    rng, plain = random.Random(seed), random.Random(seed)
    for _ in range(4):
        _same(sampling.random_unit(T0, rng), ref.random_unit(plain))
        assert rng.getstate() == plain.getstate()
        _same(sampling.random_nonzero_element(T0, rng, kmin, kmin + width), ref.random_nonzero_element(plain, kmin, kmin + width))
        assert rng.getstate() == plain.getstate()
