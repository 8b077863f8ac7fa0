"""The samplers against their plain draw route (``sampling_reference.py``).

``dvrfilt.sampling`` draws through ``rng._randbelow`` and builds each
element in canonical form straight from its draws.  Every public sampler
runs next to its reference on identically seeded generators: after each
call the two elements must have the same repr (so ``1`` and
``Fraction(1)`` differ) and the two generators the same state.  The oracle
runs under ``trusted_guard``, which re-canonicalizes every pair that is
stored without a check.
"""

import random

import pytest

import sampling_reference as reference
from conftest import FIELD_STRINGS
from dvrfilt import DomainError, FieldSpec, sampling
from dvrfilt.elements import MAX_EXPONENT

ORACLE_FIELDS = FIELD_STRINGS + ("padic:7919", "tadic:101")

# k windows, equal ends included, and negative, zero and large levels; 7919^256
# stays under the int-to-str digit limit that the guard's repr would hit
WINDOWS = ((-6, 6), (0, 0), (5, 5), (-3, -3), (-9, 2), (250, 250))
LEVELS = (-40, -7, -1, 0, 1, 2, 11, 250)


def _calls():
    yield "random_unit", ()
    yield "random_nonzero_element", ()
    yield "random_element", ()
    yield "random_ring_element", ()
    for window in WINDOWS:
        yield "random_nonzero_element", window
        yield "random_element", window
    for n in LEVELS:
        yield "random_level_element", (n,)
        yield "random_nonzero_level_element", (n,)
    yield "random_maximal_ideal_element", ()


CALLS = tuple(_calls())


def _assert_same_route(spec, seed, calls):
    rng, plain = random.Random(seed), random.Random(seed)
    for name, args in calls:
        x = getattr(sampling, name)(spec, rng, *args)
        y = getattr(reference, name)(spec, plain, *args)
        assert repr(x) == repr(y), (str(spec), seed, name, args)
        assert rng.getstate() == plain.getstate(), (str(spec), seed, name, args)


def test_every_public_sampler_is_compared():
    public = {name for name in vars(sampling) if name.startswith("random_")}
    assert public == {name for name, _ in CALLS}


@pytest.mark.usefixtures("trusted_guard")
@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_samplers_match_the_plain_draw_route(field):
    spec = FieldSpec.from_string(field)
    for seed in range(100):
        _assert_same_route(spec, seed, CALLS)


@pytest.mark.usefixtures("trusted_guard")
@pytest.mark.parametrize("field", ("tadic:3", "tadic:0"))
def test_levels_at_the_exponent_bound(field):
    # only n is bounded: k + n may pass MAX_EXPONENT, as after two shifts
    spec = FieldSpec.from_string(field)
    calls = [("random_level_element", (n,)) for n in (MAX_EXPONENT, -MAX_EXPONENT, MAX_EXPONENT - 3)]
    for seed in range(2):
        _assert_same_route(spec, seed, calls)


def _error(sampler, *args):
    with pytest.raises(Exception) as info:
        sampler(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("field", ("padic:2", "tadic:3"))
def test_rejections_match_the_plain_route(field):
    spec = FieldSpec.from_string(field)
    cases = [
        ("random_level_element", (n,))
        for n in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1, True, False, 1.0)
    ] + [
        # a bool window is rejected before any draw, unlike randint's route
        # (tests/test_checker_failures.py)
        ("random_nonzero_element", window)
        for window in ((3, 2), (0, -5), (7, -7))
    ] + [
        ("random_nonzero_element", (k, k)) for k in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1)
    ] + [("random_nonzero_level_element", (MAX_EXPONENT + 1,))]
    for seed in range(20):
        for name, args in cases:
            got = _error(getattr(sampling, name), spec, random.Random(seed), *args)
            want = _error(getattr(reference, name), spec, random.Random(seed), *args)
            assert got == want, (name, args)
            assert got[0] in (DomainError, ValueError)
