"""Seeded random element generation, stratified by valuation.

Elements are drawn as pi^k * u with k uniform in a window and u a random
unit (bounded numerator and denominator coprime to the uniformizer), so
every valuation stratum in the window is covered.  All functions consume
an explicit ``random.Random`` and are deterministic given its state.

The unit is the only draw that depends on the field kind; the field's
backend in ``elements`` makes it, so nothing here branches on the kind.
"""

from __future__ import annotations

import random

from .elements import FieldElement, FieldSpec


def random_unit(field: FieldSpec, rng: random.Random) -> FieldElement:
    """A random element of valuation exactly 0."""
    num, den = field.backend.random_unit(rng)
    return FieldElement(field, num, den)


def random_nonzero_element(
    field: FieldSpec, rng: random.Random, kmin: int = -6, kmax: int = 6
) -> FieldElement:
    k = rng.randint(kmin, kmax)  # drawn before the unit, as every seeded sample expects
    return random_unit(field, rng).shift(k)


def random_element(field: FieldSpec, rng: random.Random, kmin: int = -6, kmax: int = 6) -> FieldElement:
    """Like :func:`random_nonzero_element` but zero with probability 1/12."""
    if rng.randrange(12) == 0:
        return FieldElement.zero(field)
    return random_nonzero_element(field, rng, kmin, kmax)


def random_ring_element(field: FieldSpec, rng: random.Random) -> FieldElement:
    return random_element(field, rng, kmin=0, kmax=6)


def random_level_element(field: FieldSpec, rng: random.Random, n: int) -> FieldElement:
    """A random member of the level set {v >= n} (zero included occasionally)."""
    return random_ring_element(field, rng).shift(n)


def random_nonzero_level_element(field: FieldSpec, rng: random.Random, n: int) -> FieldElement:
    return random_nonzero_element(field, rng, n, n + 6)


def random_maximal_ideal_element(field: FieldSpec, rng: random.Random) -> FieldElement:
    """A random nonzero element of valuation >= 1."""
    return random_nonzero_level_element(field, rng, 1)
