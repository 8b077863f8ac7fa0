"""Seeded random element generation, stratified by valuation.

Elements are drawn as pi^k * u with k uniform in a window and u a random
unit (bounded numerator and denominator coprime to the uniformizer), so
every valuation stratum in the window is covered.  All functions consume
an explicit ``random.Random`` and are deterministic given its state.

The field's backend in ``elements`` draws the unit, the only kind-dependent
draw.  Draws call ``rng._randbelow``, as ``randrange``/``randint``/``choice`` do.
"""

from __future__ import annotations

import random

from .elements import MAX_EXPONENT, DomainError, FieldElement, FieldSpec


def _require_ints(**values) -> None:
    """Reject every value that is not a plain int (bool and other subclasses included)."""
    for name, value in values.items():
        if type(value) is not int:
            raise DomainError(f"{name} must be an int, not {type(value).__name__}")


def _seeded(seed: int, samples: int) -> random.Random:
    """The generator of a sampled check, once its seed and sample count are plain ints."""
    _require_ints(seed=seed, samples=samples)
    if samples < 1:
        raise DomainError("samples must be >= 1")
    return random.Random(seed)


def random_unit(field: FieldSpec, rng: random.Random) -> FieldElement:
    """A random element of valuation exactly 0."""
    return FieldElement._trusted(field, *field.backend.random_unit(rng))


def _pi_power_times_unit(field: FieldSpec, rng: random.Random, k: int) -> FieldElement:
    up, (num, den) = field.backend._up, field.backend.random_unit(rng)
    if k > 0:  # a unit's num and den have order 0, so pi^k cancels nothing
        num = up(num, k)
    elif k < 0:
        den = up(den, -k)
    return FieldElement._trusted(field, num, den)


def random_nonzero_element(
    field: FieldSpec, rng: random.Random, kmin: int = -6, kmax: int = 6
) -> FieldElement:
    if type(kmin) is not int or type(kmax) is not int:
        _require_ints(kmin=kmin, kmax=kmax)
    width = kmax - kmin + 1
    if width <= 0:  # randint's error, in CPython 3.10-3.11's words
        raise ValueError("empty range for randrange() (%d, %d, %d)" % (kmin, kmax + 1, width))
    k = kmin + rng._randbelow(width)  # drawn before the unit, as every seeded sample expects
    if abs(k) > MAX_EXPONENT:
        random_unit(field, rng).shift(k)  # shift's DomainError, after the unit's draws
    return _pi_power_times_unit(field, rng, k)


def random_element(field: FieldSpec, rng: random.Random, kmin: int = -6, kmax: int = 6) -> FieldElement:
    """Like :func:`random_nonzero_element` but zero with probability 1/12."""
    if type(kmin) is not int or type(kmax) is not int:  # before the draw that may give zero
        _require_ints(kmin=kmin, kmax=kmax)
    if rng._randbelow(12) == 0:
        return FieldElement.zero(field)
    return random_nonzero_element(field, rng, kmin, kmax)


def random_ring_element(field: FieldSpec, rng: random.Random) -> FieldElement:
    return random_element(field, rng, kmin=0, kmax=6)


def random_level_element(field: FieldSpec, rng: random.Random, n: int) -> FieldElement:
    """pi^n times a random ring element, in one step: a member of {v >= n}, zero occasionally."""
    if type(n) is not int or abs(n) > MAX_EXPONENT:
        FieldElement.zero(field).shift(n)  # shift's DomainError; only n is bounded, not k + n
    if rng._randbelow(12) == 0:
        return FieldElement.zero(field)
    return _pi_power_times_unit(field, rng, n + rng._randbelow(7))


def random_nonzero_level_element(field: FieldSpec, rng: random.Random, n: int) -> FieldElement:
    return random_nonzero_element(field, rng, n, n + 6)


def random_maximal_ideal_element(field: FieldSpec, rng: random.Random) -> FieldElement:
    """A random nonzero element of valuation >= 1."""
    return random_nonzero_level_element(field, rng, 1)
