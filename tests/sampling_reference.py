"""The samplers on their plain draw route, as a reference for the tests.

Each draw goes through ``randrange``, ``randint`` or ``choice``, each unit
through the canonicalizing ``FieldElement`` constructor, and pi^k is
applied with ``FieldElement.shift``: a level element is shifted twice.
``dvrfilt.sampling`` must give the same elements, coefficient types
included, and leave the generator in the same state.
"""

from dvrfilt.elements import FieldElement


def _unit_poly(p, rng):
    deg = rng.randrange(0, 4)
    if p:
        cs = [rng.randrange(p) for _ in range(deg + 1)]
        cs[0] = rng.randrange(1, p)
        if deg and cs[-1] == 0:
            cs[-1] = rng.randrange(1, p)
    else:
        cs = [rng.randrange(-5, 6) for _ in range(deg + 1)]
        cs[0] = rng.choice((1, 2, 3, -1, -2, 5))
        if deg and cs[-1] == 0:
            cs[-1] = rng.choice((1, -1, 2))
    return cs


def _unit_pair(field, rng):
    p = field.param
    if field.kind == "tadic":
        return _unit_poly(p, rng), _unit_poly(p, rng)
    num = rng.randrange(1, 50)
    while num % p == 0:
        num = rng.randrange(1, 50)
    den = rng.randrange(1, 50)
    while den % p == 0:
        den = rng.randrange(1, 50)
    if rng.random() < 0.5:
        num = -num
    return num, den


def random_unit(field, rng):
    return FieldElement(field, *_unit_pair(field, rng))


def random_nonzero_element(field, rng, kmin=-6, kmax=6):
    k = rng.randint(kmin, kmax)
    return random_unit(field, rng).shift(k)


def random_element(field, rng, kmin=-6, kmax=6):
    if rng.randrange(12) == 0:
        return FieldElement.zero(field)
    return random_nonzero_element(field, rng, kmin, kmax)


def random_ring_element(field, rng):
    return random_element(field, rng, kmin=0, kmax=6)


def random_level_element(field, rng, n):
    return random_ring_element(field, rng).shift(n)


def random_nonzero_level_element(field, rng, n):
    return random_nonzero_element(field, rng, n, n + 6)


def random_maximal_ideal_element(field, rng):
    return random_nonzero_level_element(field, rng, 1)
