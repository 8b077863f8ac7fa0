"""The valuation filtration R_n = {x : v(x) >= n} of the valuation ring.

Level 0 is the ring R itself and each level is an ideal of R; products
of levels satisfy R_n R_m = R_{n+m} (the strong filtration property,
witnessed constructively by :func:`strong_split`), and the chain agrees
with the m-adic chain m^n (:func:`adic_vs_valuation`).  The membership
predicate accepts any integer level, which shifted modules need; the
axiom checkers run on levels n >= 0 only.
"""

from __future__ import annotations

from . import sampling
from .elements import DomainError, FieldElement, format_element
from .reports import CheckReport, _Tally
from .valuation import ValuationSpec


def level_member(spec: ValuationSpec, x: FieldElement, n: int) -> bool:
    """True iff v(x) >= n; the zero element lies in every level."""
    return spec.valuation(x) >= n


def check_filtration_axioms(
    spec: ValuationSpec, seed: int, samples: int, max_level: int
) -> CheckReport:
    """Sampled verification of the filtration axioms on levels 0..max_level.

    Per level n: R_{n+1} subset of R_n, closure of R_n under addition, and
    closure under multiplication by R (the ideal property).  Per level pair
    (n, m): products of members of R_n and R_m land in R_{n+m}.
    """
    sampling._require_ints(max_level=max_level)
    if max_level < 1:
        raise DomainError("max_level must be >= 1")
    rng = sampling._seeded(seed, samples)
    field = spec.field
    subset, sums, rmul, prod = map(_Tally, ("subset", "sum-closure", "ring-multiple", "product"))
    for n in range(max_level + 1):
        for _ in range(samples):
            x = sampling.random_level_element(field, rng, n + 1)
            subset.check(level_member(spec, x, n), _at_levels, (x,), n + 1)
            a = sampling.random_level_element(field, rng, n)
            b = sampling.random_level_element(field, rng, n)
            sums.check(level_member(spec, a + b, n), _at_levels, (a, b), n)
            r = sampling.random_ring_element(field, rng)
            rmul.check(level_member(spec, r * a, n), _at_levels, (r, a), n)
    for n in range(max_level + 1):
        for m in range(max_level + 1):
            for _ in range(samples):
                a = sampling.random_level_element(field, rng, n)
                b = sampling.random_level_element(field, rng, m)
                prod.check(level_member(spec, a * b, n + m), _at_levels, (a, b), n, m)
    return CheckReport((subset.axiom(), sums.axiom(), rmul.axiom(), prod.axiom()))


def _at_levels(xs: tuple, *levels: int) -> str:
    where = "level" if len(levels) == 1 else "levels"
    return f"{','.join(map(format_element, xs))} ({where} {','.join(map(str, levels))})"


def strong_split(
    spec: ValuationSpec, c: FieldElement, n: int, m: int
) -> "tuple[FieldElement, FieldElement]":
    """Split c in R_{n+m} as a * b with a in R_n, b in R_m, exactly.

    The witness is canonical and deterministic: a = pi^n, b = pi^-n * c;
    any pair satisfying the postcondition would do.
    """
    if c.is_zero:
        raise DomainError("cannot split the zero element")
    if n < 0 or m < 0:
        raise DomainError("split levels must be nonnegative")
    if spec.valuation(c) < n + m:
        raise DomainError(
            f"{format_element(c)} has valuation {spec.valuation(c)} < {n + m}"
        )
    return spec.uniformizer_power(n), c.shift(-n)


def adic_vs_valuation(spec: ValuationSpec, n: int, seed: int, samples: int) -> CheckReport:
    """Sampled verification that m^n = R_n.

    One direction multiplies n sampled members of m and checks the product
    lands in R_n; the other exhibits each sampled member of R_n as
    pi^n * r with r in R and multiplies the witness back.
    """
    if n < 0:
        raise DomainError("level must be nonnegative")
    rng = sampling._seeded(seed, samples)
    field = spec.field
    pin = spec.uniformizer_power(n)
    prod, wit = _Tally("power-product-in-level"), _Tally("pi-power-witness")
    for _ in range(samples):
        x = FieldElement.one(field)
        factors = []
        for _ in range(n):
            f = sampling.random_maximal_ideal_element(field, rng)
            factors.append(f)
            x = x * f
        prod.check(level_member(spec, x, n), _product_text, factors)
    for _ in range(samples):
        x = sampling.random_level_element(field, rng, n)
        r = x / pin
        wit.check(spec.valuation(r) >= 0 and pin * r == x, format_element, x)
    return CheckReport((prod.axiom(), wit.axiom()))


def _product_text(factors: list) -> str:
    return "*".join(map(format_element, factors))


def principal_generator(spec: ValuationSpec, generators: "list[FieldElement]") -> int | None:
    """Exponent e with (generators) = (pi^e), or None for the zero ideal.

    All generators must lie in R; the ideal they generate in a discrete
    valuation ring is (pi^e) with e the minimum of their valuations.
    """
    for g in generators:
        if spec.valuation(g) < 0:
            raise DomainError(f"generator {format_element(g)} lies outside the ring")
    from .ideals import ideal_from_generators

    return ideal_from_generators(spec, generators).exponent
