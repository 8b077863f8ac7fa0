"""The valuation filtration R_n = {x : v(x) >= n} of the valuation ring.

Level 0 is the ring R itself and each level is an ideal of R; products
of levels satisfy R_n R_m = R_{n+m} (the strong filtration property,
witnessed constructively by :func:`strong_split`), and the chain agrees
with the m-adic chain m^n (:func:`adic_vs_valuation`).  The membership
predicate accepts any integer level, which shifted modules need; the
axiom checkers run on levels n >= 0 only.
"""

from __future__ import annotations

import random

from . import sampling
from .elements import DomainError, FieldElement, format_element
from .reports import AxiomResult, CheckReport
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
    if max_level < 1:
        raise DomainError("max_level must be >= 1")
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = random.Random(seed)
    field = spec.field

    subset_pass = sum_pass = rmul_pass = 0
    subset_ce = sum_ce = rmul_ce = None
    per_level_total = (max_level + 1) * samples
    for n in range(max_level + 1):
        for _ in range(samples):
            x = sampling.random_level_element(field, rng, n + 1)
            if level_member(spec, x, n):
                subset_pass += 1
            elif subset_ce is None:
                subset_ce = f"{format_element(x)} (level {n + 1})"

            a = sampling.random_level_element(field, rng, n)
            b = sampling.random_level_element(field, rng, n)
            if level_member(spec, a + b, n):
                sum_pass += 1
            elif sum_ce is None:
                sum_ce = f"{format_element(a)},{format_element(b)} (level {n})"

            r = sampling.random_ring_element(field, rng)
            if level_member(spec, r * a, n):
                rmul_pass += 1
            elif rmul_ce is None:
                rmul_ce = f"{format_element(r)},{format_element(a)} (level {n})"

    prod_pass = 0
    prod_ce = None
    prod_total = (max_level + 1) * (max_level + 1) * samples
    for n in range(max_level + 1):
        for m in range(max_level + 1):
            for _ in range(samples):
                a = sampling.random_level_element(field, rng, n)
                b = sampling.random_level_element(field, rng, m)
                if level_member(spec, a * b, n + m):
                    prod_pass += 1
                elif prod_ce is None:
                    prod_ce = f"{format_element(a)},{format_element(b)} (levels {n},{m})"

    return CheckReport(
        (
            AxiomResult("subset", subset_pass, per_level_total, subset_ce),
            AxiomResult("sum-closure", sum_pass, per_level_total, sum_ce),
            AxiomResult("ring-multiple", rmul_pass, per_level_total, rmul_ce),
            AxiomResult("product", prod_pass, prod_total, prod_ce),
        )
    )


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
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = random.Random(seed)
    field = spec.field
    pin = spec.uniformizer_power(n)

    prod_pass = 0
    prod_ce = None
    for _ in range(samples):
        x = FieldElement.one(field)
        factors = []
        for _ in range(n):
            f = sampling.random_maximal_ideal_element(field, rng)
            factors.append(format_element(f))
            x = x * f
        if level_member(spec, x, n):
            prod_pass += 1
        elif prod_ce is None:
            prod_ce = "*".join(factors)

    wit_pass = 0
    wit_ce = None
    for _ in range(samples):
        x = sampling.random_level_element(field, rng, n)
        r = x / pin
        if spec.valuation(r) >= 0 and pin * r == x:
            wit_pass += 1
        elif wit_ce is None:
            wit_ce = format_element(x)

    return CheckReport(
        (
            AxiomResult("power-product-in-level", prod_pass, samples, prod_ce),
            AxiomResult("pi-power-witness", wit_pass, samples, wit_ce),
        )
    )


def principal_generator(spec: ValuationSpec, generators: "list[FieldElement]") -> int | None:
    """Exponent e with (generators) = (pi^e), or None for the zero ideal.

    All generators must lie in R; the ideal they generate in a discrete
    valuation ring is (pi^e) with e the minimum of their valuations.
    """
    best: int | None = None
    for g in generators:
        v = spec.valuation(g)
        if v.is_infinite:
            continue
        if v.finite < 0:
            raise DomainError(f"generator {format_element(g)} lies outside the ring")
        if best is None or v.finite < best:
            best = v.finite
    return best
