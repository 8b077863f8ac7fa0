"""The semigroup-filtration function on the valuation ring and its ideal
spectrum.

The filtration function is the valuation restricted to R, taking values
in Z adjoined infinity (f(1) = 0, f(0) = infinity); it satisfies both
filtration axioms with equality.  Attached to it are the power-membership
sets

    upper(g) = {x : some n > 0 has g <= f(x^n)}
    lower(g) = {x : some n > 0 has g  = f(x^n)}

implemented literally.  Since f(x^n) = n * f(x) here, membership has a
closed form: upper(g) is the maximal ideal for every finite g >= 1, and
lower(g) is {x : f(x) >= 1 and f(x) divides g} for g >= 1, the unit group
for g = 0.  The enumeration over n in [1, g] is retained as an
independent cross-check route.

Several clauses the literature states for these sets fail under the
literal reading; the report operations evaluate each clause and mark the
failures FAIL-LITERAL with a witness rather than silently repairing the
definitions.
"""

from __future__ import annotations

import operator
from enum import Enum
from itertools import accumulate, repeat

from . import sampling
from .elements import DomainError, FieldElement, _Frozen, _set, format_element
from .reports import StatusReport, _Tally
from .valuation import ExtInt, ValuationSpec


class SpecPrime(Enum):
    """The two primes of a discrete valuation ring."""

    ZERO_IDEAL = "0"
    MAXIMAL_IDEAL = "m"

    @classmethod
    def from_string(cls, text: str) -> "SpecPrime":
        for prime in cls:
            if text == prime.value:
                return prime
        raise DomainError(f"unknown prime {text!r}; expected '0' or 'm'")


class FiltFn(_Frozen):
    """The valuation-induced filtration function on R, valued in Z + infinity."""

    __slots__ = ("spec",)

    def __init__(self, spec: ValuationSpec) -> None:
        _set(self, "spec", spec)

    def value(self, x: FieldElement) -> ExtInt:
        v = self.spec.valuation(x)
        if not v.is_infinite and v.finite < 0:
            raise DomainError(f"{format_element(x)} lies outside the ring")
        return v


def upper_member(ff: FiltFn, x: FieldElement, g: int) -> bool:
    """Membership of x in upper(g) for finite g >= 1, by closed form.

    Since f(x^n) = n * f(x), the set equals the maximal ideal: x = 0 or
    f(x) >= 1.
    """
    if g < 1:
        raise DomainError("upper membership needs g >= 1")
    fx = ff.value(x)
    return fx >= 1


def lower_member(ff: FiltFn, x: FieldElement, g: int) -> bool:
    """Membership of x in lower(g) for g >= 0, by closed form.

    g = 0 admits exactly the elements with f(x) = 0; finite g >= 1 admits
    exactly the x with 1 <= f(x) and f(x) dividing g; 0 is never a member.
    """
    if g < 0:
        raise DomainError("lower membership needs g >= 0")
    fx = ff.value(x)
    if fx.is_infinite:
        return False
    if g == 0:
        return fx.finite == 0
    return fx.finite >= 1 and g % fx.finite == 0


def upper_member_literal(ff: FiltFn, x: FieldElement, g: int) -> bool:
    """Literal existential over n in [1, g]; the bound suffices since f(x) >= 1
    implies g * f(x) >= g."""
    if g < 1:
        raise DomainError("upper membership needs g >= 1")
    ff.value(x)
    power = x
    for _ in range(1, g):
        if ff.value(power) >= g:
            return True
        power = power * x
    return ff.value(power) >= g


def lower_member_literal(ff: FiltFn, x: FieldElement, g: int) -> bool:
    """Literal existential over n in [1, max(g, 1)]."""
    if g < 0:
        raise DomainError("lower membership needs g >= 0")
    ff.value(x)
    power = x
    for _ in range(1, max(g, 1)):
        if ff.value(power) == g:
            return True
        power = power * x
    return ff.value(power) == g


def _stratified_ring_samples(ff: FiltFn, seed: int, samples: int) -> list:
    rng = sampling._seeded(seed, samples)
    field = ff.spec.field
    pi = ff.spec.uniformizer
    xs = [pi, pi * pi, FieldElement.one(field), FieldElement.zero(field)]
    for _ in range(samples):
        xs.append(sampling.random_ring_element(field, rng))
    return xs


def lemma32_report(ff: FiltFn, seed: int, samples: int) -> StatusReport:
    """Evaluate the classical clauses about upper/lower sets literally.

    Clauses (ii), (iii) and the upper half of (iv) hold and are verified
    on stratified samples; clause (i) and the lower half of (iv) fail for
    the literal sets, and the report carries a witness for each failure.
    """
    xs = _stratified_ring_samples(ff, seed, samples)
    pi = ff.spec.uniformizer
    levels = range(1, 11)
    return StatusReport(
        (
            # (i) lower(0) versus the radical of {f > 0}, the maximal ideal;
            # the literal lower(0) is the unit group.
            _Tally("i").clause(x for x in xs if lower_member(ff, x, 0) != (ff.value(x) >= 1)),
            # (ii) upper(infinity) = 0: in a domain no nonzero power reaches
            # infinite value; checked on x, x^2, x^3, x^4.
            _Tally("ii").clause(
                x
                for x in xs
                if not x.is_zero
                for power in accumulate(repeat(x, 4), operator.mul)
                if ff.value(power).is_infinite
            ),
            # (iii) lower(g) inside upper(g) for g >= 1.
            _Tally("iii").clause(
                x
                for x in xs
                for g in levels
                if lower_member(ff, x, g) and not upper_member(ff, x, g)
            ),
            # (iv) upper half: g <= h implies upper(h) inside upper(g).
            _Tally("iv-upper").clause(
                x
                for x in xs
                for g in levels
                for h in range(g, 11)
                if upper_member(ff, x, h) and not upper_member(ff, x, g)
            ),
            # (iv) lower half: g <= h implies lower(h) inside lower(g); fails
            # whenever f(x) = h does not divide g (canonically x = pi^2,
            # h = 2, g = 1).
            _Tally("iv-lower").clause(
                x
                for x in [pi * pi] + xs
                for g in range(0, 11)
                for h in range(g, 11)
                if lower_member(ff, x, h) and not lower_member(ff, x, g)
            ),
        )
    )


def spec_f(ff: FiltFn) -> list:
    """The prime spectrum of a discrete valuation ring: (0) and m."""
    return [SpecPrime.ZERO_IDEAL, SpecPrime.MAXIMAL_IDEAL]


def branched(ff: FiltFn, prime: SpecPrime) -> bool:
    """Branched-prime criterion: P is branched iff P = upper(g) for a finite g >= 1.

    Every upper(g) equals the maximal ideal, so m is branched (g = 1) and
    the zero ideal is not.
    """
    return prime is SpecPrime.MAXIMAL_IDEAL


def prop36_check(ff: FiltFn, x: FieldElement, seed: int, samples: int = 100) -> StatusReport:
    """Check the two-prime statements attached to a fixed x with f(x) > 0.

    First half: upper(f(x)) is the maximal ideal, the smallest (and only)
    prime containing x; verified by sampled membership agreement.  Second
    half: the literal lower(f(x)) is compared with the zero ideal, the
    largest prime avoiding x, and fails literally with witness pi.
    """
    if x.is_zero:
        raise DomainError("x must be nonzero with finite positive value")
    fx = ff.value(x)
    if fx == 0:
        raise DomainError("x must have positive value")
    g = fx.finite
    xs = _stratified_ring_samples(ff, seed, samples)

    # f(x) >= 1 is enforced above, so x itself passes exactly when it lies in
    # upper(f(x))
    return StatusReport(
        (
            _Tally("first-half").clause(
                y for y in [x] + xs if upper_member(ff, y, g) != (ff.value(y) >= 1)
            ),
            _Tally("second-half").clause(
                y for y in [ff.spec.uniformizer] + xs if lower_member(ff, y, g) != y.is_zero
            ),
        )
    )
