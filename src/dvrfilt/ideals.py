"""Fractional ideals of the valuation ring in exponent normal form.

Every nonzero fractional ideal of a discrete valuation ring is pi^e * R
for a unique integer e, so the exponent is a complete invariant; the
zero ideal is an explicit marker.  Generator lists exist only at the API
boundary.  The nonzero ideals form a group under multiplication with
inverse pi^(-e) * R, and e >= 0 exactly for integral ideals, which are
the powers of the maximal ideal.
"""

from __future__ import annotations

import re
from typing import Sequence

from .elements import DomainError, FieldElement, ParseError, _Frozen, _set, format_int, parse_int
from .valuation import ValuationSpec


class FracIdeal(_Frozen):
    """A fractional ideal: zero marker, or the exponent e meaning pi^e * R."""

    __slots__ = ("spec", "exponent")

    def __init__(self, spec: ValuationSpec, exponent: int | None) -> None:
        if exponent is not None and type(exponent) is not int:
            raise DomainError(f"ideal exponent must be an integer or None, got {exponent!r}")
        _set(self, "spec", spec)
        _set(self, "exponent", exponent)

    @classmethod
    def zero(cls, spec: ValuationSpec) -> "FracIdeal":
        return cls(spec, None)

    @classmethod
    def unit(cls, spec: ValuationSpec) -> "FracIdeal":
        return cls(spec, 0)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def contains_element(self, x: FieldElement) -> bool:
        if self.is_zero:
            return x.is_zero
        return self.spec.valuation(x) >= self.exponent

    def contains(self, other: "FracIdeal") -> bool:
        self._check(other)
        if other.is_zero:
            return True
        if self.is_zero:
            return False
        return self.exponent <= other.exponent

    def _check(self, other: "FracIdeal") -> None:
        if other.spec != self.spec:
            raise DomainError("ideals over different fields")

    def __str__(self) -> str:
        return format_ideal(self)


def ideal_from_generators(spec: ValuationSpec, gens: Sequence[FieldElement]) -> FracIdeal:
    """The fractional ideal generated by the given elements.

    Order independent; zero generators are ignored, and the empty or
    all-zero list gives the zero ideal.
    """
    best: int | None = None
    for g in gens:
        v = spec.valuation(g)
        if v.is_infinite:
            continue
        if best is None or v.finite < best:
            best = v.finite
    return FracIdeal(spec, best)


def ideal_product(i: FracIdeal, j: FracIdeal) -> FracIdeal:
    i._check(j)
    if i.is_zero or j.is_zero:
        return FracIdeal.zero(i.spec)
    return FracIdeal(i.spec, i.exponent + j.exponent)


def ideal_sum(i: FracIdeal, j: FracIdeal) -> FracIdeal:
    i._check(j)
    if i.is_zero:
        return j
    if j.is_zero:
        return i
    return FracIdeal(i.spec, min(i.exponent, j.exponent))


def ideal_intersect(i: FracIdeal, j: FracIdeal) -> FracIdeal:
    i._check(j)
    if i.is_zero or j.is_zero:
        return FracIdeal.zero(i.spec)
    return FracIdeal(i.spec, max(i.exponent, j.exponent))


def ideal_op(op: str, i: FracIdeal, j: FracIdeal) -> FracIdeal:
    if op == "product":
        return ideal_product(i, j)
    if op == "sum":
        return ideal_sum(i, j)
    if op == "intersect":
        return ideal_intersect(i, j)
    raise DomainError(f"unknown ideal operation {op!r}")


def ideal_inverse(i: FracIdeal) -> FracIdeal:
    if i.is_zero:
        raise DomainError("the zero ideal is not invertible")
    return FracIdeal(i.spec, -i.exponent)


def denominator_witness(i: FracIdeal) -> FieldElement:
    """A nonzero a in R with a * I inside R; canonically pi^max(0, -e)."""
    if i.is_zero:
        return FieldElement.one(i.spec.field)
    return i.spec.uniformizer_power(max(0, -i.exponent))


def as_power_of_m(i: FracIdeal) -> int:
    """The n with I = m^n; defined for nonzero integral ideals only."""
    if i.is_zero:
        raise DomainError("the zero ideal is not a power of the maximal ideal")
    if i.exponent < 0:
        raise DomainError("a proper fractional ideal is not a power of the maximal ideal")
    return i.exponent


def format_ideal(i: FracIdeal) -> str:
    if i.is_zero:
        return "0"
    return f"pi^{format_int(i.exponent)}*R"


def parse_ideal(text: str, spec: ValuationSpec) -> FracIdeal:
    s = text.replace(" ", "")
    if s == "0":
        return FracIdeal.zero(spec)
    m = re.fullmatch(r"pi\^(-?[0-9]+)\*R", s)
    if m is None:
        raise ParseError(f"malformed ideal {text!r}; expected pi^<e>*R or 0")
    return FracIdeal(spec, parse_int(m.group(1), "ideal exponent"))
