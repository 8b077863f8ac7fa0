"""The associated graded ring of the valuation filtration.

Each graded piece R_n/R_{n+1} of a discrete valuation ring is one
dimensional over the residue field k; fixing the chart
x |-> residue(x / pi^n) in degree n identifies the whole graded ring
with the polynomial ring k[T].  The chart depends on the choice of
uniformizer.  Elements are finite degree -> coefficient maps storing
only nonzero coefficients, so equality is structural; only nonnegative
degrees occur.
"""

from __future__ import annotations

from typing import Iterable

from .elements import DomainError, FieldElement, _Frozen, _parse_poly, _set, format_poly
from .valuation import ResidueElem, ValuationSpec


class GradedElement(_Frozen):
    """An element of the graded ring: sparse degree -> residue coefficient map."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: ValuationSpec, terms: tuple) -> None:
        _set(self, "spec", spec)
        _set(self, "terms", terms)
        self.__post_init__()

    def __post_init__(self) -> None:
        char = self.spec.residue_char
        acc: dict = {}
        for degree, coeff in self.terms:
            if type(degree) is not int or degree < 0:
                raise DomainError(f"graded degree must be a nonnegative integer, got {degree!r}")
            if not isinstance(coeff, ResidueElem) or coeff.char != char:
                raise DomainError("graded coefficient must lie in the residue field")
            if degree in acc:
                acc[degree] = acc[degree] + coeff
            else:
                acc[degree] = coeff
        _set(self, "terms", tuple((d, c) for d, c in sorted(acc.items()) if not c.is_zero))

    @classmethod
    def zero(cls, spec: ValuationSpec) -> "GradedElement":
        return cls(spec, ())

    @classmethod
    def monomial(cls, spec: ValuationSpec, degree: int, coeff: ResidueElem) -> "GradedElement":
        return cls(spec, ((degree, coeff),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Top degree; undefined for the zero element."""
        if not self.terms:
            raise DomainError("the zero graded element has no degree")
        return self.terms[-1][0]

    def _check(self, other: "GradedElement") -> None:
        if other.spec != self.spec:
            raise DomainError("mixed graded rings")

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check(other)
        return GradedElement(self.spec, self.terms + other.terms)

    def __mul__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check(other)
        prods = tuple(
            (da + db, ca * cb) for da, ca in self.terms for db, cb in other.terms
        )
        return GradedElement(self.spec, prods)

    def __str__(self) -> str:
        return format_graded(self)


def symbol(spec: ValuationSpec, x: FieldElement) -> GradedElement:
    """The leading form of x: homogeneous of degree v(x), never zero.

    The zero element has no leading form and elements outside R have no
    class in the nonnegatively graded ring; both are domain errors.
    """
    if x.is_zero:
        raise DomainError("the zero element has no leading form")
    v = spec.valuation(x).finite
    if v < 0:
        raise DomainError(f"element has negative valuation {v}")
    coeff = spec.residue(x.shift(-v))
    return GradedElement.monomial(spec, v, coeff)


def gr_arith(op: str, u: GradedElement, v: GradedElement) -> GradedElement:
    if op == "add":
        return u + v
    if op == "mul":
        return u * v
    raise DomainError(f"unknown graded operation {op!r}")


def gr_to_poly(u: GradedElement) -> tuple:
    """Dense coefficient tuple over the residue field, ascending degree."""
    if u.is_zero:
        return ()
    char = u.spec.residue_char
    out = [ResidueElem(char, 0)] * (u.degree() + 1)
    for d, c in u.terms:
        out[d] = c
    return tuple(out)


def poly_to_gr(spec: ValuationSpec, coeffs: Iterable) -> GradedElement:
    """Inverse of :func:`gr_to_poly`; accepts ResidueElem or raw values."""
    char = spec.residue_char
    terms = []
    for d, c in enumerate(coeffs):
        if not isinstance(c, ResidueElem):
            c = ResidueElem(char, c)
        if not c.is_zero:
            terms.append((d, c))
    return GradedElement(spec, tuple(terms))


def format_graded(u: GradedElement) -> str:
    """Render as "c0 + c1*T + c2*T^2" with residue coefficients."""
    raw = tuple(c.value for c in gr_to_poly(u))
    return format_poly(raw, "T", ascending=True, spaced=True)


def parse_graded(text: str, spec: ValuationSpec) -> GradedElement:
    """Parse the "c0 + c1*T + ..." rendering back into a graded element."""
    coeffs = _parse_poly(text.replace(" ", ""), "T", spec.residue_char)
    return poly_to_gr(spec, coeffs)
