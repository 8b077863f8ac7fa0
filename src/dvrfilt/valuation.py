"""Discrete valuations on the supported fields, with residue arithmetic.

The ``padic:p`` valuation counts the exact power of p in a reduced
fraction; the ``tadic`` valuation counts the order of vanishing at
t = 0.  Both are surjective onto Z on nonzero elements and send 0 to
infinity.  The ring of the valuation is R = {v >= 0}, its maximal ideal
m = {v >= 1}, and the residue field R/m is F_p (padic:p, tadic:p) or Q
(tadic:0, by evaluation at t = 0).

Nothing here branches on the field kind: valuation and residue come from
the field's backend in ``elements``, and residue arithmetic uses the
coefficient helpers that k[t] uses.
"""

from __future__ import annotations

import functools

from . import sampling
from .elements import (
    PRIME_TEST_BOUND,
    DomainError,
    FieldElement,
    FieldSpec,
    _cadd,
    _cinv,
    _cmul,
    _cneg,
    _cof,
    _Frozen,
    _set,
    format_coeff,
    format_element,
    is_prime,
    pi_power,
)
from .reports import CheckReport, _Tally


class ExtInt(_Frozen):
    """An integer extended with +infinity, the valuation of zero.

    Infinity is a distinct tagged value (``value is None``), never a
    sentinel integer; it absorbs addition and dominates every ordering.
    Comparisons and addition also accept plain ints.
    """

    __slots__ = ("value",)

    def __init__(self, value: int | None) -> None:
        _set(self, "value", value)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def finite(self) -> int:
        if self.value is None:
            raise DomainError("infinite valuation where an integer is required")
        return self.value

    def __eq__(self, other) -> bool:
        o = _rank(other)
        return NotImplemented if o is None else _rank(self) == o

    def __hash__(self) -> int:
        return hash(self.value)

    def __lt__(self, other) -> bool:
        o = _rank(other)
        return NotImplemented if o is None else _rank(self) < o

    def __le__(self, other) -> bool:
        o = _rank(other)
        return NotImplemented if o is None else _rank(self) <= o

    def __gt__(self, other) -> bool:
        o = _rank(other)
        return NotImplemented if o is None else _rank(self) > o

    def __ge__(self, other) -> bool:
        o = _rank(other)
        return NotImplemented if o is None else _rank(self) >= o

    def __add__(self, other):
        o = _rank(other)
        if o is None:
            return NotImplemented
        if self.value is None or o is _INF:
            return INFINITY
        return ExtInt(self.value + o)

    __radd__ = __add__

    def __mul__(self, n):
        if not isinstance(n, int) or n <= 0:
            return NotImplemented
        if self.value is None:
            return INFINITY
        return ExtInt(self.value * n)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def __repr__(self) -> str:
        return f"ExtInt({self.value})"


INFINITY = ExtInt(None)
_INF = float("inf")

# Shared values for small |v|, so that the v(x) kept on each element costs a
# pointer and no object of its own.
_SHARED_BOUND = 256
_SHARED = tuple(ExtInt(v) for v in range(-_SHARED_BOUND, _SHARED_BOUND + 1))


def _rank(x):
    # ExtInt or int as a number ordered alike (inf compares exactly with ints), else None
    if isinstance(x, ExtInt):
        return _INF if x.value is None else x.value
    return x if isinstance(x, int) else None


@functools.lru_cache(maxsize=64)
def _is_field_char(char: int) -> bool:
    return char == 0 or (char < PRIME_TEST_BOUND and is_prime(char))


class ResidueElem(_Frozen):
    """Element of the residue field: an integer mod p, or an exact rational.

    ``char`` is p for F_p and 0 for Q; values are canonical (representative
    in [0, p), or a reduced Fraction), so equality is structural.
    """

    __slots__ = ("char", "value")

    def __init__(self, char: int, value) -> None:
        if type(char) is not int or not _is_field_char(char):
            raise DomainError(f"residue characteristic must be 0 or a prime, got {char!r}")
        _set(self, "char", char)
        _set(self, "value", _cof(value, char))

    @property
    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self) -> bool:
        return not self.is_zero

    def _check(self, other: "ResidueElem") -> None:
        if other.char != self.char:
            raise DomainError("mixed residue fields")

    def __add__(self, other):
        if not isinstance(other, ResidueElem):
            return NotImplemented
        self._check(other)
        return ResidueElem(self.char, _cadd(self.value, other.value, self.char))

    def __sub__(self, other):
        if not isinstance(other, ResidueElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ResidueElem):
            return NotImplemented
        self._check(other)
        return ResidueElem(self.char, _cmul(self.value, other.value, self.char))

    def __neg__(self):
        return ResidueElem(self.char, _cneg(self.value, self.char))

    def inverse(self) -> "ResidueElem":
        return ResidueElem(self.char, _cinv(self.value, self.char))

    def __truediv__(self, other):
        if not isinstance(other, ResidueElem):
            return NotImplemented
        return self * other.inverse()

    def __str__(self) -> str:
        return format_coeff(self.value)


class ValuationSpec(_Frozen):
    """A concrete discretely valued field: field spec, uniformizer, residue field."""

    __slots__ = ("field",)

    def __init__(self, field: FieldSpec) -> None:
        _set(self, "field", field)

    @classmethod
    def from_string(cls, text: str) -> "ValuationSpec":
        return cls(FieldSpec.from_string(text))

    @property
    def uniformizer(self) -> FieldElement:
        return pi_power(self.field, 1)

    @property
    def residue_char(self) -> int:
        return self.field.param

    def residue_zero(self) -> ResidueElem:
        return ResidueElem(self.residue_char, 0)

    def valuation(self, x: FieldElement) -> ExtInt:
        """v(x), with v(0) = infinity; exact order of the uniformizer in x.

        It is computed from x's own num/den on the first call and kept on x
        for later calls, never derived from the valuations of other elements.
        """
        if x.spec is not self.field and x.spec != self.field:
            raise DomainError("element does not belong to this field")
        v = x._v
        if v is None:
            if x.is_zero:
                v = INFINITY
            else:
                n = self.field.backend.valuation(x)
                v = _SHARED[n + _SHARED_BOUND] if -_SHARED_BOUND <= n <= _SHARED_BOUND else ExtInt(n)
            _set(x, "_v", v)
        return v

    def uniformizer_power(self, n: int) -> FieldElement:
        return pi_power(self.field, n)

    def residue(self, x: FieldElement) -> ResidueElem:
        """The image of x in R/m; requires v(x) >= 0, kernel is {v >= 1}."""
        v = self.valuation(x)
        if not v.is_infinite and v.finite < 0:
            raise DomainError(f"residue of {format_element(x)} with negative valuation {v}")
        return ResidueElem(self.residue_char, self.field.backend.residue(x))


def check_valuation_axioms(spec: ValuationSpec, seed: int, samples: int) -> CheckReport:
    """Sampled verification of the valuation axioms.

    Checks v(ab) = v(a) + v(b) exactly, the ultrametric inequality
    v(a+b) >= min(v(a), v(b)), and its sharp case (equality whenever
    v(a) != v(b)).  Every eighth pair is (a, -a) so the v(0) = infinity
    branch of the inequality is exercised.  Violations are reported, not
    thrown.
    """
    rng = sampling._seeded(seed, samples)
    mul, ultra, sharp = _Tally("mul"), _Tally("ultrametric"), _Tally("ultrametric-sharp")
    for i in range(samples):
        a = sampling.random_nonzero_element(spec.field, rng)
        b = -a if i % 8 == 5 else sampling.random_nonzero_element(spec.field, rng)
        va = spec.valuation(a)
        vb = spec.valuation(b)
        mul.check(spec.valuation(a * b) == va + vb, _pair, a, b)
        lo = min(va, vb)
        vs = spec.valuation(a + b)
        ultra.check(vs >= lo, _pair, a, b)
        if va != vb:
            sharp.check(vs == lo, _pair, a, b)
    return CheckReport((mul.axiom(), ultra.axiom(), sharp.axiom()))


def _pair(a: FieldElement, b: FieldElement) -> str:
    return f"{format_element(a)},{format_element(b)}"
