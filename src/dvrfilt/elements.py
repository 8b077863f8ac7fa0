"""Exact arithmetic in the supported valued fields.

Two families of fields are available, selected by a :class:`FieldSpec`:

* ``padic:p`` -- the rational numbers.  Elements are reduced integer
  fractions with positive denominator; ``p`` must be a prime below
  ``PRIME_TEST_BOUND`` and selects the valuation used by the rest of the
  package.
* ``tadic:p`` -- rational functions in ``t`` with coefficients in F_p
  (``p`` prime) or in Q (``p = 0``).  Elements are reduced polynomial
  fractions with a monic denominator; F_p coefficients are stored as
  canonical representatives in ``[0, p)``.

Canonical form is unique, so equality of elements is plain structural
equality, everything is immutable and hashable, and all arithmetic is
exact at any magnitude (Python integers / ``fractions.Fraction``).

Polynomials are coefficient tuples in ascending degree with no trailing
zeros; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

PADIC = "padic"
TADIC = "tadic"

Coeff = Union[int, Fraction]


class ParseError(ValueError):
    """Input text does not match the element or field-spec grammar."""


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


# Miller-Rabin with the first 13 primes as bases is exact for every n below
# this bound (Sorenson and Webster 2015).
PRIME_TEST_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every ``n < PRIME_TEST_BOUND``."""
    if n >= PRIME_TEST_BOUND:
        raise DomainError(f"primality is decided only below {PRIME_TEST_BOUND}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Selects one of the concrete fields: ``padic:p`` or ``tadic:p``.

    ``param`` is the prime p for ``padic``; for ``tadic`` it is the
    coefficient characteristic (a prime, or 0 meaning Q coefficients).
    """

    kind: str
    param: int

    def __post_init__(self) -> None:
        if self.kind in (PADIC, TADIC) and self.param >= PRIME_TEST_BOUND:
            raise ParseError(
                f"{self.kind} parameter must be below {PRIME_TEST_BOUND}, got {self.param}"
            )
        if self.kind == PADIC:
            if not is_prime(self.param):
                raise ParseError(f"padic parameter must be a prime >= 2, got {self.param}")
        elif self.kind == TADIC:
            if self.param != 0 and not is_prime(self.param):
                raise ParseError(f"tadic parameter must be 0 or a prime, got {self.param}")
        else:
            raise ParseError(f"unknown field kind {self.kind!r}")

    @classmethod
    def from_string(cls, text: str) -> "FieldSpec":
        m = re.fullmatch(r"(padic|tadic):(\d+)", text.strip())
        if m is None:
            raise ParseError(
                f"malformed field spec {text!r}; expected padic:<p>, tadic:<p> or tadic:0"
            )
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.kind}:{self.param}"


# ---------------------------------------------------------------------------
# coefficient arithmetic, parameterized by the characteristic p (0 means Q)

def _cof(value, p: int) -> Coeff:
    if p:
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise DomainError(f"non-integer coefficient {value} over F_{p}")
            value = value.numerator
        return value % p
    return value if isinstance(value, Fraction) else Fraction(value)

def _cadd(x: Coeff, y: Coeff, p: int) -> Coeff:
    return (x + y) % p if p else x + y

def _csub(x: Coeff, y: Coeff, p: int) -> Coeff:
    return (x - y) % p if p else x - y

def _cmul(x: Coeff, y: Coeff, p: int) -> Coeff:
    return (x * y) % p if p else x * y

def _cneg(x: Coeff, p: int) -> Coeff:
    return (-x) % p if p else -x

def _cinv(x: Coeff, p: int) -> Coeff:
    if not x:
        raise ZeroDivisionError("coefficient inverse of zero")
    if p:
        return pow(x, -1, p)
    return Fraction(1) / x


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over the coefficient field

def poly(coeffs: Iterable, p: int) -> tuple:
    """Normalize an iterable of coefficients into canonical tuple form."""
    cs = [_cof(c, p) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)

def poly_add(a: tuple, b: tuple, p: int) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    cs = list(a)
    for i, c in enumerate(b):
        cs[i] = _cadd(cs[i], c, p)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)

def poly_neg(a: tuple, p: int) -> tuple:
    return tuple(_cneg(c, p) for c in a)

def poly_sub(a: tuple, b: tuple, p: int) -> tuple:
    return poly_add(a, poly_neg(b, p), p)

def poly_mul(a: tuple, b: tuple, p: int) -> tuple:
    if not a or not b:
        return ()
    cs = [_cof(0, p)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                cs[i + j] = _cadd(cs[i + j], _cmul(x, y, p), p)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)

def poly_divmod(a: tuple, b: tuple, p: int) -> "tuple[tuple, tuple]":
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    r = list(a)
    q = [_cof(0, p)] * (len(a) - len(b) + 1)
    inv_lead = _cinv(b[-1], p)
    for k in range(len(a) - len(b), -1, -1):
        c = _cmul(r[k + len(b) - 1], inv_lead, p)
        if c:
            q[k] = c
            for j, bj in enumerate(b):
                if bj:
                    r[k + j] = _csub(r[k + j], _cmul(c, bj, p), p)
    rem = r[: len(b) - 1]
    while rem and not rem[-1]:
        rem.pop()
    while q and not q[-1]:
        q.pop()
    return tuple(q), tuple(rem)

def poly_gcd(a: tuple, b: tuple, p: int) -> tuple:
    """Monic gcd by the Euclidean algorithm (coefficients form a field)."""
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if not a:
        return ()
    inv = _cinv(a[-1], p)
    return tuple(_cmul(c, inv, p) for c in a)

def _poly_exact_div(a: tuple, b: tuple, p: int) -> tuple:
    q, r = poly_divmod(a, b, p)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q

def poly_t_order(a: tuple) -> int:
    """Index of the lowest nonzero coefficient; ``a`` must be nonzero."""
    for i, c in enumerate(a):
        if c:
            return i
    raise DomainError("t-order of the zero polynomial")


# ---------------------------------------------------------------------------
# fraction-free arithmetic in the ring under the canonical fractions: Z for
# padic (ints), k[t] for tadic (coefficient tuples); zero is falsy in both

def clear_denominators(row) -> "tuple[list, FieldElement]":
    """The numerators of L * row, and L, for L the lcm of the denominators.

    ``row`` is a nonempty sequence of elements of one field; L comes back
    as a field element (an element of the ring).
    """
    spec = row[0].spec
    if spec.kind == PADIC:
        scale = math.lcm(*(a.den for a in row))
        return [a.num * (scale // a.den) for a in row], FieldElement(spec, scale, 1)
    p = spec.param
    one = _one_poly(p)
    scale = one
    for a in row:
        if len(a.den) > 1 and a.den != scale:
            scale = poly_mul(scale, _poly_exact_div(a.den, poly_gcd(scale, a.den, p), p), p)
    nums = [
        a.num if a.den == scale else poly_mul(a.num, _poly_exact_div(scale, a.den, p), p)
        for a in row
    ]
    return nums, FieldElement(spec, scale, one)


def _int_cross_quotient(a: int, b: int, c: int, d: int, e: int) -> int:
    return (a * b - c * d) // e


def cross_quotient(spec: FieldSpec):
    """The ring map (a, b, c, d, e) -> (a*b - c*d) / e, for exact quotients.

    This is one entry update of fraction-free (Bareiss) elimination.
    """
    if spec.kind == PADIC:
        return _int_cross_quotient
    p = spec.param

    def step(a: tuple, b: tuple, c: tuple, d: tuple, e: tuple) -> tuple:
        return _poly_exact_div(poly_sub(poly_mul(a, b, p), poly_mul(c, d, p), p), e, p)

    return step


# ---------------------------------------------------------------------------
# field elements

_ONE_POLY_CACHE: "dict[int, tuple]" = {}

def _one_poly(p: int) -> tuple:
    got = _ONE_POLY_CACHE.get(p)
    if got is None:
        got = _ONE_POLY_CACHE[p] = (_cof(1, p),)
    return got


@dataclass(frozen=True)
class FieldElement:
    """An element of the field selected by ``spec``, always canonical.

    padic: ``num``/``den`` are coprime integers with ``den > 0``.
    tadic: ``num``/``den`` are coprime coefficient tuples, ``den`` monic.
    Construction canonicalizes whatever it is given, so two equal elements
    always have identical representations.
    """

    spec: FieldSpec
    num: object
    den: object

    def __post_init__(self) -> None:
        if self.spec.kind == PADIC:
            num = self.num
            den = self.den
            if type(num) is not int or type(den) is not int:
                if not (isinstance(num, int) and isinstance(den, int)):
                    raise DomainError(
                        f"padic numerator and denominator must be integers, got {num!r}, {den!r}"
                    )
                num, den = int(num), int(den)
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            if num == 0:
                den = 1
            elif den != 1:
                g = math.gcd(num, den)
                num //= g
                den //= g
            if den < 0:
                num, den = -num, -den
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", den)
            return
        p = self.spec.param
        num = poly(self.num, p)
        den = poly(self.den, p)
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        if not num:
            den = _one_poly(p)
        elif den != _one_poly(p):
            g = poly_gcd(num, den, p)
            if len(g) > 1:
                num = _poly_exact_div(num, g, p)
                den = _poly_exact_div(den, g, p)
            lc = den[-1]
            if lc != _cof(1, p):
                inv = _cinv(lc, p)
                num = tuple(_cmul(c, inv, p) for c in num)
                den = tuple(_cmul(c, inv, p) for c in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "FieldElement":
        if spec.kind == PADIC:
            return cls(spec, 0, 1)
        return cls(spec, (), _one_poly(spec.param))

    @classmethod
    def one(cls, spec: FieldSpec) -> "FieldElement":
        return cls.from_int(spec, 1)

    @classmethod
    def from_int(cls, spec: FieldSpec, n: int) -> "FieldElement":
        if spec.kind == PADIC:
            return cls(spec, n, 1)
        return cls(spec, poly([n], spec.param), _one_poly(spec.param))

    @classmethod
    def indeterminate(cls, spec: FieldSpec) -> "FieldElement":
        """The element ``t`` of a tadic field."""
        if spec.kind != TADIC:
            raise DomainError("indeterminate exists only in tadic fields")
        return cls(spec, poly([0, 1], spec.param), _one_poly(spec.param))

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num == 0 if self.spec.kind == PADIC else not self.num

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "FieldElement") -> None:
        if other.spec != self.spec:
            raise DomainError(f"mixed field specs: {self.spec} vs {other.spec}")

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        if self.spec.kind == PADIC:
            return FieldElement(
                self.spec,
                self.num * other.den + other.num * self.den,
                self.den * other.den,
            )
        p = self.spec.param
        num = poly_add(
            poly_mul(self.num, other.den, p), poly_mul(other.num, self.den, p), p
        )
        return FieldElement(self.spec, num, poly_mul(self.den, other.den, p))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        if self.spec.kind == PADIC:
            return FieldElement(self.spec, self.num * other.num, self.den * other.den)
        p = self.spec.param
        return FieldElement(
            self.spec,
            poly_mul(self.num, other.num, p),
            poly_mul(self.den, other.den, p),
        )

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero element")
        if self.spec.kind == PADIC:
            return FieldElement(self.spec, self.num * other.den, self.den * other.num)
        p = self.spec.param
        return FieldElement(
            self.spec,
            poly_mul(self.num, other.den, p),
            poly_mul(self.den, other.num, p),
        )

    def __neg__(self):
        if self.spec.kind == PADIC:
            return FieldElement(self.spec, -self.num, self.den)
        return FieldElement(self.spec, poly_neg(self.num, self.spec.param), self.den)

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero element")
        return FieldElement(self.spec, self.den, self.num)

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = FieldElement.one(self.spec)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __str__(self) -> str:
        return format_element(self)


def pi_power(spec: FieldSpec, n: int) -> FieldElement:
    """The n-th power of the uniformizer (p or t), for any integer n."""
    if spec.kind == PADIC:
        if n >= 0:
            return FieldElement(spec, spec.param ** n, 1)
        return FieldElement(spec, 1, spec.param ** (-n))
    p = spec.param
    tpow = poly([0] * abs(n) + [1], p)
    if n >= 0:
        return FieldElement(spec, tpow, _one_poly(p))
    return FieldElement(spec, _one_poly(p), tpow)


def field_arith(op: str, a: FieldElement, b: "FieldElement | None" = None) -> FieldElement:
    """Apply a named field operation; ``b`` is required exactly for binary ops."""
    if op in ("neg", "inv"):
        if b is not None:
            raise DomainError(f"operation {op!r} is unary")
        return -a if op == "neg" else a.inverse()
    if b is None:
        raise DomainError(f"operation {op!r} needs a second operand")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise DomainError(f"unknown operation {op!r}")


# ---------------------------------------------------------------------------
# parsing
#
# Element grammar (ASCII, whitespace ignored):
#   rational := ['-'] digits ['/' digits]
#   coeff    := ['-'] digits ['/' digits]          (the '-' only leads a poly)
#   term     := coeff | coeff '*' VAR ['^' digits] | VAR ['^' digits]
#   poly     := ['-'] term (('+'|'-') term)*
#   ratfunc  := poly | '(' poly ')' '/' '(' poly ')' | poly '/' '(' poly ')'

def _split_signed_terms(s: str) -> "list[tuple[int, str]]":
    if not s:
        raise ParseError("empty polynomial")
    out = []
    sign = 1
    i = 0
    if s[0] == "+":
        i = 1
    elif s[0] == "-":
        sign = -1
        i = 1
    start = i
    for j in range(i, len(s)):
        ch = s[j]
        if ch in "+-":
            if j == start:
                raise ParseError(f"empty term in {s!r}")
            out.append((sign, s[start:j]))
            sign = 1 if ch == "+" else -1
            start = j + 1
    if start == len(s):
        raise ParseError(f"trailing operator in {s!r}")
    out.append((sign, s[start:]))
    return out


def _parse_coeff(text: str, p: int) -> Coeff:
    m = re.fullmatch(r"(\d+)(?:/(\d+))?", text)
    if m is None:
        raise ParseError(f"malformed coefficient {text!r}")
    a = int(m.group(1))
    b = int(m.group(2)) if m.group(2) else 1
    if b == 0:
        raise ParseError(f"zero denominator in coefficient {text!r}")
    if p:
        if b % p == 0:
            raise ParseError(f"coefficient denominator {b} is not invertible mod {p}")
        return a * pow(b, -1, p) % p
    return Fraction(a, b)


def _parse_poly(s: str, var: str, p: int) -> tuple:
    if "(" in s or ")" in s:
        raise ParseError(f"unexpected parenthesis inside polynomial {s!r}")
    term_re = re.compile(
        rf"(?P<coeff>\d+(?:/\d+)?)(?:\*(?P<v1>{var})(?:\^(?P<e1>\d+))?)?"
        rf"|(?P<v2>{var})(?:\^(?P<e2>\d+))?"
    )
    acc: "dict[int, Coeff]" = {}
    for sign, body in _split_signed_terms(s):
        m = term_re.fullmatch(body)
        if m is None:
            raise ParseError(f"malformed term {body!r}")
        if m.group("coeff") is not None:
            c = _parse_coeff(m.group("coeff"), p)
            if m.group("v1") is None:
                exp = 0
            else:
                exp = int(m.group("e1")) if m.group("e1") else 1
        else:
            c = _cof(1, p)
            exp = int(m.group("e2")) if m.group("e2") else 1
        if sign < 0:
            c = _cneg(c, p)
        acc[exp] = _cadd(acc.get(exp, _cof(0, p)), c, p)
    if not acc:
        return ()
    cs = [_cof(0, p)] * (max(acc) + 1)
    for exp, c in acc.items():
        cs[exp] = c
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _strip_outer_parens(s: str) -> str:
    if len(s) >= 2 and s[0] == "(" and s[-1] == ")":
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    return s
        return s[1:-1]
    return s


def _split_ratfunc(s: str) -> "tuple[str, str | None]":
    depth = 0
    slash = None
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {s!r}")
        elif ch == "/" and depth == 0 and i + 1 < len(s) and s[i + 1] == "(":
            if slash is not None:
                raise ParseError(f"multiple fraction bars in {s!r}")
            slash = i
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {s!r}")
    if slash is None:
        return _strip_outer_parens(s), None
    num = _strip_outer_parens(s[:slash])
    den = s[slash + 1 :]
    inner = _strip_outer_parens(den)
    if inner == den:
        raise ParseError(f"denominator must be parenthesized in {s!r}")
    return num, inner


def parse_element(text: str, spec: FieldSpec) -> FieldElement:
    """Parse element text into canonical form; inverse of :func:`format_element`."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty element text")
    if spec.kind == PADIC:
        m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", s)
        if m is None:
            raise ParseError(f"malformed rational {text!r}")
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ParseError(f"zero denominator in {text!r}")
        return FieldElement(spec, int(m.group(1)), den)
    num_s, den_s = _split_ratfunc(s)
    p = spec.param
    num = _parse_poly(num_s, "t", p)
    if den_s is None:
        return FieldElement(spec, num, _one_poly(p))
    den = _parse_poly(den_s, "t", p)
    if not den:
        raise ParseError(f"zero denominator polynomial in {text!r}")
    return FieldElement(spec, num, den)


# ---------------------------------------------------------------------------
# formatting

def _format_coeff_magnitude(c: Coeff) -> "tuple[str, bool]":
    if isinstance(c, Fraction):
        neg = c < 0
        c = -c if neg else c
        return (str(c), neg)
    return (str(c), False)


def format_poly(coeffs: tuple, var: str, ascending: bool = False, spaced: bool = False) -> str:
    """Render a coefficient tuple; descending compact form by default."""
    if not coeffs:
        return "0"
    degrees = [d for d, c in enumerate(coeffs) if c]
    if not ascending:
        degrees.reverse()
    parts = []
    for d in degrees:
        mag, neg = _format_coeff_magnitude(coeffs[d])
        if d == 0:
            body = mag
        else:
            vpart = var if d == 1 else f"{var}^{d}"
            body = vpart if mag == "1" else f"{mag}*{vpart}"
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            op = "-" if neg else "+"
            parts.append(f" {op} {body}" if spaced else f"{op}{body}")
    return "".join(parts)


def format_element(a: FieldElement) -> str:
    """Render an element in the grammar; round-trips through parse_element."""
    if a.spec.kind == PADIC:
        if a.num == 0:
            return "0"
        return str(a.num) if a.den == 1 else f"{a.num}/{a.den}"
    num_s = format_poly(a.num, "t")
    if a.den == _one_poly(a.spec.param):
        return num_s
    return f"({num_s})/({format_poly(a.den, 't')})"
