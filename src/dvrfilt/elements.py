"""Exact arithmetic in the supported valued fields.

Two families of fields are available, selected by a :class:`FieldSpec`:

* ``padic:p`` -- the rationals: coprime ints with a positive denominator;
  ``p`` is a prime below ``PRIME_TEST_BOUND`` and selects the valuation.
* ``tadic:p`` -- rational functions in ``t`` over F_p (``p`` prime) or Q
  (``p = 0``).  Over F_p: coprime coefficient tuples, coefficients ints in
  ``[0, p)``, with a monic denominator.  Over Q: a pair (N, D) of int
  tuples, coprime in Q[t], with lead(D) > 0 and the gcd of all
  coefficients of N and D together 1.

The kind is decided here only, once: ``FieldSpec`` picks a backend for
the ring under the fractions, Z (``_Integers``) or F_p[t] or Z[t]
(``_Polynomials``), which owns everything that depends on that
representation.  Everything else calls the backend.  The coefficient
field k (F_p or Q) is implemented once, by the ``_c*`` helpers; parsing,
formatting and residues use them.  ``Fraction`` appears only there and in
the public ``num``/``den`` of a ``tadic:0`` element, built on demand as
Fraction tuples over a monic ``den``.

Canonical form is unique, so equality of elements is plain structural
equality, everything is immutable and hashable, and all arithmetic is
exact at any magnitude.  Only outside input (``FieldElement(spec, num,
den)``, parsing, random units) is canonicalized.  Arithmetic builds
results in lowest terms and stores them through ``FieldElement._trusted``,
which checks nothing.  For coprime a/b and c/d (Henrici; Knuth, TAOCP 2,
4.5.1), a/b * c/d needs only gcd(a, d) and gcd(c, b); a/b + c/d needs no
gcd when g = gcd(b, d) is 1, else one against g; over Z[t] both then
divide out the joint content.  pi^n * x (``shift``) cancels
min(n, ord_pi(den)) powers of pi from the denominator, or the mirror image
for n < 0, no gcd.

Polynomials are int tuples in ascending degree with no trailing zeros;
zero is the empty tuple.  The kernels ``poly_mul``, ``poly_divmod`` and
``poly_gcd`` take the characteristic p.  Over F_p they reduce mod p once
per output coefficient (in division, also the coefficient read as the next
quotient term); the gcd is monic.  For p = 0 they work in Z[t] (Knuth,
TAOCP 2, 4.6.1): division is pseudo-division, s*a = q*b + r with the least
scale s > 0 (1 when b divides a in Z[t]), and the gcd is primitive with a
positive lead, by primitive PRS.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Union

PADIC = "padic"
TADIC = "tadic"

Coeff = Union[int, Fraction]


class ParseError(ValueError):
    """Input text does not match the element or field-spec grammar."""


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


_set = object.__setattr__
_new = object.__new__


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields as ``__slots__``, in order, and sets them in
    ``__init__`` through ``_set``; assignment afterwards raises
    ``AttributeError``.  Two instances of one class are equal when their
    field tuples are, the hash is that of the field tuple, and the repr
    reads ``Class(field=value, ...)``.  The hot classes override these with
    straight-line code.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


# Miller-Rabin with the first 13 primes as bases is exact for every n below
# this bound (Sorenson and Webster 2015).
PRIME_TEST_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Largest |n| accepted for a power pi^n of the uniformizer and for an
# exponent of t or T in element text, checked before anything is allocated.
MAX_EXPONENT = 100_000

# Longest digit string accepted for one integer in input text, checked before
# int(); it equals CPython's default limit for int-string conversion.
MAX_DIGITS = 4300


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


class FieldSpec(_Frozen):
    """Selects one of the concrete fields: ``padic:p`` or ``tadic:p``.

    ``param`` is the prime p for ``padic``; for ``tadic`` it is the
    coefficient characteristic (a prime, or 0 meaning Q coefficients).
    ``backend`` is derived from both and takes no part in equality, hash
    or repr.
    """

    __slots__ = ("kind", "param", "backend")

    def __init__(self, kind: str, param: int) -> None:
        if type(param) is not int:
            raise ParseError(f"field parameter must be an int, got {param!r}")
        if kind in (PADIC, TADIC) and param >= PRIME_TEST_BOUND:
            raise ParseError(f"{kind} parameter must be below {PRIME_TEST_BOUND}, got {param}")
        if kind == PADIC:
            if not is_prime(param):
                raise ParseError(f"padic parameter must be a prime >= 2, got {param}")
            backend = _Integers(param)
        elif kind == TADIC:
            if param != 0 and not is_prime(param):
                raise ParseError(f"tadic parameter must be 0 or a prime, got {param}")
            backend = _Polynomials(param)
        else:
            raise ParseError(f"unknown field kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "param", param)
        _set(self, "backend", backend)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.kind == other.kind and self.param == other.param
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.param))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(kind={self.kind!r}, param={self.param!r})"

    @classmethod
    def from_string(cls, text: str) -> "FieldSpec":
        m = re.fullmatch(r"(padic|tadic):([0-9]+)", text.replace(" ", ""))
        if m is None:
            raise ParseError(
                f"malformed field spec {text!r}; expected padic:<p>, tadic:<p> or tadic:0"
            )
        return cls(m.group(1), parse_int(m.group(2), "field parameter"))

    def __str__(self) -> str:
        return f"{self.kind}:{self.param}"


# ---------------------------------------------------------------------------
# coefficient arithmetic, parameterized by the characteristic p (0 means Q)

def _cof(value, p: int) -> Coeff:
    if type(value) is not int:
        if isinstance(value, Fraction):
            if not p:
                return value
            if value.denominator != 1:
                raise DomainError(f"non-integer coefficient {value} over F_{p}")
            value = value.numerator
        else:
            raise DomainError(f"coefficient must be an int or a Fraction, got {value!r}")
    return value % p if p else Fraction(value)

def _cadd(x: Coeff, y: Coeff, p: int) -> Coeff:
    return (x + y) % p if p else x + y

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
# dense polynomial arithmetic on coefficient tuples: ints mod p, or Z[t] for p = 0

def _strip(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs

def poly(coeffs: Iterable, p: int) -> tuple:
    """Normalize an iterable of coefficients into canonical tuple form."""
    return tuple(_strip([_cof(c, p) for c in coeffs]))

def poly_add(a: tuple, b: tuple, p: int) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    cs = list(a)
    for i, c in enumerate(b):
        cs[i] = _cadd(cs[i], c, p)
    return tuple(_strip(cs))

def poly_neg(a: tuple, p: int) -> tuple:
    return tuple(_cneg(c, p) for c in a)

def poly_sub(a: tuple, b: tuple, p: int) -> tuple:
    return poly_add(a, poly_neg(b, p), p)

def _primitive(cs: list) -> list:
    """``cs`` (no trailing zeros) divided by the gcd of its entries."""
    g = math.gcd(*cs)
    return cs if g == 1 else [c // g for c in cs]

def _int_mul(a, b) -> list:
    # c_k = sum a_i * b_(k-i) for int sequences, one C-level sum per output
    # coefficient
    nb = len(b)
    brev = b[::-1]
    return [sum(map(operator.mul, a, brev[nb - 1 - k :])) for k in range(nb)] + [
        sum(map(operator.mul, a[k:], brev)) for k in range(1, len(a))
    ]

def _divmod_fp(r: list, b, p: int) -> list:
    """Divide ``r`` by ``b`` over F_p in place and return the quotient; ``r``
    becomes the remainder, ``len(b) - 1`` raw ints not yet reduced mod p."""
    inv = pow(b[-1], -1, p)
    low = b[:-1]
    db = len(low)
    q = [0] * (len(r) - db)
    for k in range(len(r) - db - 1, -1, -1):
        c = r[k + db] * inv % p
        if c:
            q[k] = c
            for j, y in enumerate(low, k):
                r[j] -= c * y
    del r[db:]
    return q

def _pseudo_divmod(r: list, b) -> "tuple[list, int]":
    """Fraction-free division of the integer polynomial ``r`` by ``b``.

    ``r`` is overwritten with the remainder R, ``len(b) - 1`` entries long
    (trailing zeros included; a shorter ``r`` is its own), and ``(q, s)`` is
    returned with s*a = q*b + R for the input a.  Each step scales ``r`` and
    ``q`` in place by |lead(b)| / gcd(top, lead(b)), the least s > 0 that
    keeps them integral, so s = 1 when b divides a in Z[t].
    """
    lead = b[-1]
    low = b[:-1]
    db = len(low)
    s = 1
    q = [0] * (len(r) - db)
    for k in range(len(r) - db - 1, -1, -1):
        top = r[k + db]
        if not top:
            continue
        m = abs(lead) // math.gcd(top, lead)
        if m != 1:
            for i in range(k + db):
                r[i] *= m
            for i in range(k + 1, len(q)):
                q[i] *= m
            s *= m
            top *= m
        q[k] = c = top // lead
        for j, y in enumerate(low, k):
            r[j] -= c * y
    del r[db:]
    return q, s

def poly_mul(a: tuple, b: tuple, p: int) -> tuple:
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:  # a constant factor, the commonest case
        c = b[0]
        if c == 1:
            return a
        return tuple([x * c % p for x in a] if p else [x * c for x in a])
    if p:
        return tuple(_strip([c % p for c in _int_mul(a, b)]))
    return tuple(_int_mul(a, b))

def poly_divmod(a: tuple, b: tuple, p: int) -> "tuple[tuple, tuple]":
    """Quotient and remainder over F_p; for p = 0 the pseudo-division of Z[t]."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    r = list(a)  # becomes the remainder once the quotient is built
    if p:
        return tuple(_divmod_fp(r, b, p)), tuple(_strip([c % p for c in r]))
    return tuple(_pseudo_divmod(r, b)[0]), tuple(_strip(r))

def poly_gcd(a: tuple, b: tuple, p: int) -> tuple:
    """Euclid over F_p (monic gcd); primitive PRS in Z[t] for p = 0 (primitive gcd, lead > 0)."""
    if p:
        a, b = list(a), list(b)
        while b:
            _divmod_fp(a, b, p)
            a, b = b, _strip([c % p for c in a])
        if not a:
            return ()
        inv = pow(a[-1], -1, p)
        return tuple(c * inv % p for c in a)
    a, b = _primitive(list(a)), _primitive(list(b))
    while b:
        if len(b) == 1:  # a nonzero constant: the gcd is 1
            return (1,)
        _pseudo_divmod(a, b)
        a, b = b, _primitive(_strip(a))
    return tuple(a) if not a or a[-1] > 0 else tuple(-c for c in a)


# ---------------------------------------------------------------------------
# one backend per field kind: the ring under the canonical fractions, Z for
# padic (ints), k[t] for tadic (coefficient tuples); zero is falsy in both

class _Backend:
    """Shared by both backends; ``p`` is the characteristic of k (0 for Q).

    ``order`` is the exact power of the uniformizer in a nonzero ring
    element and ``reduce`` the ring map onto k.  ``gcd`` is positive,
    monic, or primitive with a positive lead (Z[t]), ``div`` exact in the
    ring, and ``normalize`` makes a pair canonical once it is coprime.
    ``public`` gives an element's ``num``/``den`` from its stored pair.
    ``clear_denominators(row)`` gives the numerators of L * row and L, as a
    field element, for L a common multiple of the denominators in the ring
    (their lcm but for the content over Z[t]); ``cross_quotient(a, b,
    c, d, e)`` is the exact (a*b - c*d) / e of one fraction-free (Bareiss)
    entry update.
    """

    def __init__(self, p: int) -> None:
        self.p = p

    def valuation(self, x: "FieldElement") -> int:
        """v(x) for nonzero x."""
        return self.order(x._n) - self.order(x._d)

    def residue(self, x: "FieldElement") -> Coeff:
        """The image of x in k; needs v(x) >= 0, so the denominator reduces to a unit."""
        p = self.p
        return _cmul(self.reduce(x._n), _cinv(self.reduce(x._d), p), p)

    public = staticmethod(lambda num, den: (num, den))

    def shift(self, num, den, n: int) -> tuple:
        """pi^n * num/den in lowest terms, for a nonzero num/den in lowest terms."""
        if n < 0:
            den, num = self.shift(den, num, -n)
            return num, den
        k = min(n, self.order(den))
        return self._up(num, n - k), self._down(den, k)

    def clear_denominators(self, row) -> "tuple[list, FieldElement]":
        one, gcd, div, mul = self.one, self.gcd, self.div, self.mul
        scale = one
        for a in row:
            if a._d != one and a._d != scale:
                scale = mul(scale, div(a._d, gcd(scale, a._d)))
        nums = [a._n if a._d == scale else mul(a._n, div(scale, a._d)) for a in row]
        # a common multiple of positive, monic or positive-lead denominators,
        # built by exact divisions, is canonical over the ring's 1
        return nums, FieldElement._trusted(row[0].spec, scale, one)

    def cross_quotient(self, a, b, c, d, e):
        return self.div(self.sub(self.mul(a, b), self.mul(c, d)), e)


class _Integers(_Backend):
    """padic:p -- coprime ints with a positive denominator."""

    one = 1
    add = operator.add
    sub = operator.sub
    mul = operator.mul
    neg = operator.neg
    gcd = staticmethod(math.gcd)
    div = operator.floordiv

    @staticmethod
    def canonical(num, den) -> "tuple[int, int]":
        if type(num) is not int or type(den) is not int:
            # bool and other int subclasses are rejected, not coerced
            raise DomainError(
                f"padic numerator and denominator must be integers, got {num!r}, {den!r}"
            )
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if num == 0:
            den = 1
        elif den != 1:
            g = math.gcd(num, den)
            num //= g
            den //= g
        return _Integers.normalize(num, den)

    @staticmethod
    def normalize(num: int, den: int) -> "tuple[int, int]":
        return (-num, -den) if den < 0 else (num, den)

    def from_int(self, n: int) -> int:
        return n if type(n) is int else self.canonical(n, 1)[0]

    def _up(self, n: int, e: int) -> int:
        return n * self.p**e

    def _down(self, n: int, e: int) -> int:
        return n // self.p**e

    def order(self, n: int) -> int:
        if n == 0:
            raise DomainError("p-order of zero")
        n = abs(n)
        p = self.p
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        return k

    def reduce(self, n: int) -> int:
        return n % self.p

    @staticmethod
    def parse(s: str, text: str) -> "tuple[int, int]":
        m = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", s)
        if m is None:
            raise ParseError(f"malformed rational {text!r}")
        den = parse_int(m.group(2), "denominator") if m.group(2) else 1
        if den == 0:
            raise ParseError(f"zero denominator in {text!r}")
        return parse_int(m.group(1), "numerator"), den

    @staticmethod
    def format(num: int, den: int) -> str:
        return format_int(num) if den == 1 else f"{format_int(num)}/{format_int(den)}"

    def random_unit(self, rng) -> "tuple[int, int]":
        p, below = self.p, rng._randbelow
        num = 1 + below(49)
        while num % p == 0:
            num = 1 + below(49)
        den = 1 + below(49)
        while den % p == 0:
            den = 1 + below(49)
        if rng.random() < 0.5:
            num = -num
        return num // (g := math.gcd(num, den)), den // g

    # one expression in place of the shared step's four method calls; the
    # shared step made padic:2 16x16 det about 1.2x slower
    @staticmethod
    def cross_quotient(a: int, b: int, c: int, d: int, e: int) -> int:
        return (a * b - c * d) // e


class _Polynomials(_Backend):
    """tadic:p -- coprime coefficient tuples; over F_p the denominator is
    monic, over Z[t] its lead is positive and the joint content 1."""

    one = (1,)

    def canonical(self, num, den) -> "tuple[tuple, tuple]":
        if type(num) is not tuple or type(den) is not tuple:
            if not (isinstance(num, (tuple, list)) and isinstance(den, (tuple, list))):
                raise DomainError(
                    f"tadic numerator and denominator must be coefficient tuples, got {num!r}, {den!r}"
                )
        p = self.p
        if p:
            num, den = poly(num, p), poly(den, p)
        else:  # ints stay; Fractions are cleared over the lcm m of all denominators
            num, den = ([c if type(c) is int else _cof(c, 0) for c in cs] for cs in (num, den))
            m = math.lcm(*[c.denominator for c in num + den])
            num, den = (tuple(_strip([c.numerator * (m // c.denominator) for c in cs])) for cs in (num, den))
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        if not num:
            return num, self.one
        g = self.gcd(num, den)
        if g != self.one:
            num, den = self.div(num, g), self.div(den, g)
        return self.normalize(num, den)

    def normalize(self, num: tuple, den: tuple) -> "tuple[tuple, tuple]":
        p = self.p
        if not p:  # divide out the joint content, signed so that lead(den) > 0
            g = math.gcd(*num, *den)
            g = g if den[-1] > 0 else -g
            if g == 1:
                return num, den
            return tuple([c // g for c in num]), tuple([c // g for c in den])
        lc = den[-1]
        if lc == 1:
            return num, den
        inv = _cinv(lc, p)
        return tuple(_cmul(c, inv, p) for c in num), tuple(_cmul(c, inv, p) for c in den)

    def public(self, num: tuple, den: tuple) -> "tuple[tuple, tuple]":
        if self.p:
            return num, den
        lc = den[-1]
        over = {c: Fraction(c, lc) for c in {*num, *den}}  # one Fraction per distinct int
        return tuple(map(over.__getitem__, num)), tuple(map(over.__getitem__, den))

    def gcd(self, a: tuple, b: tuple) -> tuple:
        # a nonzero constant is a unit of k[t]
        if len(a) == 1 or len(b) == 1:
            return self.one
        if a and b and not (a[0] and b[0]):
            # t^i*a' and t^j*b' with a'(0), b'(0) nonzero share t^min(i, j) times
            # gcd(a', b'); Euclid then spends no quotient steps on the t-powers
            i, j = self.order(a), self.order(b)
            return self._up(self.gcd(a[i:], b[j:]), min(i, j))
        return poly_gcd(a, b, self.p)

    def div(self, a: tuple, b: tuple) -> tuple:
        q, r = poly_divmod(a, b, self.p)
        if r:
            raise ArithmeticError("inexact polynomial division")
        return q

    def add(self, a: tuple, b: tuple) -> tuple:
        return poly_add(a, b, self.p)

    def sub(self, a: tuple, b: tuple) -> tuple:
        return poly_sub(a, b, self.p)

    def mul(self, a: tuple, b: tuple) -> tuple:
        if a and b and not (a[0] and b[0]):
            # t^i*a' times t^j*b' is t^(i+j)*(a'*b'): multiply without the zeros
            i, j = self.order(a), self.order(b)
            return a[:i] + b[:j] + poly_mul(a[i:], b[j:], self.p)
        return poly_mul(a, b, self.p)

    def neg(self, a: tuple) -> tuple:
        return poly_neg(a, self.p)

    def from_int(self, n: int) -> tuple:
        if type(n) is not int:
            raise DomainError(f"integer must be an int, got {n!r}")
        n = n % self.p if self.p else n
        return (n,) if n else ()

    @staticmethod
    def order(a: tuple) -> int:
        for i, c in enumerate(a):
            if c:
                return i
        raise DomainError("t-order of the zero polynomial")

    def _up(self, a: tuple, e: int) -> tuple:
        return (0,) * e + a

    def _down(self, a: tuple, e: int) -> tuple:
        return a[e:]

    def reduce(self, a: tuple) -> int:
        return a[0] if a else 0

    def parse(self, s: str, text: str) -> "tuple[tuple, tuple]":
        num_s, den_s = _split_ratfunc(s)
        num = _parse_poly(num_s, "t", self.p)
        if den_s is None:
            return num, self.one
        den = _parse_poly(den_s, "t", self.p)
        if not den:
            raise ParseError(f"zero denominator polynomial in {text!r}")
        return num, den

    def format(self, num: tuple, den: tuple) -> str:
        num, den = self.public(num, den)
        num_s = format_poly(num, "t")
        if den == self.one:
            return num_s
        return f"({num_s})/({format_poly(den, 't')})"

    def _random_unit_poly(self, rng) -> tuple:
        # nonzero constant and leading terms: t-order 0 and nothing to strip
        p, below = self.p, rng._randbelow
        deg = below(4)
        cs = [below(p) if p else below(11) - 5 for _ in range(deg + 1)]
        cs[0] = 1 + below(p - 1) if p else (1, 2, 3, -1, -2, 5)[below(6)]
        if deg and cs[-1] == 0:
            cs[-1] = 1 + below(p - 1) if p else (1, -1, 2)[below(3)]
        return tuple(cs)

    def random_unit(self, rng) -> "tuple[tuple, tuple]":
        num, den = self._random_unit_poly(rng), self._random_unit_poly(rng)
        g = self.gcd(num, den)
        if g != self.one:
            num, den = self.div(num, g), self.div(den, g)
        return self.normalize(num, den)


# ---------------------------------------------------------------------------
# field elements

class FieldElement(_Frozen):
    """An element of the field selected by ``spec``, always canonical.

    ``_n``/``_d`` hold the backend's canonical pair (see the module
    docstring), so two equal elements have identical representations; the
    public ``num``/``den`` are that pair, or over Q[t] its ``Fraction``
    tuples with a monic ``den``.  The constructor canonicalizes whatever it
    is given and arithmetic builds canonical results.  The last slot is None
    until ``ValuationSpec.valuation`` computes v(x) and keeps it there; it
    takes no part in equality, hash or repr, and nothing else reads or
    fills it.
    """

    __slots__ = ("spec", "_n", "_d", "_v")

    def __init__(self, spec: FieldSpec, num, den) -> None:
        _set(self, "spec", spec)
        _set(self, "_n", num)
        _set(self, "_d", den)
        _set(self, "_v", None)
        self.__post_init__()

    def __post_init__(self) -> None:
        num, den = self.spec.backend.canonical(self._n, self._d)
        _set(self, "_n", num)
        _set(self, "_d", den)

    @classmethod
    def _trusted(cls, spec: FieldSpec, num, den) -> "FieldElement":
        """An element from a pair that is already canonical; nothing is checked."""
        x = _new(cls)
        _set(x, "spec", spec)
        _set(x, "_n", num)
        _set(x, "_d", den)
        _set(x, "_v", None)
        return x

    num = property(lambda self: self.spec.backend.public(self._n, self._d)[0])
    den = property(lambda self: self.spec.backend.public(self._n, self._d)[1])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.spec, self._n, self._d) == (other.spec, other._n, other._d)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.spec, self._n, self._d))

    def __repr__(self) -> str:
        num, den = self.spec.backend.public(self._n, self._d)
        return f"{type(self).__qualname__}(spec={self.spec!r}, num={num!r}, den={den!r})"

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "FieldElement":
        return cls.from_int(spec, 0)

    @classmethod
    def one(cls, spec: FieldSpec) -> "FieldElement":
        return cls.from_int(spec, 1)

    @classmethod
    def from_int(cls, spec: FieldSpec, n: int) -> "FieldElement":
        return cls._trusted(spec, spec.backend.from_int(n), spec.backend.one)

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self) -> bool:
        return bool(self._n)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "FieldElement") -> None:
        if other.spec is not self.spec and other.spec != self.spec:
            raise DomainError(f"mixed field specs: {self.spec} vs {other.spec}")

    def _sum(self, other: "FieldElement", combine) -> "FieldElement":
        # with g = gcd(b, d) and b = g*s: (a*(d/g) +- c*s) / (s*d), only g can cancel
        self._check(other)
        ring = self.spec.backend
        mul, div = ring.mul, ring.div
        a, b, c, d = self._n, self._d, other._n, other._d
        g = ring.gcd(b, d)
        if g == ring.one:
            num, den = combine(mul(a, d), mul(c, b)), mul(b, d)
        else:
            s = div(b, g)
            num = combine(mul(a, div(d, g)), mul(c, s))
            g = ring.gcd(num, g)
            if g != ring.one:
                num, d = div(num, g), div(d, g)
            den = mul(s, d)
        num, den = ring.normalize(num, den)
        return FieldElement._trusted(self.spec, num, den)

    def _product(self, c, d) -> "FieldElement":
        # a/b * c/d, both nonzero and coprime: only a, d and c, b can share factors
        ring = self.spec.backend
        one, gcd, div, mul = ring.one, ring.gcd, ring.div, ring.mul
        a, b = self._n, self._d
        g = gcd(a, d)
        if g != one:
            a, d = div(a, g), div(d, g)
        g = gcd(c, b)
        if g != one:
            c, b = div(c, g), div(b, g)
        num, den = ring.normalize(mul(a, c), mul(b, d))
        return FieldElement._trusted(self.spec, num, den)

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self._sum(other, self.spec.backend.add)

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self._sum(other, self.spec.backend.sub)

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        if not self._n or not other._n:
            return other if self._n else self
        return self._product(other._n, other._d)

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        if not other._n:
            raise ZeroDivisionError("division by zero element")
        if not self._n:
            return self
        return self._product(other._d, other._n)

    def __neg__(self):
        return FieldElement._trusted(self.spec, self.spec.backend.neg(self._n), self._d)

    def inverse(self) -> "FieldElement":
        if not self._n:
            raise ZeroDivisionError("inverse of zero element")
        num, den = self.spec.backend.normalize(self._d, self._n)
        return FieldElement._trusted(self.spec, num, den)

    def shift(self, n: int) -> "FieldElement":
        """pi^n * self, for an int |n| <= MAX_EXPONENT, with no gcd: only powers of pi cancel."""
        if type(n) is not int:
            raise DomainError(f"uniformizer exponent must be an integer, got {n!r}")
        if abs(n) > MAX_EXPONENT:
            raise DomainError(f"uniformizer exponent {n} exceeds the bound {MAX_EXPONENT}")
        if not n or not self._n:
            return self
        num, den = self.spec.backend.shift(self._n, self._d, n)
        return FieldElement._trusted(self.spec, num, den)

    def __pow__(self, n: int) -> "FieldElement":
        if type(n) is not int:
            raise DomainError(f"exponent must be an integer, got {n!r}")
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
    """The n-th power of the uniformizer (p or t), for |n| <= MAX_EXPONENT."""
    return FieldElement.one(spec).shift(n)


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
# Element grammar (ASCII; every ' ' is dropped first, and any other
# whitespace is malformed, as in field specs and shift vectors):
#   rational := ['-'] digits ['/' digits]
#   coeff    := ['-'] digits ['/' digits]          (the '-' only leads a poly)
#   term     := coeff | coeff '*' VAR ['^' digits] | VAR ['^' digits]
#               (every exponent at most MAX_EXPONENT)
#   poly     := ['-'] term (('+'|'-') term)*
#   ratfunc  := poly | '(' poly ')' '/' '(' poly ')' | poly '/' '(' poly ')'
#   (every digit string at most MAX_DIGITS long)

def parse_int(text: str, what: str) -> int:
    """ASCII decimal digits with an optional leading '-', at most MAX_DIGITS of them."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdecimal()):
        raise ParseError(f"malformed {what} {text!r}")
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"{what} has more than {MAX_DIGITS} digits")
    return int(text)


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
    # text matches the coeff group of the term regex: digits ['/' digits]
    a, _, b = text.partition("/")
    b = parse_int(b, "coefficient denominator") if b else 1
    if b == 0:
        raise ParseError(f"zero denominator in coefficient {text!r}")
    if not _cof(b, p):
        raise ParseError(f"coefficient denominator {b} is not invertible mod {p}")
    a = parse_int(a, "coefficient")
    return _cmul(_cof(a, p), _cinv(_cof(b, p), p), p)


def _parse_poly(s: str, var: str, p: int) -> tuple:
    if "(" in s or ")" in s:
        raise ParseError(f"unexpected parenthesis inside polynomial {s!r}")
    term_re = re.compile(
        rf"(?P<coeff>[0-9]+(?:/[0-9]+)?)(?:\*(?P<v1>{var})(?:\^(?P<e1>[0-9]+))?)?"
        rf"|(?P<v2>{var})(?:\^(?P<e2>[0-9]+))?"
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
                exp = parse_int(m.group("e1"), "exponent") if m.group("e1") else 1
        else:
            c = _cof(1, p)
            exp = parse_int(m.group("e2"), "exponent") if m.group("e2") else 1
        if exp > MAX_EXPONENT:
            raise ParseError(f"exponent {exp} of {var} exceeds the bound {MAX_EXPONENT}")
        if sign < 0:
            c = _cneg(c, p)
        acc[exp] = _cadd(acc.get(exp, _cof(0, p)), c, p)
    if not acc:
        return ()
    cs = [_cof(0, p)] * (max(acc) + 1)
    for exp, c in acc.items():
        cs[exp] = c
    return tuple(_strip(cs))


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
    num, den = spec.backend.parse(s, text)
    return FieldElement(spec, num, den)


# ---------------------------------------------------------------------------
# formatting

# Every int below 2**_STR_SAFE_BITS has at most 4215 decimal digits, inside
# CPython's default int-string limit (4300).
_STR_SAFE_BITS = 14_000


def format_int(n: int) -> str:
    """Decimal text of any int; past the int-string limit, in halves."""
    if n.bit_length() <= _STR_SAFE_BITS:
        return str(n)
    if n < 0:
        return "-" + format_int(-n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(n, 10**k)
    return format_int(high) + format_int(low).zfill(k)


def format_coeff(c: Coeff) -> str:
    """Text of a coefficient: an int, or a Fraction as ``a`` or ``a/b``."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return format_int(c.numerator)
        return f"{format_int(c.numerator)}/{format_int(c.denominator)}"
    return format_int(c)


def _format_coeff_magnitude(c: Coeff) -> "tuple[str, bool]":
    if c < 0:
        return format_coeff(-c), True
    return format_coeff(c), False


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
    return a.spec.backend.format(a._n, a._d)
