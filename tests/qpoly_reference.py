"""Q(t) arithmetic on Fraction coefficients, as a reference for the tests.

These are the kernels and the canonical form that ``tadic:0`` used before
it stored Z[t] pairs.  A polynomial is a tuple of ``Fraction`` coefficients
in ascending degree with no trailing zeros; an element is a pair
(num, den) of them, coprime in Q[t], with a monic den.  Each kernel writes
its operands over one common denominator, multiplies, pseudo-divides or
takes the gcd by primitive PRS in Z[t], and builds one ``Fraction`` per
output coefficient.  Element arithmetic here is the schoolbook cross
product followed by full canonicalization, not the Henrici shortcuts of
``dvrfilt.elements``.  Draws go through ``rng._randbelow`` exactly as the
package's samplers do.
"""

import math
import operator
from fractions import Fraction

from dvrfilt.elements import format_poly

ONE = (Fraction(1),)


def _strip(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def poly(coeffs):
    return tuple(_strip([Fraction(c) for c in coeffs]))


def _over_q(a):
    """Integers ``A`` and ``d > 0`` with ``a == A / d``."""
    d = math.lcm(*[c.denominator for c in a])
    return [c.numerator * (d // c.denominator) for c in a], d


def _primitive(cs):
    g = math.gcd(*cs)
    return cs if g == 1 else [c // g for c in cs]


def _int_mul(a, b):
    nb = len(b)
    brev = b[::-1]
    return [sum(map(operator.mul, a, brev[nb - 1 - k :])) for k in range(nb)] + [
        sum(map(operator.mul, a[k:], brev)) for k in range(1, len(a))
    ]


def _pseudo_divmod(r, b):
    # r is overwritten with an integer R; over Q the quotient is
    # sum(c_k / s_k * x^k) for q[k] == (c_k, s_k) and the remainder R / s
    lead = b[-1]
    low = b[:-1]
    db = len(low)
    s = 1
    q = [(0, 1)] * (len(r) - db)
    for k in range(len(r) - db - 1, -1, -1):
        top = r[k + db]
        if not top:
            continue
        g = math.gcd(top, lead)
        m = lead // g
        if m != 1:
            for i in range(k + db):
                r[i] *= m
            s *= m
        c = top // g
        q[k] = (c, s)
        for j, y in enumerate(low, k):
            r[j] -= c * y
    del r[db:]
    return q, s


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    cs = list(a)
    for i, c in enumerate(b):
        cs[i] += c
    return tuple(_strip(cs))


def poly_neg(a):
    return tuple(-c for c in a)


def poly_mul(a, b):
    if not a or not b:
        return ()
    (ia, da), (ib, db) = _over_q(a), _over_q(b)
    return tuple(_strip([Fraction(c, da * db) for c in _int_mul(ia, ib)]))


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    (r, da), (ib, db) = _over_q(a), _over_q(b)
    g = math.gcd(*ib)
    q, s = _pseudo_divmod(r, [c // g for c in ib])
    return (
        tuple(Fraction(c * db, sk * da * g) for c, sk in q),
        tuple(Fraction(c, s * da) for c in _strip(r)),
    )


def poly_gcd(a, b):
    """The monic gcd in Q[t]."""
    a, b = _primitive(_over_q(a)[0]), _primitive(_over_q(b)[0])
    while b:
        if len(b) == 1:
            a = b
            break
        _pseudo_divmod(a, b)
        a, b = b, _primitive(_strip(a))
    if not a:
        return ()
    return tuple(Fraction(c, a[-1]) for c in a)


def _exact_div(a, b):
    q, r = poly_divmod(a, b)
    assert not r, (a, b)
    return q


def _order(a):
    return next(i for i, c in enumerate(a) if c)


# -- elements: (num, den) pairs ------------------------------------------------

def canonical(num, den):
    num, den = poly(num), poly(den)
    if not den:
        raise ZeroDivisionError("zero denominator polynomial")
    if not num:
        return (), ONE
    g = poly_gcd(num, den)
    num, den = _exact_div(num, g), _exact_div(den, g)
    lc = den[-1]
    return tuple(c / lc for c in num), tuple(c / lc for c in den)


def add(x, y):
    return canonical(poly_add(poly_mul(x[0], y[1]), poly_mul(y[0], x[1])), poly_mul(x[1], y[1]))


def neg(x):
    return poly_neg(x[0]), x[1]


def sub(x, y):
    return add(x, neg(y))


def mul(x, y):
    return canonical(poly_mul(x[0], y[0]), poly_mul(x[1], y[1]))


def inverse(x):
    return canonical(x[1], x[0])


def div(x, y):
    return mul(x, inverse(y))


def shift(x, n):
    power = (Fraction(0),) * abs(n) + ONE
    return mul(x, (power, ONE) if n >= 0 else (ONE, power))


def valuation(x):
    return _order(x[0]) - _order(x[1])


def residue(x):
    return x[0][0] / x[1][0] if x[0] else Fraction(0)


def format_element(x):
    num_s = format_poly(x[0], "t")
    return num_s if x[1] == ONE else f"({num_s})/({format_poly(x[1], 't')})"


def det(rows):
    """Laplace expansion along the first row; 1 for the 0 x 0 matrix."""
    if not rows:
        return ONE, ONE
    total = ((), ONE)
    for j, x in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = mul(x, det(minor))
        total = sub(total, term) if j % 2 else add(total, term)
    return total


def clear_denominators(row):
    """The numerators of L * row and L, for L the monic lcm of the denominators."""
    scale = ONE
    for _, den in row:
        scale = poly_mul(scale, _exact_div(den, poly_gcd(scale, den)))
    return [poly_mul(num, _exact_div(scale, den)) for num, den in row], scale


# -- draws ----------------------------------------------------------------------

def _unit_poly(rng):
    below = rng._randbelow
    deg = below(4)
    cs = [below(11) - 5 for _ in range(deg + 1)]
    cs[0] = (1, 2, 3, -1, -2, 5)[below(6)]
    if deg and cs[-1] == 0:
        cs[-1] = (1, -1, 2)[below(3)]
    return poly(cs)


def random_unit(rng):
    num = _unit_poly(rng)
    return canonical(num, _unit_poly(rng))


def random_nonzero_element(rng, kmin=-6, kmax=6):
    k = kmin + rng._randbelow(kmax - kmin + 1)
    return shift(random_unit(rng), k)
