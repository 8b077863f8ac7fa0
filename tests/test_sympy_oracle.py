"""det, rank and SNF against sympy's DomainMatrix, an independent implementation.

Seeded random matrices, full rank and rank deficient, are converted to
sympy over QQ (padic), GF(p)(t) (tadic:p) and QQ(t) (tadic:0).  The
determinant must be the same field element, the number of nonzero SNF
diagonal entries must be sympy's rank, and map_injective must say full
column rank exactly when sympy does.  residue_matrix_rank must give
sympy's rank over GF(p) and QQ.  The SNF exponents must be the p- or
t-adic orders of sympy's invariant factors over ZZ, GF(p)[t] or QQ[t].
"""

import functools
import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy import GF, QQ, ZZ, Matrix, Poly, Rational, Symbol, multiplicity  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402
from sympy.polys.densearith import dup_add, dup_mul, dup_quo  # noqa: E402
from sympy.polys.densebasic import dup_strip  # noqa: E402
from sympy.polys.euclidtools import dup_lcm  # noqa: E402
from sympy.polys.galoistools import gf_add, gf_from_int_poly, gf_lcm, gf_mul, gf_quo  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from dvrfilt import (  # noqa: E402
    DomainError,
    FilteredFreeModule,
    FilteredMap,
    ResidueElem,
    ValuationSpec,
    det,
    map_injective,
    residue_matrix_rank,
    snf,
)

from instances import random_matrix, snf_diagonal_exponents  # noqa: E402

T = Symbol("t")


def _domain(spec):
    field = spec.field
    if field.kind == "padic":
        return QQ
    return (GF(field.param) if field.param else QQ).frac_field(T)


def _poly_expr(coeffs):
    return sum(
        (Rational(c.numerator, c.denominator) * T**i for i, c in enumerate(coeffs)),
        Rational(0),
    )


def _to_sympy(x, domain):
    if x.spec.kind == "padic":
        return QQ(x.num, x.den)
    return domain.from_sympy(_poly_expr(x.num) / _poly_expr(x.den))


def _matrices(spec, count, max_dim):
    rng = random.Random(f"sympy-oracle:{spec.field}")
    for _ in range(count):
        rows, cols = rng.randint(1, max_dim), rng.randint(1, max_dim)
        if rng.random() < 0.5:
            cols = rows
        a = random_matrix(spec, rng, rows, cols, max_entry_valuation=3)
        if rows >= 2 and rng.random() < 0.3:
            # rank deficient: the last row becomes a combination of kept rows
            c = random_matrix(spec, rng, 1, 1)[0][0]
            a = a[:-1] + (tuple(x + c * y for x, y in zip(a[0], a[-2])),)
        yield a


@pytest.mark.usefixtures("trusted_guard")
@pytest.mark.parametrize(
    "field,count,max_dim",
    [
        ("padic:2", 60, 6),
        ("padic:101", 40, 5),
        ("tadic:3", 40, 4),
        ("tadic:0", 15, 3),
    ],
)
def test_det_and_rank_agree_with_sympy(field, count, max_dim):
    spec = ValuationSpec.from_string(field)
    domain = _domain(spec)
    deficient = 0
    for a in _matrices(spec, count, max_dim):
        rows, cols = len(a), len(a[0])
        m = DomainMatrix([[_to_sympy(x, domain) for x in row] for row in a], (rows, cols), domain)
        rank = m.rank()
        deficient += rank < min(rows, cols)
        d = snf(spec, a).d
        assert sum(1 for k in range(min(rows, cols)) if not d[k][k].is_zero) == rank
        f = FilteredMap(FilteredFreeModule(spec, (0,) * cols), FilteredFreeModule(spec, (0,) * rows), a)
        assert map_injective(f) == (rank == cols)
        if rows == cols:
            # sympy keeps GF(p)(t) fractions unnormalized, so == compares
            # representations; a zero difference compares values
            assert not (_to_sympy(det(spec, a), domain) - m.det())
    assert deficient > 0


def _residue_values(rng, char, count):
    # about a third zeros, so that pivots are often missing
    if char:
        return [rng.randrange(char) if rng.random() < 0.7 else 0 for _ in range(count)]
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.7 else 0 for _ in range(count)]


@pytest.mark.parametrize("char", [2, 3, 101, 0])
def test_residue_matrix_rank_agrees_with_sympy(char):
    domain = GF(char) if char else QQ
    rng = random.Random(f"residue-rank:{char}")
    deficient = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        values = [_residue_values(rng, char, cols) for _ in range(rows)]
        if rows >= 3 and rng.random() < 0.4:
            # the last row becomes the sum of two others
            values[-1] = [a + b for a, b in zip(values[0], values[1])]
        matrix = [[ResidueElem(char, v) for v in row] for row in values]
        elems = [[domain(ResidueElem(char, v).value) for v in row] for row in values]
        rank = DomainMatrix(elems, (rows, cols), domain).rank()
        deficient += rank < min(rows, cols)
        assert residue_matrix_rank(matrix) == rank, values
    assert deficient > 0


def test_residue_matrix_rank_of_empty_shapes_is_zero():
    assert residue_matrix_rank([]) == 0
    assert residue_matrix_rank([[], [], []]) == 0
    assert residue_matrix_rank(()) == 0


def test_residue_matrix_rank_rejects_mixed_characteristics():
    # rejected before any elimination, also where the two fields never meet
    for rows in (
        [[ResidueElem(2, 1), ResidueElem(3, 1)]],
        [[ResidueElem(2, 1)], [ResidueElem(0, 1)]],
        [[ResidueElem(5, 0), ResidueElem(5, 1)], [ResidueElem(7, 0), ResidueElem(5, 0)]],
    ):
        with pytest.raises(DomainError, match="mixed residue fields"):
            residue_matrix_rank(rows)


# -- Smith normal form against sympy's invariant factors ---------------------
#
# Entries are cleared of denominators into R's ambient PID: ZZ for padic,
# GF(p)[t] for tadic:p, ZZ[t] inside QQ[t] for tadic:0, with sympy's dense
# list arithmetic (galoistools over GF(p), densearith/euclidtools over ZZ),
# much faster here than DomainMatrix over a fraction field.  Entries of R
# have denominators that are units of R, so clearing a row does not change
# its SNF over R.


class _Ambient:
    """sympy's arithmetic on the PID that R localizes, on cleared entries."""

    def __init__(self, spec):
        self.kind, self.p = spec.field.kind, spec.field.param
        p = self.p
        if self.kind == "padic":
            self.mul, self.add, self.lcm, self.quo = ZZ.mul, ZZ.add, ZZ.lcm, ZZ.quo
            self.domain = ZZ
        elif p:
            self.mul = lambda f, g: gf_mul(f, g, p, ZZ)
            self.add = lambda f, g: gf_add(f, g, p, ZZ)
            self.lcm = lambda f, g: gf_lcm(f, g, p, ZZ)
            self.quo = lambda f, g: gf_quo(f, g, p, ZZ)
            self.domain = GF(p)[T]
        else:
            self.mul = lambda f, g: dup_mul(f, g, ZZ)
            self.add = lambda f, g: dup_add(f, g, ZZ)
            self.lcm = lambda f, g: dup_lcm(f, g, ZZ)
            self.quo = lambda f, g: dup_quo(f, g, ZZ)
            self.domain = QQ[T]

    def pair(self, x):
        # num and den of x in the ambient ring; dense lists run from the top degree
        if self.kind == "padic":
            return ZZ(x.num), ZZ(x.den)
        if self.p:
            return gf_from_int_poly(list(reversed(x.num)), self.p), gf_from_int_poly(list(reversed(x.den)), self.p)
        m = math.lcm(*[c.denominator for c in x.num + x.den])
        return tuple(dup_strip([ZZ(int(c * m)) for c in reversed(cs)]) for cs in (x.num, x.den))

    def cleared(self, entries):
        """The entries times a common multiple s of their denominators, and s."""
        pairs = [self.pair(x) for x in entries]
        scale = functools.reduce(self.lcm, [den for _, den in pairs])
        return [self.mul(num, self.quo(scale, den)) for num, den in pairs], scale

    def expr(self, f):
        return f if self.kind == "padic" else sum((int(c) * T**i for i, c in enumerate(reversed(f))), Rational(0))

    def order(self, f):
        # of a nonzero sympy expression: the p-adic or t-adic order
        if self.kind == "padic":
            return multiplicity(self.p, f)
        return min(m for (m,) in Poly(f, T, domain=self.domain.domain).monoms())

    def residue(self, x):
        # x mod the maximal ideal, in GF(p) or QQ; None when x lies outside R
        num, den = self.pair(x)
        if self.kind == "padic":
            return None if den % self.p == 0 else GF(self.p)(num) / GF(self.p)(den)
        if not den or not den[-1]:
            return None
        field = GF(self.p) if self.p else QQ
        return field(num[-1] if num else 0) / field(den[-1])


def _matmul(ring, a, b):
    return [
        [functools.reduce(ring.add, [ring.mul(a[i][k], b[k][j]) for k in range(len(b))]) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _in_gl_n_of_r(ring, m):
    # det m is a unit of R exactly when m has entries in R and its image mod
    # the maximal ideal has a nonzero determinant over the residue field
    rows = [[ring.residue(x) for x in row] for row in m]
    if any(c is None for row in rows for c in row):
        return False
    k = GF(ring.p) if ring.p else QQ
    return bool(DomainMatrix(rows, (len(m), len(m)), k).det())


@pytest.mark.parametrize("field,size", [("padic:2", 6), ("tadic:3", 5), ("tadic:0", 3)])
def test_snf_agrees_with_sympy_invariant_factors(field, size):
    spec = ValuationSpec.from_string(field)
    ring = _Ambient(spec)
    rng = random.Random(f"sympy-snf:{field}")
    for _ in range(15):
        a = random_matrix(spec, rng, size, size, max_entry_valuation=3)
        u, d, v = snf(spec, a)
        rows = [[ring.expr(f) for f in ring.cleared(row)[0]] for row in a]
        factors = invariant_factors(Matrix(rows), domain=ring.domain)
        assert len(factors) == size
        assert snf_diagonal_exponents(spec, d) == [ring.order(f) for f in factors if f != 0]
        assert sum(1 for f in factors if f == 0) == sum(1 for k in range(size) if d[k][k].is_zero)
        # U * A * V = D, each matrix cleared by one common multiple of its denominators
        (cu, su), (ca, sa), (cv, sv) = (ring.cleared([x for row in m for x in row]) for m in (u, a, v))
        square = lambda cs: [cs[i * size : (i + 1) * size] for i in range(size)]
        product = _matmul(ring, _matmul(ring, square(cu), square(ca)), square(cv))
        scale = ring.mul(ring.mul(su, sa), sv)
        assert product == [[ring.mul(ring.pair(x)[0], scale) for x in row] for row in d]
        assert _in_gl_n_of_r(ring, u) and _in_gl_n_of_r(ring, v)
