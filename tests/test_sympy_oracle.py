"""det and rank against sympy's DomainMatrix, an independent implementation.

Seeded random matrices, full rank and rank deficient, are converted to
sympy over QQ (padic), GF(p)(t) (tadic:p) and QQ(t) (tadic:0).  The
determinant must be the same field element, the number of nonzero SNF
diagonal entries must be sympy's rank, and map_injective must say full
column rank exactly when sympy does.  residue_matrix_rank must give
sympy's rank over GF(p) and QQ.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy import GF, QQ, Rational, Symbol  # noqa: E402
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

from instances import random_matrix  # noqa: E402

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
