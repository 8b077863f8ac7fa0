"""Filtered free modules with integer shifts, maps between them, and Smith
normal form over the valuation ring.

A rank-r module with shift vector s filters as M_n = (+)_j R_{n - s_j},
reading R_k = R for k <= 0 (the ring's own indexing starts at R_0 = R);
the j-th generator lives in every level up to n = s_j.  A matrix A
between shifted modules is a filtered map exactly when every entry
satisfies v(A_ij) >= max(0, s_j - t_i); the induced graded map is then
faithfully represented by the residue-field leading matrix whose (i, j)
entry is the class of A_ij / pi^(s_j - t_i) when the valuation is exactly
s_j - t_i, and zero otherwise.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

from .elements import (
    DomainError,
    FieldElement,
    _cadd,
    _cinv,
    _cmul,
    _cneg,
    _cof,
    _Frozen,
    _set,
    format_element,
    parse_element,
    parse_int,
)
from .valuation import ResidueElem, ValuationSpec

Matrix = "tuple[tuple[FieldElement, ...], ...]"
ResidueMatrix = "tuple[tuple[ResidueElem, ...], ...]"


class CompatibilityError(DomainError):
    """A matrix entry violates the filtered-map compatibility bound."""

    def __init__(self, row: int, col: int, message: str):
        super().__init__(message)
        self.row = row
        self.col = col


class FilteredFreeModule(_Frozen):
    """Free module of finite rank with a shift-induced filtration."""

    __slots__ = ("spec", "shifts")

    def __init__(self, spec: ValuationSpec, shifts: tuple) -> None:
        shifts = tuple(shifts)
        if any(type(s) is not int for s in shifts):
            raise DomainError(f"module shifts must be integers, got {shifts!r}")
        if not shifts:
            raise DomainError("module rank must be >= 1")
        _set(self, "spec", spec)
        _set(self, "shifts", shifts)

    @property
    def rank(self) -> int:
        return len(self.shifts)

    def member(self, vector: Sequence[FieldElement], n: int) -> bool:
        """True iff the vector lies in level n (coordinate j needs v >= max(0, n - s_j))."""
        if len(vector) != self.rank:
            raise DomainError(f"vector length {len(vector)} != rank {self.rank}")
        return all(
            self.spec.valuation(x) >= max(0, n - s)
            for x, s in zip(vector, self.shifts)
        )


def escape_level(module: FilteredFreeModule, vector: Sequence[FieldElement]) -> int:
    """Smallest n with the vector outside level n; witnesses separatedness.

    Equals min over nonzero coordinates of v(x_j) + s_j, plus one.
    """
    if len(vector) != module.rank:
        raise DomainError(f"vector length {len(vector)} != rank {module.rank}")
    best = None
    for x, s in zip(vector, module.shifts):
        if x.is_zero:
            continue
        level = module.spec.valuation(x).finite + s
        if best is None or level < best:
            best = level
    if best is None:
        raise DomainError("the zero vector never leaves the filtration")
    return best + 1


class FilteredMap(_Frozen):
    """A matrix over R between shifted filtered free modules.

    Rows index the target, columns the source; construction validates the
    compatibility bound v(A_ij) >= max(0, s_j - t_i) entrywise.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(
        self, source: FilteredFreeModule, target: FilteredFreeModule, matrix: tuple
    ) -> None:
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "matrix", matrix)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.source.spec != self.target.spec:
            raise DomainError("source and target live over different fields")
        rows = tuple(tuple(row) for row in self.matrix)
        if len(rows) != self.target.rank or any(len(r) != self.source.rank for r in rows):
            raise DomainError(
                f"matrix must be {self.target.rank} x {self.source.rank} for these modules"
            )
        spec = self.source.spec
        for i, row in enumerate(rows):
            t_i = self.target.shifts[i]
            for j, a in enumerate(row):
                need = max(0, self.source.shifts[j] - t_i)
                if spec.valuation(a) < need:
                    raise CompatibilityError(
                        i,
                        j,
                        f"entry ({i},{j}) = {format_element(a)} has valuation "
                        f"{spec.valuation(a)} < required {need}",
                    )
        _set(self, "matrix", rows)

    @property
    def spec(self) -> ValuationSpec:
        return self.source.spec


def make_filtered_map(
    source: FilteredFreeModule, target: FilteredFreeModule, matrix: Sequence
) -> FilteredMap:
    return FilteredMap(source, target, tuple(tuple(row) for row in matrix))


def leading_matrix(f: FilteredMap) -> tuple:
    """The residue-field matrix of the induced graded map.

    Entry (i, j) is residue(A_ij / pi^(s_j - t_i)) when v(A_ij) equals
    s_j - t_i, and zero otherwise (in particular whenever s_j - t_i < 0,
    since entries lie in R).
    """
    spec = f.spec
    zero = spec.residue_zero()
    out = []
    for i, row in enumerate(f.matrix):
        t_i = f.target.shifts[i]
        out_row = []
        for j, a in enumerate(row):
            d = f.source.shifts[j] - t_i
            if not a.is_zero and spec.valuation(a) == d:
                out_row.append(spec.residue(a.shift(-d)))
            else:
                out_row.append(zero)
        out.append(tuple(out_row))
    return tuple(out)


def residue_matrix_rank(rows: Sequence[Sequence[ResidueElem]]) -> int:
    """Rank over the residue field k by the fraction-free elimination of
    :func:`_eliminate`; every one of its divisions is exact in a field."""
    chars = {c.char for row in rows for c in row}
    if len(chars) > 1:
        raise DomainError("mixed residue fields")
    k = chars.pop() if chars else 0

    def step(a, b, c, d, e):
        return _cmul(_cadd(_cmul(a, b, k), _cneg(_cmul(c, d, k), k), k), _cinv(e, k), k)

    return _eliminate([[c.value for c in row] for row in rows], step, _cof(1, k))[0]


def gr_injective(f: FilteredMap) -> bool:
    """True iff the induced graded map is injective.

    For shifted free modules this is full column rank of the leading
    matrix over the residue field; validated against a per-degree
    brute-force oracle in the test suite.
    """
    return residue_matrix_rank(leading_matrix(f)) == f.source.rank


class SnfResult(NamedTuple):
    u: tuple
    d: tuple
    v: tuple


def snf(spec: ValuationSpec, matrix: Sequence[Sequence[FieldElement]]) -> SnfResult:
    """Smith normal form over the valuation ring: U * A * V = D exactly.

    U and V are square with unit determinant (valuation 0); D is diagonal
    with entries pi^{e_1}, ..., pi^{e_r}, 0, ... and e_1 <= e_2 <= ...
    The pivot is the first entry of minimal valuation in row-major order,
    normalized to an exact power of the uniformizer, then its row and
    column are divided out; this is deterministic.
    """
    rows = _rectangular(matrix)
    m, n = len(rows), len(rows[0])
    for r in rows:
        for a in r:
            if spec.valuation(a) < 0:
                raise DomainError(f"entry {format_element(a)} lies outside the ring")

    one = FieldElement.one(spec.field)
    zero = FieldElement.zero(spec.field)
    d = [list(r) for r in rows]
    u = [[one if i == j else zero for j in range(m)] for i in range(m)]
    v = [[one if i == j else zero for j in range(n)] for i in range(n)]

    for k in range(min(m, n)):
        pivot = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if not d[i][j].is_zero:
                    val = spec.valuation(d[i][j]).finite
                    if best is None or val < best:
                        best, pivot = val, (i, j)
        if pivot is None:
            break
        pi_row, pi_col = pivot
        if pi_row != k:
            d[k], d[pi_row] = d[pi_row], d[k]
            u[k], u[pi_row] = u[pi_row], u[k]
        if pi_col != k:
            for row in d:
                row[k], row[pi_col] = row[pi_col], row[k]
            for row in v:
                row[k], row[pi_col] = row[pi_col], row[k]
        unit = d[k][k].shift(-best)
        if unit != one:
            scale = unit.inverse()
            d[k] = [scale * a for a in d[k]]
            u[k] = [scale * a for a in u[k]]
        # Row k of d is zero left of column k and column k is zero above it,
        # so the updates below skip every a - q*0 and write the entries they
        # clear as zero instead of computing them.
        for i in range(k + 1, m):
            if d[i][k].is_zero:
                continue
            q = d[i][k] / d[k][k]
            d[i][k] = zero
            d[i][k + 1 :] = [a - q * b if b else a for a, b in zip(d[i][k + 1 :], d[k][k + 1 :])]
            u[i] = [a - q * b if b else a for a, b in zip(u[i], u[k])]
        for j in range(k + 1, n):
            if d[k][j].is_zero:
                continue
            q = d[k][j] / d[k][k]
            d[k][j] = zero
            for row in v:
                if row[k]:
                    row[j] = row[j] - q * row[k]

    return SnfResult(
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in d),
        tuple(tuple(r) for r in v),
    )


def _eliminate(rows: list, step, one) -> "tuple[int, object, int]":
    """Fraction-free (Bareiss 1968) elimination of ``rows`` in place.

    Entry updates are step(a, p, c, b, p_prev) = (a*p - c*b) / p_prev for
    the pivot p and the previous pivot p_prev (``one`` before the first);
    the quotient is exact, as every entry is then a minor of the input.
    Returns the rank, the last pivot and the number of row swaps.
    """
    prev = one
    rank = swaps = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            swaps += 1
        top = rows[rank]
        p = top[col]
        for row in rows[rank + 1 :]:
            c = row[col]
            row[col + 1 :] = [step(a, p, c, b, prev) for a, b in zip(row[col + 1 :], top[col + 1 :])]
        prev = p
        rank += 1
    return rank, prev, swaps


def _fraction_free(spec: ValuationSpec, matrix: Sequence) -> "tuple[int, object, FieldElement]":
    """:func:`_eliminate` on ring values; builds no U or V and no SNF.

    Each row is first multiplied by the lcm of its denominators, so the
    entries lie in Z or k[t].  Returns the rank over K, the last pivot (a
    ring value), and the product of the row scales negated once per row
    swap.  For a square matrix of full rank the determinant is the last
    pivot divided by that scale.
    """
    ring = spec.field.backend
    scale = FieldElement.one(spec.field)
    rows = []
    for r in matrix:
        nums, s = ring.clear_denominators(r)
        rows.append(nums)
        scale = scale * s
    rank, pivot, swaps = _eliminate(rows, ring.cross_quotient, ring.one)
    return rank, pivot, -scale if swaps % 2 else scale


def map_injective(f: FilteredMap) -> bool:
    """True iff the underlying module map is injective (full column rank over K).

    The rank comes from one fraction-free elimination; no SNF is computed.
    """
    return _fraction_free(f.spec, f.matrix)[0] == f.source.rank


def _rectangular(matrix: Sequence) -> tuple:
    rows = tuple(tuple(r) for r in matrix)
    if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
        raise DomainError("matrix must be rectangular and nonempty")
    return rows


def mat_mul(spec: ValuationSpec, a: Sequence, b: Sequence) -> tuple:
    a, b = _rectangular(a), _rectangular(b)
    if len(a[0]) != len(b):
        raise DomainError("matrix dimensions do not match")
    zero = FieldElement.zero(spec.field)
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = zero
            for k in range(len(b)):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def det(spec: ValuationSpec, matrix: Sequence) -> FieldElement:
    """Exact determinant by one fraction-free elimination; no SNF is computed.

    The determinant of the 0 x 0 matrix is 1, the empty product.
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise DomainError("determinant needs a square matrix")
    rank, pivot, scale = _fraction_free(spec, matrix)
    if rank < n:
        return FieldElement.zero(spec.field)
    return FieldElement(spec.field, pivot, scale._n)


# ---------------------------------------------------------------------------
# text interface: rows ';'-separated, entries ','-separated

def parse_vector(text: str, spec: ValuationSpec) -> tuple:
    parts = text.split(",")
    return tuple(parse_element(p, spec.field) for p in parts)


def parse_matrix(text: str, spec: ValuationSpec) -> tuple:
    rows = tuple(parse_vector(r, spec) for r in text.split(";"))
    if any(len(r) != len(rows[0]) for r in rows):
        raise DomainError("matrix rows have unequal lengths")
    return rows


def format_matrix(matrix: Matrix) -> str:
    return ";".join(",".join(format_element(a) for a in row) for row in matrix)


def format_residue_matrix(rows: ResidueMatrix) -> str:
    return ";".join(",".join(str(c) for c in row) for row in rows)


def parse_shifts(text: str) -> tuple:
    s = text.replace(" ", "")
    if not re.fullmatch(r"-?[0-9]+(,-?[0-9]+)*", s):
        raise DomainError(f"malformed shift vector {text!r}")
    return tuple(parse_int(x, "shift") for x in s.split(","))
