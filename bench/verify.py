"""Output checks for the benchmark, run outside the timed region.

Each check raises :class:`VerifyError` on a wrong output.  The padic SNF
and determinant checks recompute with plain ``Fraction`` arithmetic read
from the canonical text, independent of dvrfilt's own arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import dvrfilt as dv


class VerifyError(Exception):
    """An operation returned a wrong output."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise VerifyError(message)


# ---------------------------------------------------------------------------
# plain Fraction arithmetic for padic matrices


def frac(x) -> Fraction:
    return Fraction(dv.format_element(x))


def frac_matrix(m) -> list:
    return [[frac(x) for x in row] for row in m]


def frac_mul(a: list, b: list) -> list:
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def frac_det(m: list) -> Fraction:
    work = [list(r) for r in m]
    n = len(work)
    result = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            result = -result
        result *= work[k][k]
        for i in range(k + 1, n):
            q = work[i][k] / work[k][k]
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[k])]
    return result


def p_valuation(q: Fraction, p: int) -> int:
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def rank_over(rows: list, p: int) -> int:
    """Rank over F_p (p > 0) or Q (p = 0) of a matrix of Fractions."""
    work = [[(c % p if p else c) for c in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(int(work[rank][col]), -1, p) if p else 1 / work[rank][col]
        work[rank] = [(c * inv) % p if p else c * inv for c in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [((a - f * b) % p if p else a - f * b) for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Smith normal form


def diagonal_exponents(spec, d) -> list:
    """Exponents e_i of D = diag(pi^e_1, ..., pi^e_r, 0, ...); checks the shape."""
    m, n = len(d), len(d[0])
    exps = []
    zero_seen = False
    for i in range(m):
        for j in range(n):
            x = d[i][j]
            if i != j:
                require(x.is_zero, f"D[{i}][{j}] is off the diagonal and nonzero")
            elif x.is_zero:
                zero_seen = True
            else:
                require(not zero_seen, f"D[{i}][{i}] is nonzero after a zero")
                e = spec.valuation(x).finite
                require(e >= 0 and x == spec.uniformizer_power(e), f"D[{i}][{i}] is not a power of pi")
                require(not exps or exps[-1] <= e, f"D exponents decrease at {i}")
                exps.append(e)
    return exps


def check_snf(spec, a, res) -> list:
    """U*A*V = D exactly, D in Smith form, U and V invertible over R.

    Returns the diagonal exponents.
    """
    u, d, v = res.u, res.d, res.v
    m, n = len(a), len(a[0])
    require(len(u) == m and all(len(r) == m for r in u), "U is not m x m")
    require(len(v) == n and all(len(r) == n for r in v), "V is not n x n")
    require(len(d) == m and all(len(r) == n for r in d), "D is not m x n")
    exps = diagonal_exponents(spec, d)
    for name, t in (("U", u), ("V", v)):
        require(all(spec.valuation(x) >= 0 for row in t for x in row), f"{name} has an entry outside R")
    if spec.field.kind == "padic":
        p = spec.field.param
        fu, fv = frac_matrix(u), frac_matrix(v)
        require(frac_mul(frac_mul(fu, frac_matrix(a)), fv) == frac_matrix(d), "U*A*V != D")
        for name, t in (("U", fu), ("V", fv)):
            det = frac_det(t)
            require(det != 0 and p_valuation(det, p) == 0, f"det {name} is not a unit")
    else:
        require(dv.mat_mul(spec, dv.mat_mul(spec, u, a), v) == d, "U*A*V != D")
        for name, t in (("U", u), ("V", v)):
            require(spec.valuation(dv.det(spec, t)) == 0, f"det {name} is not a unit")
    return exps


def check_det(spec, a, det, res) -> None:
    if spec.field.kind == "padic":
        require(frac(det) == frac_det(frac_matrix(a)), "det(A) differs from the Fraction determinant")
        return
    diag = dv.FieldElement.one(spec.field)
    for k in range(len(a)):
        diag = diag * res.d[k][k]
    require(dv.det(spec, res.u) * det * dv.det(spec, res.v) == diag, "det U * det A * det V != det D")


def check_leading(spec, fmap, lead) -> int:
    """Entrywise recomputation of the leading matrix; returns its rank."""
    rows = []
    for i, row in enumerate(fmap.matrix):
        out = []
        for j, x in enumerate(row):
            e = fmap.source.shifts[j] - fmap.target.shifts[i]
            want = "0"
            if not x.is_zero and spec.valuation(x) == e:
                want = str(spec.residue(x / spec.uniformizer_power(e)))
            require(str(lead[i][j]) == want, f"leading entry ({i},{j}) is {lead[i][j]}, want {want}")
            out.append(Fraction(want))
        rows.append(out)
    return rank_over(rows, spec.residue_char)


# ---------------------------------------------------------------------------
# CLI


def check_cli(argv, code: int, stdout: str, expected: "tuple[int, str]") -> None:
    """A CLI process must exit 0 and print what in-process dispatch returns."""
    want_code, want_text = expected
    require(want_code == 0, f"dispatch exits {want_code} for {argv}")
    require(code == want_code, f"exit code {code}, dispatch gives {want_code}")
    require(stdout == want_text, "stdout differs from dispatch")
