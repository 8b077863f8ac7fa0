"""Filtered modules and maps: compatibility, leading matrix, injectivity, SNF."""

import random
from fractions import Fraction

import pytest

from dvrfilt import (
    CompatibilityError,
    DomainError,
    FieldElement,
    FilteredFreeModule,
    ValuationSpec,
    det,
    escape_level,
    gr_injective,
    leading_matrix,
    make_filtered_map,
    map_injective,
    mat_mul,
    parse_element,
    snf,
)
from dvrfilt.filtered_modules import format_matrix, parse_matrix
from dvrfilt.sampling import random_ring_element

from instances import (
    random_filtered_map,
    random_matrix,
    random_module_element,
    snf_diagonal_exponents,
)

S2 = ValuationSpec.from_string("padic:2")
S3 = ValuationSpec.from_string("padic:3")
ST3 = ValuationSpec.from_string("tadic:3")
ST0 = ValuationSpec.from_string("tadic:0")


def _mod(spec, *shifts):
    return FilteredFreeModule(spec, shifts)


def _mat(spec, text):
    return parse_matrix(text, spec)


# -- independent oracles ----------------------------------------------------

def _raw_rank(rows, char):
    # Gaussian elimination on plain ints mod char, or exact Fractions.
    work = [[c.value if hasattr(c, "value") else c for c in row] for row in rows]
    if not work or not work[0]:
        return 0
    if char:
        inv = lambda a: pow(a, -1, char)
        norm = lambda a: a % char
    else:
        work = [[Fraction(a) for a in row] for row in work]
        inv = lambda a: Fraction(1) / a
        norm = lambda a: a
    rank = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(rank, len(work)) if norm(work[i][col])), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        scale = inv(norm(work[rank][col]))
        work[rank] = [norm(a * scale) for a in work[rank]]
        for i in range(len(work)):
            if i != rank and norm(work[i][col]):
                f = norm(work[i][col])
                work[i] = [norm(a - f * b) for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _gr_injective_bruteforce(f):
    # Per-degree check of the induced graded map: in degree d the active
    # source generators are those with shift <= d; the image class of
    # pi^(d - s_j) e_j is computed with actual element arithmetic, not the
    # leading-matrix rule.
    spec = f.spec
    src, tgt = f.source, f.target
    all_shifts = list(src.shifts) + list(tgt.shifts)
    bound = 2 * max(abs(s) for s in all_shifts) + 4
    char = spec.residue_char
    for d in range(bound + 1):
        cols = [j for j in range(src.rank) if d >= src.shifts[j]]
        if not cols:
            continue
        rows = [i for i in range(tgt.rank) if d >= tgt.shifts[i]]
        chart = []
        for i in rows:
            need = d - tgt.shifts[i]
            row = []
            for j in cols:
                x = f.matrix[i][j] * spec.uniformizer_power(d - src.shifts[j])
                if not x.is_zero and spec.valuation(x) == need:
                    row.append(spec.residue(x / spec.uniformizer_power(need)))
                else:
                    row.append(spec.residue_zero())
            chart.append(row)
        if _raw_rank(chart, char) < len(cols):
            return False
    return True


def _column_rank_over_field(spec, matrix):
    # rank over the fraction field by Gaussian elimination on FieldElements;
    # a route independent of the SNF implementation
    work = [list(r) for r in matrix]
    rank = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(rank, len(work)) if not work[i][col].is_zero), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and not work[i][col].is_zero:
                q = work[i][col] / work[rank][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


# -- compatibility ------------------------------------------------------------

def test_make_filtered_map_zero_shifts_accepts_integral():
    f = make_filtered_map(_mod(S2, 0), _mod(S2, 0), _mat(S2, "2"))
    assert f.matrix[0][0] == parse_element("2", S2.field)


def test_make_filtered_map_rejects_shift_violation():
    # brute check: e_1 lies in M_1 (v(1) = 0 >= 1 - 1), while its image 1
    # needs valuation >= 1 - 0 to lie in N_1
    assert S2.valuation(FieldElement.one(S2.field)) >= 1 - 1
    assert not S2.valuation(FieldElement.one(S2.field)) >= 1 - 0
    with pytest.raises(CompatibilityError) as exc:
        make_filtered_map(_mod(S2, 1), _mod(S2, 0), _mat(S2, "1"))
    assert (exc.value.row, exc.value.col) == (0, 0)


def test_make_filtered_map_accepts_pi_entry_with_shift():
    make_filtered_map(_mod(S2, 1), _mod(S2, 0), _mat(S2, "2"))


def test_make_filtered_map_requires_entries_in_ring():
    # negative shift difference clamps the bound at zero: R_k = R for k <= 0
    with pytest.raises(CompatibilityError):
        make_filtered_map(_mod(S2, 0), _mod(S2, 2), _mat(S2, "1/2"))


def test_make_filtered_map_dimension_check():
    with pytest.raises(ValueError):
        make_filtered_map(_mod(S2, 0, 0), _mod(S2, 0), _mat(S2, "2"))


# -- leading matrix -----------------------------------------------------------

def test_leading_matrix_kills_higher_valuation():
    f = make_filtered_map(_mod(S3, 0), _mod(S3, 0), _mat(S3, "3"))
    (entry,), = leading_matrix(f)
    assert entry.is_zero


def test_leading_matrix_unit_entry():
    f = make_filtered_map(_mod(S3, 0), _mod(S3, 0), _mat(S3, "5"))
    (entry,), = leading_matrix(f)
    assert entry.value == 5 % 3 == 2


def test_leading_matrix_shifted_chart():
    f = make_filtered_map(_mod(S2, 1), _mod(S2, 0), _mat(S2, "2"))
    (entry,), = leading_matrix(f)
    assert entry.value == 1  # 2 / pi = 1


# -- graded injectivity -------------------------------------------------------

def test_gr_injective_multiplication_by_pi_is_not():
    f = make_filtered_map(_mod(S2, 0), _mod(S2, 0), _mat(S2, "2"))
    assert not gr_injective(f)
    assert not _gr_injective_bruteforce(f)


def test_gr_injective_identity():
    f = make_filtered_map(_mod(S2, 0, 0), _mod(S2, 0, 0), _mat(S2, "1,0;0,1"))
    assert gr_injective(f)


def test_gr_injective_rank_deficient():
    f = make_filtered_map(_mod(S3, 0, 0), _mod(S3, 0, 0), _mat(S3, "1,0;0,3"))
    lead = leading_matrix(f)
    assert _raw_rank(lead, 3) == 1
    assert not gr_injective(f)


@pytest.mark.parametrize("spec", [S2, ST3], ids=["padic:2", "tadic:3"])
def test_gr_injective_agrees_with_per_degree_bruteforce(spec):
    rng = random.Random(2024)
    for _ in range(200):
        f = random_filtered_map(spec, rng, max_rank=3)
        assert gr_injective(f) == _gr_injective_bruteforce(f)


# -- Smith normal form --------------------------------------------------------

def test_snf_worked_example():
    a = _mat(S2, "2,4;0,8")
    u, d, v = snf(S2, a)
    assert format_matrix(d) == "2,0;0,8"
    assert snf_diagonal_exponents(S2, d) == [1, 3]
    # elementary operations preserve the determinant valuation: v(det A) = 4
    assert S2.valuation(det(S2, a)) == 4 == 1 + 3
    assert mat_mul(S2, mat_mul(S2, u, a), v) == d


def test_snf_single_pi():
    pi = S2.uniformizer
    u, d, v = snf(S2, ((pi,),))
    assert d == ((pi,),)


def test_snf_zero_matrix():
    zero = FieldElement.zero(S2.field)
    u, d, v = snf(S2, ((zero, zero), (zero, zero)))
    assert all(entry.is_zero for row in d for entry in row)
    assert u == ((FieldElement.one(S2.field), zero), (zero, FieldElement.one(S2.field)))
    assert v == u


def test_snf_rejects_fractional_entries():
    with pytest.raises(ValueError):
        snf(S2, ((parse_element("1/2", S2.field),),))


@pytest.mark.parametrize("spec", [S2, ST3, ST0], ids=lambda s: str(s.field))
def test_mat_mul_rejects_empty_or_ragged_operands(spec):
    one = FieldElement.one(spec.field)
    for a, b in (([], []), ([[]], [[]]), ([[one]], []), ([], [[one]]), ([[one], [one, one]], [[one]])):
        with pytest.raises(DomainError, match="^matrix must be rectangular and nonempty$"):
            mat_mul(spec, a, b)
        with pytest.raises(DomainError, match="^matrix must be rectangular and nonempty$"):
            mat_mul(spec, b, a)
    assert mat_mul(spec, [[one, one]], [[one], [one]]) == ((one + one,),)


@pytest.mark.parametrize("spec", [S2, ST3, ST0], ids=lambda s: str(s.field))
def test_det_of_the_empty_matrix_is_the_empty_product(spec):
    assert det(spec, []) == det(spec, ()) == FieldElement.one(spec.field)


# tadic:0 entries swell fastest, so it runs on fewer and smaller matrices
RANDOM_MATRIX_CASES = [
    pytest.param(S2, 200, 4, 5, id="padic:2"),
    pytest.param(ST3, 200, 4, 5, id="tadic:3"),
    pytest.param(ST0, 30, 3, 3, id="tadic:0"),
]


@pytest.mark.usefixtures("trusted_guard", "valuation_guard")
@pytest.mark.parametrize("spec,count,max_dim,max_val", RANDOM_MATRIX_CASES)
def test_snf_properties_random(spec, count, max_dim, max_val):
    rng = random.Random(99)
    for _ in range(count):
        rows = rng.randint(1, max_dim)
        cols = rng.randint(1, max_dim)
        a = random_matrix(spec, rng, rows, cols, max_val)
        u, d, v = snf(spec, a)
        assert mat_mul(spec, mat_mul(spec, u, a), v) == d
        assert spec.valuation(det(spec, u)) == 0
        assert spec.valuation(det(spec, v)) == 0
        exps = snf_diagonal_exponents(spec, d)
        assert exps == sorted(exps)
        # off-diagonal is zero
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j].is_zero
        # diagonal entries are exact uniformizer powers
        for k, e in enumerate(exps):
            assert d[k][k] == spec.uniformizer_power(e)
        if rows == cols:
            dt = det(spec, a)
            if not dt.is_zero:
                assert sum(exps) == spec.valuation(dt).finite
                min_val = min(
                    spec.valuation(x).finite
                    for row in a
                    for x in row
                    if not x.is_zero
                )
                assert exps[0] == min_val


# -- map injectivity ----------------------------------------------------------

def test_map_injective_multiplication_by_pi():
    f = make_filtered_map(_mod(S2, 0), _mod(S2, 0), _mat(S2, "2"))
    assert map_injective(f)


def test_map_injective_zero_map():
    f = make_filtered_map(_mod(S2, 0), _mod(S2, 0), _mat(S2, "0"))
    assert not map_injective(f)


def test_map_injective_rank_one():
    f = make_filtered_map(_mod(S2, 0, 0), _mod(S2, 0, 0), _mat(S2, "1,2;2,4"))
    assert _column_rank_over_field(S2, f.matrix) == 1
    assert not map_injective(f)


@pytest.mark.parametrize("spec,count,max_dim,max_val", RANDOM_MATRIX_CASES)
def test_map_injective_agrees_with_field_rank(spec, count, max_dim, max_val):
    rng = random.Random(7)
    for _ in range(count):
        f = random_filtered_map(spec, rng, max_dim, max_val)
        assert map_injective(f) == (
            _column_rank_over_field(spec, f.matrix) == f.source.rank
        )


# -- the central implication -------------------------------------------------

def test_gr_injective_implies_injective():
    rng = random.Random(12345)
    seen_gr_injective = 0
    for _ in range(300):
        f = random_filtered_map(S2, rng)
        if gr_injective(f):
            seen_gr_injective += 1
            assert map_injective(f)
    assert seen_gr_injective > 10


def test_converse_fails_for_multiplication_by_pi():
    f = make_filtered_map(_mod(S2, 0), _mod(S2, 0), _mat(S2, "2"))
    assert map_injective(f) and not gr_injective(f)


# -- escape levels and module laws ---------------------------------------------

def test_escape_level_examples():
    m = _mod(S2, 0)
    x = (parse_element("4", S2.field),)
    assert m.member(x, 2) and not m.member(x, 3)
    assert escape_level(m, x) == 3
    assert escape_level(m, (FieldElement.one(S2.field),)) == 1
    m2 = _mod(S2, 0, 1)
    x2 = (FieldElement.zero(S2.field), parse_element("2", S2.field))
    assert escape_level(m2, x2) == 3


@pytest.mark.parametrize("shifts", [("3",), (1.5,), (0, 2.0)])
def test_module_rejects_non_integer_shifts(shifts):
    with pytest.raises(DomainError):
        FilteredFreeModule(S2, shifts)


def test_escape_level_rejects_zero_vector():
    with pytest.raises(ValueError):
        escape_level(_mod(S2, 0, 0), (FieldElement.zero(S2.field),) * 2)


def test_escape_level_is_exact():
    rng = random.Random(55)
    for _ in range(300):
        rank = rng.randint(1, 4)
        module = FilteredFreeModule(
            S2, tuple(rng.randint(-3, 3) for _ in range(rank))
        )
        x = random_module_element(module, rng)
        e = escape_level(module, x)
        assert module.member(x, e - 1)
        assert not module.member(x, e)


def test_module_filtration_laws():
    rng = random.Random(60)
    for _ in range(200):
        rank = rng.randint(1, 3)
        module = FilteredFreeModule(S2, tuple(rng.randint(-3, 3) for _ in range(rank)))
        n = rng.randint(0, 4)
        m = rng.randint(0, 4)
        # element of M_m: coordinate j needs valuation max(0, m - s_j)
        x = tuple(
            S2.uniformizer_power(max(0, m - s)) * random_ring_element(S2.field, rng)
            for s in module.shifts
        )
        assert module.member(x, m)
        r = S2.uniformizer_power(n) * random_ring_element(S2.field, rng)
        rx = tuple(r * c for c in x)
        assert module.member(rx, n + m)


def test_module_subset_law():
    rng = random.Random(61)
    module = _mod(S2, -2, 0, 2)
    for _ in range(200):
        x = random_module_element(module, rng)
        for n in range(0, 8):
            if module.member(x, n + 1):
                assert module.member(x, n)
