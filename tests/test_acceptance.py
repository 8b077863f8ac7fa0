"""Acceptance suite: every criterion at its stated scale, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All suites are seeded and deterministic; each runs in well under a minute.
"""

import random

from dvrfilt import (
    FieldElement,
    FiltFn,
    FracIdeal,
    SpecPrime,
    ValuationSpec,
    adic_vs_valuation,
    branched,
    check_filtration_axioms,
    check_valuation_axioms,
    denominator_witness,
    det,
    escape_level,
    format_element,
    gr_injective,
    gr_to_poly,
    ideal_from_generators,
    ideal_inverse,
    ideal_product,
    lemma32_report,
    lower_member,
    lower_member_literal,
    make_filtered_map,
    map_injective,
    mat_mul,
    parse_element,
    principal_generator,
    prop36_check,
    snf,
    strong_split,
    symbol,
    upper_member,
    upper_member_literal,
)
from dvrfilt.cli import dispatch
from dvrfilt.filtered_modules import FilteredFreeModule
from dvrfilt.graded import poly_to_gr
from dvrfilt.sampling import (
    random_element,
    random_maximal_ideal_element,
    random_nonzero_element,
    random_nonzero_level_element,
    random_unit,
)

from instances import (
    random_filtered_map,
    random_matrix,
    random_module_element,
    snf_diagonal_exponents,
)
from oracles import residue_poly_add, residue_poly_mul

FIELDS = ("padic:2", "padic:5", "tadic:3", "tadic:0")
S2 = ValuationSpec.from_string("padic:2")
S3 = ValuationSpec.from_string("padic:3")


def _verdict(number, name, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_valuation_axioms():
    ok = True
    for field_str in FIELDS:
        spec = ValuationSpec.from_string(field_str)
        for seed in (1, 2, 3):
            report = check_valuation_axioms(spec, seed, 10_000)
            ok = ok and report.ok
        for n in range(-20, 21):
            ok = ok and spec.valuation(spec.uniformizer_power(n)) == n
    _verdict(1, "valuation axioms", ok)


def test_criterion_02_filtration_axioms():
    report = check_filtration_axioms(S2, seed=7, samples=500, max_level=20)
    _verdict(2, "filtration axioms to level 20", report.ok)


def test_criterion_03_strong_filtration_split():
    rng = random.Random(300)
    ok = True
    for n in range(21):
        for m in range(21):
            for _ in range(100):
                c = random_nonzero_level_element(S2.field, rng, n + m)
                a, b = strong_split(S2, c, n, m)
                if not (
                    S2.valuation(a) >= n and S2.valuation(b) >= m and a * b == c
                ):
                    ok = False
    _verdict(3, "strong split to level 20", ok)


def test_criterion_04_adic_comparison_and_principal_generators():
    ok = True
    for n in range(13):
        ok = ok and adic_vs_valuation(S2, n, seed=40 + n, samples=200).ok
    rng = random.Random(400)
    for _ in range(1000):
        gens = [
            random_element(S2.field, rng, kmin=0, kmax=8)
            for _ in range(rng.randint(1, 5))
        ]
        vals = [S2.valuation(g).finite for g in gens if not g.is_zero]
        expected = min(vals) if vals else None
        ok = ok and principal_generator(S2, gens) == expected
    _verdict(4, "m-adic comparison and principal generators", ok)


def test_criterion_05_graded_ring_laws():
    rng = random.Random(500)
    ok = True
    for _ in range(1000):
        x = random_nonzero_element(S3.field, rng, kmin=0, kmax=5)
        y = random_nonzero_element(S3.field, rng, kmin=0, kmax=5)
        sx, sy = symbol(S3, x), symbol(S3, y)
        ok = ok and symbol(S3, x * y) == sx * sy
        ok = ok and (sx * sy).degree() == sx.degree() + sy.degree()
    char = S3.residue_char
    for _ in range(1000):
        u = poly_to_gr(S3, [rng.randrange(3) for _ in range(rng.randrange(1, 6))])
        v = poly_to_gr(S3, [rng.randrange(3) for _ in range(rng.randrange(1, 6))])
        ok = ok and gr_to_poly(u + v) == residue_poly_add(
            gr_to_poly(u), gr_to_poly(v), char
        )
        ok = ok and gr_to_poly(u * v) == residue_poly_mul(
            gr_to_poly(u), gr_to_poly(v), char
        )
    _verdict(5, "graded ring laws", ok)


def test_criterion_06_graded_injectivity_criterion():
    rng = random.Random(600)
    ok = True
    gr_injective_count = 0
    for _ in range(1000):
        f = random_filtered_map(S2, rng, max_rank=4, max_entry_valuation=5, shift_bound=3)
        if gr_injective(f):
            gr_injective_count += 1
            if not map_injective(f):
                ok = False
        x = random_module_element(f.source, rng)
        e = escape_level(f.source, x)
        if not (f.source.member(x, e - 1) and not f.source.member(x, e)):
            ok = False
    ok = ok and gr_injective_count > 0
    # stored counterexample to the converse: multiplication by the uniformizer
    zero_shift = FilteredFreeModule(S2, (0,))
    counter = make_filtered_map(zero_shift, zero_shift, ((S2.uniformizer,),))
    ok = ok and map_injective(counter) and not gr_injective(counter)
    _verdict(6, "gr-injectivity implies injectivity", ok)


def test_criterion_07_smith_normal_form():
    rng = random.Random(700)
    ok = True
    for _ in range(1000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = random_matrix(S2, rng, rows, cols, max_entry_valuation=5)
        u, d, v = snf(S2, a)
        if mat_mul(S2, mat_mul(S2, u, a), v) != d:
            ok = False
        if S2.valuation(det(S2, u)) != 0 or S2.valuation(det(S2, v)) != 0:
            ok = False
        exps = snf_diagonal_exponents(S2, d)
        if exps != sorted(exps):
            ok = False
        if rows == cols:
            dt = det(S2, a)
            if not dt.is_zero:
                if sum(exps) != S2.valuation(dt).finite:
                    ok = False
                min_val = min(
                    S2.valuation(x).finite for row in a for x in row if not x.is_zero
                )
                if exps[0] != min_val:
                    ok = False
    _verdict(7, "Smith normal form", ok)


def test_criterion_08_fractional_ideal_group():
    rng = random.Random(800)
    unit = FracIdeal.unit(S2)
    ok = True
    for _ in range(1000):
        ideal = FracIdeal(S2, rng.randint(-12, 12))
        ok = ok and ideal_product(ideal, ideal_inverse(ideal)) == unit
        witness = denominator_witness(ideal)
        gen = S2.uniformizer_power(ideal.exponent)
        ok = ok and S2.valuation(witness * gen) >= 0
        gens = [
            random_element(S2.field, rng) for _ in range(rng.randint(1, 4))
        ]
        vals = [S2.valuation(g).finite for g in gens if not g.is_zero]
        from_gens = ideal_from_generators(S2, gens)
        expected = FracIdeal(S2, min(vals)) if vals else FracIdeal.zero(S2)
        ok = ok and from_gens == expected
    _verdict(8, "fractional ideal group law", ok)


def test_criterion_09_spectrum_closed_forms():
    ff = FiltFn(S2)
    rng = random.Random(900)
    strata = [FieldElement.zero(S2.field)]
    for v in range(11):
        strata.append(S2.uniformizer_power(v))
        strata.append(S2.uniformizer_power(v) * random_unit(S2.field, rng))
    ok = True
    for x in strata:
        fx = ff.value(x)
        for g in range(1, 11):
            want_upper = x.is_zero or fx >= 1
            ok = ok and upper_member(ff, x, g) == want_upper
            ok = ok and upper_member_literal(ff, x, g) == want_upper
            want_lower = (not x.is_zero) and fx.finite >= 1 and g % fx.finite == 0
            ok = ok and lower_member(ff, x, g) == want_lower
            ok = ok and lower_member_literal(ff, x, g) == want_lower
    report = lemma32_report(ff, seed=11, samples=500)
    ok = ok and report.status_map() == {
        "i": "FAIL-LITERAL",
        "ii": "PASS",
        "iii": "PASS",
        "iv-upper": "PASS",
        "iv-lower": "FAIL-LITERAL",
    }
    for clause in report.clauses:
        if clause.status == "FAIL-LITERAL":
            witness = parse_element(clause.witness, S2.field)
            ok = ok and S2.valuation(witness) >= 1
    ok = ok and branched(ff, SpecPrime.MAXIMAL_IDEAL)
    ok = ok and not branched(ff, SpecPrime.ZERO_IDEAL)
    for _ in range(100):
        x = random_maximal_ideal_element(S2.field, rng)
        ok = ok and prop36_check(ff, x, seed=9, samples=50).clauses[0].status == "PASS"
    _verdict(9, "spectrum closed forms and literal report", ok)


def test_criterion_10_cli_contract():
    ok = True
    seeded = [
        ["axioms", "--field", "padic:2", "--seed", "5", "--samples", "300"],
        ["axioms", "--field", "tadic:0", "--seed", "5", "--samples", "100"],
        ["filt-check", "--field", "padic:2", "--seed", "7", "--samples", "25", "--max-level", "5"],
        ["adic-check", "--field", "tadic:3", "--level", "2", "--seed", "3", "--samples", "50"],
        ["specf", "lemma32", "--field", "padic:5", "--seed", "11", "--samples", "100"],
        ["specf", "lemma32", "--field", "padic:5", "--seed", "11", "--samples", "100", "--json"],
    ]
    for argv in seeded:
        first = dispatch(argv)
        second = dispatch(argv)
        ok = ok and first == second and first[0] == 0
    for field_str in FIELDS:
        spec = ValuationSpec.from_string(field_str)
        rng = random.Random(1000)
        for _ in range(1000):
            x = random_nonzero_element(spec.field, rng)
            text = format_element(x)
            code, out = dispatch(["parse", "--field", field_str, text])
            ok = ok and code == 0 and out == f"element={text}\n"
    exit_matrix = [
        (["val", "--field", "padic:2", "8/12"], 0),
        (["specf", "upper", "--field", "padic:2", "1", "4"], 0),
        (["grmap", "compat", "--field", "padic:2", "--shifts-src=1", "--shifts-dst=0", "1"], 1),
        (["specf", "lemma32", "--field", "padic:2", "--seed", "1", "--strict"], 1),
        (["val", "--field", "padic:4", "3"], 2),
        (["val", "--field", "padic:2", "oops"], 2),
        (["residue", "--field", "padic:2", "1/2"], 2),
        (["snf", "--field", "padic:2", "1,2;3"], 2),
        (["axioms", "--field", "padic:2"], 2),
        (["bogus"], 2),
    ]
    for argv, expected in exit_matrix:
        code, _ = dispatch(argv)
        ok = ok and code == expected
    _verdict(10, "CLI determinism, round-trips, exit codes", ok)
