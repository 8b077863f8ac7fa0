"""Exact arithmetic in discrete valuation rings.

Concrete realizations of the p-adic and t-adic valued fields, the
valuation filtration and its strong splitting, the associated graded
ring, filtered free modules with Smith normal form and the graded
injectivity criterion, fractional ideals, and the semigroup-filtration
ideal spectrum, all in exact arithmetic with property checkers.
"""

from .elements import (
    DomainError,
    FieldElement,
    FieldSpec,
    ParseError,
    field_arith,
    format_element,
    parse_element,
    pi_power,
)
from .filtered_modules import (
    CompatibilityError,
    FilteredFreeModule,
    FilteredMap,
    SnfResult,
    det,
    escape_level,
    gr_injective,
    leading_matrix,
    make_filtered_map,
    map_injective,
    mat_mul,
    residue_matrix_rank,
    snf,
)
from .filtration import (
    adic_vs_valuation,
    check_filtration_axioms,
    level_member,
    principal_generator,
    strong_split,
)
from .graded import (
    GradedElement,
    format_graded,
    gr_arith,
    gr_to_poly,
    parse_graded,
    poly_to_gr,
    symbol,
)
from .ideals import (
    FracIdeal,
    as_power_of_m,
    denominator_witness,
    format_ideal,
    ideal_from_generators,
    ideal_intersect,
    ideal_inverse,
    ideal_op,
    ideal_product,
    ideal_sum,
    parse_ideal,
)
from .reports import AxiomResult, CheckReport, ClauseStatus, StatusReport
from .spectrum import (
    FiltFn,
    SpecPrime,
    branched,
    f_value,
    lemma32_report,
    lower_member,
    lower_member_literal,
    prop36_check,
    spec_f,
    upper_member,
    upper_member_literal,
)
from .valuation import (
    INFINITY,
    ExtInt,
    ResidueElem,
    ValuationSpec,
    check_valuation_axioms,
)

__version__ = "0.1.0"
