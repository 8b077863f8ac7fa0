"""Exact arithmetic in discrete valuation rings.

Concrete realizations of the p-adic and t-adic valued fields, the
valuation filtration and its strong splitting, the associated graded
ring, filtered free modules with Smith normal form and the graded
injectivity criterion, fractional ideals, and the semigroup-filtration
ideal spectrum, all in exact arithmetic with property checkers.

The exported names load on first use (PEP 562): ``import dvrfilt``
imports no submodule, and ``dvrfilt.snf`` or ``from dvrfilt import snf``
imports only the modules that ``snf`` needs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports through the package
_MODULES = {
    "elements": (
        "DomainError",
        "FieldElement",
        "FieldSpec",
        "ParseError",
        "field_arith",
        "format_element",
        "parse_element",
        "pi_power",
    ),
    "filtered_modules": (
        "CompatibilityError",
        "FilteredFreeModule",
        "FilteredMap",
        "SnfResult",
        "det",
        "escape_level",
        "gr_injective",
        "leading_matrix",
        "make_filtered_map",
        "map_injective",
        "mat_mul",
        "residue_matrix_rank",
        "snf",
    ),
    "filtration": (
        "adic_vs_valuation",
        "check_filtration_axioms",
        "level_member",
        "principal_generator",
        "strong_split",
    ),
    "graded": (
        "GradedElement",
        "format_graded",
        "gr_arith",
        "gr_to_poly",
        "parse_graded",
        "poly_to_gr",
        "symbol",
    ),
    "ideals": (
        "FracIdeal",
        "as_power_of_m",
        "denominator_witness",
        "format_ideal",
        "ideal_from_generators",
        "ideal_intersect",
        "ideal_inverse",
        "ideal_op",
        "ideal_product",
        "ideal_sum",
        "parse_ideal",
    ),
    "reports": ("AxiomResult", "CheckReport", "ClauseStatus", "StatusReport"),
    "spectrum": (
        "FiltFn",
        "SpecPrime",
        "branched",
        "lemma32_report",
        "lower_member",
        "lower_member_literal",
        "prop36_check",
        "spec_f",
        "upper_member",
        "upper_member_literal",
    ),
    "valuation": (
        "INFINITY",
        "ExtInt",
        "ResidueElem",
        "ValuationSpec",
        "check_valuation_axioms",
    ),
}

# exported name -> submodule
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
