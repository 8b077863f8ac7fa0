"""The package surface: lazily resolved exports and the immutable value classes."""

import importlib
from fractions import Fraction

import pytest

import dvrfilt
from dvrfilt import (
    INFINITY,
    AxiomResult,
    CheckReport,
    ClauseStatus,
    ExtInt,
    FieldElement,
    FieldSpec,
    FiltFn,
    FilteredFreeModule,
    FilteredMap,
    FracIdeal,
    GradedElement,
    ResidueElem,
    StatusReport,
    ValuationSpec,
)

# Every name the package exported when its __init__ imported all submodules
# eagerly, with the submodule that defines it, less the names dropped on
# purpose (spectrum.f_value, a wrapper of FiltFn.value).  A name may be
# added to the package; dropping one is an API change listed in CHANGES.md.
EXPORTS = {
    "elements": "DomainError FieldElement FieldSpec ParseError field_arith format_element "
    "parse_element pi_power",
    "filtered_modules": "CompatibilityError FilteredFreeModule FilteredMap SnfResult det "
    "escape_level gr_injective leading_matrix make_filtered_map map_injective mat_mul "
    "residue_matrix_rank snf",
    "filtration": "adic_vs_valuation check_filtration_axioms level_member "
    "principal_generator strong_split",
    "graded": "GradedElement format_graded gr_arith gr_to_poly parse_graded poly_to_gr symbol",
    "ideals": "FracIdeal as_power_of_m denominator_witness format_ideal ideal_from_generators "
    "ideal_intersect ideal_inverse ideal_op ideal_product ideal_sum parse_ideal",
    "reports": "AxiomResult CheckReport ClauseStatus StatusReport",
    "spectrum": "FiltFn SpecPrime branched lemma32_report lower_member "
    "lower_member_literal prop36_check spec_f upper_member upper_member_literal",
    "valuation": "INFINITY ExtInt ResidueElem ValuationSpec check_valuation_axioms",
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


def test_export_list_is_complete():
    assert len(EXPORTED) == 63
    assert set(dvrfilt.__all__) == {name for _, name in EXPORTED}


@pytest.mark.parametrize("module, name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_exported_name_resolves_to_its_definition(monkeypatch, module, name):
    definition = getattr(importlib.import_module(f"dvrfilt.{module}"), name)
    # drop a value cached by an earlier lookup, so that both forms resolve
    # through the package's __getattr__
    monkeypatch.delitem(vars(dvrfilt), name, raising=False)
    namespace = {}
    exec(f"from dvrfilt import {name}", namespace)
    assert namespace[name] is definition
    assert vars(dvrfilt)[name] is definition
    monkeypatch.delitem(vars(dvrfilt), name)
    assert getattr(dvrfilt, name) is definition
    assert name in dvrfilt.__all__
    assert name in dir(dvrfilt)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dvrfilt.no_such_name
    with pytest.raises(ImportError):
        exec("from dvrfilt import no_such_name", {})
    assert "no_such_name" not in dir(dvrfilt)


# -- the value classes: immutable, slotted, equal by value, with the repr
# -- text the package has always printed

F2 = FieldSpec("padic", 2)
T0 = FieldSpec("tadic", 0)
S2 = ValuationSpec(F2)
ST0 = ValuationSpec(T0)


def _module(shifts=(0, 1)):
    return FilteredFreeModule(S2, shifts)


def _map(corner=2):
    one, zero = FieldElement(F2, 1, 1), FieldElement(F2, 0, 1)
    return FilteredMap(_module(), _module(), ((one, FieldElement(F2, corner, 1)), (zero, one)))


# class -> (make an instance, make a different one, the instance's repr)
VALUES = {
    FieldSpec: (
        lambda: FieldSpec("padic", 2),
        lambda: FieldSpec("padic", 3),
        "FieldSpec(kind='padic', param=2)",
    ),
    FieldElement: (
        lambda: FieldElement(T0, (1, 2), (2,)),
        lambda: FieldElement(T0, (1, 2), (3,)),
        "FieldElement(spec=FieldSpec(kind='tadic', param=0), "
        "num=(Fraction(1, 2), Fraction(1, 1)), den=(Fraction(1, 1),))",
    ),
    ExtInt: (lambda: ExtInt(3), lambda: INFINITY, "ExtInt(3)"),
    ResidueElem: (
        lambda: ResidueElem(0, Fraction(1, 2)),
        lambda: ResidueElem(3, 2),
        "ResidueElem(char=0, value=Fraction(1, 2))",
    ),
    ValuationSpec: (
        lambda: ValuationSpec(FieldSpec("padic", 2)),
        lambda: ST0,
        "ValuationSpec(field=FieldSpec(kind='padic', param=2))",
    ),
    FilteredFreeModule: (
        _module,
        lambda: _module((0, 2)),
        "FilteredFreeModule(spec=ValuationSpec(field=FieldSpec(kind='padic', param=2)), "
        "shifts=(0, 1))",
    ),
    FilteredMap: (
        _map,
        lambda: _map(4),
        "FilteredMap(source=FilteredFreeModule(spec=ValuationSpec(field=FieldSpec("
        "kind='padic', param=2)), shifts=(0, 1)), target=FilteredFreeModule(spec="
        "ValuationSpec(field=FieldSpec(kind='padic', param=2)), shifts=(0, 1)), matrix=(("
        "FieldElement(spec=FieldSpec(kind='padic', param=2), num=1, den=1), FieldElement("
        "spec=FieldSpec(kind='padic', param=2), num=2, den=1)), (FieldElement(spec="
        "FieldSpec(kind='padic', param=2), num=0, den=1), FieldElement(spec=FieldSpec("
        "kind='padic', param=2), num=1, den=1))))",
    ),
    GradedElement: (
        lambda: GradedElement(S2, ((1, ResidueElem(2, 1)),)),
        lambda: GradedElement(S2, ((2, ResidueElem(2, 1)),)),
        "GradedElement(spec=ValuationSpec(field=FieldSpec(kind='padic', param=2)), "
        "terms=((1, ResidueElem(char=2, value=1)),))",
    ),
    FracIdeal: (
        lambda: FracIdeal(S2, None),
        lambda: FracIdeal(S2, 0),
        "FracIdeal(spec=ValuationSpec(field=FieldSpec(kind='padic', param=2)), exponent=None)",
    ),
    AxiomResult: (
        lambda: AxiomResult("mul", 3, 4),
        lambda: AxiomResult("mul", 3, 4, "1,2"),
        "AxiomResult(name='mul', passed=3, total=4, counterexample=None)",
    ),
    CheckReport: (
        lambda: CheckReport((AxiomResult("mul", 3, 4, "1,2"),)),
        lambda: CheckReport(()),
        "CheckReport(results=(AxiomResult(name='mul', passed=3, total=4, "
        "counterexample='1,2'),))",
    ),
    ClauseStatus: (
        lambda: ClauseStatus("i", "FAIL-LITERAL", "x"),
        lambda: ClauseStatus("i", "PASS"),
        "ClauseStatus(clause='i', status='FAIL-LITERAL', witness='x')",
    ),
    StatusReport: (
        lambda: StatusReport((ClauseStatus("i", "PASS"),)),
        lambda: StatusReport((ClauseStatus("ii", "PASS"),)),
        "StatusReport(clauses=(ClauseStatus(clause='i', status='PASS', witness=None),))",
    ),
    FiltFn: (
        lambda: FiltFn(ST0),
        lambda: FiltFn(S2),
        "FiltFn(spec=ValuationSpec(field=FieldSpec(kind='tadic', param=0)))",
    ),
}


@pytest.mark.parametrize("cls", VALUES, ids=[cls.__name__ for cls in VALUES])
def test_value_class_semantics(cls):
    make, make_other, text = VALUES[cls]
    a, b, other = make(), make(), make_other()
    assert type(a) is cls and a is not b
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert a != other and not (a == other)
    assert a != object()
    assert repr(a) == text
    assert not hasattr(a, "__dict__")
    for name in (*cls.__slots__, "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and repr(a) == text


def test_field_spec_backend_is_outside_eq_hash_and_repr():
    a, b = FieldSpec("tadic", 0), FieldSpec("tadic", 0)
    assert a.backend is not b.backend
    assert a == b and hash(a) == hash(b)
    assert "backend" not in repr(a)
