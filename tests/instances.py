"""Seeded random filtered maps, matrices and module elements for the
property suites, and the exponents of a Smith normal form's diagonal."""

import random

from dvrfilt import FieldElement, FilteredFreeModule, FilteredMap, ValuationSpec
from dvrfilt import sampling


def random_matrix(
    spec: ValuationSpec,
    rng: random.Random,
    rows: int,
    cols: int,
    max_entry_valuation: int = 5,
) -> tuple:
    """A random matrix over R: entries pi^v * unit with v in [0, max], some zero."""
    zero = FieldElement.zero(spec.field)
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.15:
                row.append(zero)
            else:
                row.append(sampling.random_nonzero_element(spec.field, rng, 0, max_entry_valuation))
        out.append(tuple(row))
    return tuple(out)


def random_filtered_map(
    spec: ValuationSpec,
    rng: random.Random,
    max_rank: int = 4,
    max_entry_valuation: int = 5,
    shift_bound: int = 3,
) -> FilteredMap:
    """A random valid filtered map: shifted modules plus a compatible matrix."""
    src_rank = rng.randint(1, max_rank)
    tgt_rank = rng.randint(1, max_rank)
    src = FilteredFreeModule(
        spec, tuple(rng.randint(-shift_bound, shift_bound) for _ in range(src_rank))
    )
    tgt = FilteredFreeModule(
        spec, tuple(rng.randint(-shift_bound, shift_bound) for _ in range(tgt_rank))
    )
    zero = FieldElement.zero(spec.field)
    rows = []
    for i in range(tgt_rank):
        row = []
        for j in range(src_rank):
            lb = max(0, src.shifts[j] - tgt.shifts[i])
            if rng.random() < 0.15:
                row.append(zero)
            else:
                hi = max(lb, max_entry_valuation)
                row.append(sampling.random_nonzero_element(spec.field, rng, lb, hi))
        rows.append(tuple(row))
    return FilteredMap(src, tgt, tuple(rows))


def random_module_element(
    module: FilteredFreeModule, rng: random.Random
) -> tuple:
    """A random nonzero element of level 0 of the module."""
    field = module.spec.field
    while True:
        coords = []
        for s in module.shifts:
            if rng.random() < 0.25:
                coords.append(FieldElement.zero(field))
            else:
                lb = max(0, -s)
                coords.append(sampling.random_nonzero_element(field, rng, lb, lb + 5))
        if any(not c.is_zero for c in coords):
            return tuple(coords)


def snf_diagonal_exponents(spec: ValuationSpec, d: tuple) -> list:
    """Valuations of the nonzero diagonal entries of an SNF diagonal."""
    out = []
    for k in range(min(len(d), len(d[0]))):
        if not d[k][k].is_zero:
            out.append(spec.valuation(d[k][k]).finite)
    return out
