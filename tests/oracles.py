"""Reference polynomial arithmetic over the residue field, for the tests.

Dense coefficient tuples of ``ResidueElem`` in ascending degree, computed
with ``ResidueElem`` arithmetic only, independent of the graded ring.
"""

from dvrfilt.valuation import ResidueElem


def residue_poly_add(a: tuple, b: tuple, char: int) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    while out and out[-1].is_zero:
        out.pop()
    return tuple(out)


def residue_poly_mul(a: tuple, b: tuple, char: int) -> tuple:
    if not a or not b:
        return ()
    zero = ResidueElem(char, 0)
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    while out and out[-1].is_zero:
        out.pop()
    return tuple(out)
