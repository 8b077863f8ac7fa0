"""Seeded text generators for the benchmark inputs.

Everything here builds text in the element grammar of the README (and argv
lists for the CLI workload) from a ``random.Random``.  Nothing here imports
dvrfilt, so the inputs do not depend on the code being measured; the
workloads parse the text with ``parse_element`` during set-up.
"""

from __future__ import annotations

import random
from fractions import Fraction


def parse_field(text: str) -> "tuple[str, int]":
    kind, _, param = text.partition(":")
    return kind, int(param)


def _coeff_magnitude(c) -> str:
    c = abs(c)
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def poly_text(coeffs, var: str = "t") -> str:
    """Render ascending coefficients (ints or Fractions) in the element grammar."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mag = _coeff_magnitude(c)
        if e == 0:
            body = mag
        else:
            power = var if e == 1 else f"{var}^{e}"
            body = power if mag == "1" else f"{mag}*{power}"
        if parts:
            parts.append(("-" if c < 0 else "+") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return "".join(parts) or "0"


def _nonzero_coeff(rng: random.Random, p: int):
    if p:
        return rng.randrange(1, p)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 1, 2, 3)))


def residue_coeff(rng: random.Random, p: int):
    """A residue-field value: an int in [0, p), or a small rational for p = 0."""
    return rng.randrange(p) if p else Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def unit_poly(rng: random.Random, p: int, degree: int) -> list:
    """Coefficients of exact degree ``degree`` with a nonzero constant term."""
    cs = [_nonzero_coeff(rng, p)]
    for _ in range(1, degree):
        cs.append(residue_coeff(rng, p))
    if degree:
        cs.append(_nonzero_coeff(rng, p))
    return cs


def _int_unit(rng: random.Random, p: int, digits: int) -> int:
    while True:
        n = rng.randrange(1, 10 ** digits)
        if n % p:
            return n


def element_text(rng: random.Random, field: str, k: int, size: int) -> str:
    """An element of valuation exactly ``k``.

    ``size`` is the digit count of the unit's numerator and denominator
    (padic) or the degree of each unit polynomial (tadic).
    """
    kind, p = parse_field(field)
    if kind == "padic":
        num = _int_unit(rng, p, size) * p ** max(k, 0)
        den = _int_unit(rng, p, size) * p ** max(-k, 0)
        sign = "-" if rng.random() < 0.5 else ""
        return f"{sign}{num}" if den == 1 else f"{sign}{num}/{den}"
    num = [0] * max(k, 0) + unit_poly(rng, p, size)
    den = [0] * max(-k, 0) + unit_poly(rng, p, size)
    return f"({poly_text(num)})/({poly_text(den)})"


def graded_text(rng: random.Random, field: str, degree: int) -> str:
    """A graded-ring element c0 + c1*T + ... with residue-field coefficients."""
    _, p = parse_field(field)
    cs = [residue_coeff(rng, p) for _ in range(degree)] + [_nonzero_coeff(rng, p)]
    return poly_text(cs, "T")


def shifted_matrix(
    rng: random.Random, field: str, rows: int, cols: int, size: int,
    skeleton: "random.Random | None" = None,
) -> "tuple[list, list, list]":
    """A filtered map between shifted modules, as entry texts plus shifts.

    ``skeleton`` draws the structure: the shifts, which entries are zero
    (probability 0.15) and each entry's valuation, max(0, s_j - t_i) plus
    0..3, so the matrix is compatible with the shifts and lies over the
    valuation ring.  ``rng`` draws the units.  SNF cost depends mostly on
    the structure, so a caller that fixes the skeleton keeps op costs
    comparable across seeds.
    """
    skeleton = skeleton or rng
    src = [skeleton.randint(-2, 2) for _ in range(cols)]
    dst = [skeleton.randint(-2, 2) for _ in range(rows)]
    entries = []
    for i in range(rows):
        row = []
        for j in range(cols):
            if skeleton.random() < 0.15:
                row.append("0")
            else:
                k = max(0, src[j] - dst[i]) + skeleton.randint(0, 3)
                row.append(element_text(rng, field, k, size))
        entries.append(row)
    return entries, src, dst


def matrix_arg(entries) -> str:
    return ";".join(",".join(row) for row in entries)


def shifts_flag(name: str, shifts) -> str:
    # the '=' form, since argparse reads a separate "-1,2" as an option
    return f"--shifts-{name}=" + ",".join(str(s) for s in shifts)


# ---------------------------------------------------------------------------
# CLI argv, one per subcommand, every one expected to exit 0


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 10 ** 6))


def _ideal_text(rng: random.Random) -> str:
    return f"pi^{rng.randint(-3, 4)}*R"


IDEAL_OPS = ("gen", "pgen", "prod", "sum", "cap", "inv", "power", "denom")
GRMAP_OPS = ("compat", "leading", "gr-injective", "injective", "escape")
SPECF_OPS = ("upper", "lower", "lemma32", "branched", "prop36", "primes")


def cli_argvs(rng: random.Random, field: str, variant: int) -> "list[list[str]]":
    """One argv for each of the 15 subcommands, at README scale.

    ``variant`` picks the sub-operations (ideal, grmap, specf, arith, grmul
    ops, and which argvs get ``--json``) by cycling, so that the op mix of
    a run of rounds does not depend on the seed; only the values do.
    """
    def elem(k: int) -> str:
        return element_text(rng, field, k, 1)

    def pick(options):
        return options[variant % len(options)]

    f = ["--field", field]
    out = [
        ["parse", *f, elem(rng.randint(-3, 3))],
        ["arith", *f, pick(("add", "sub", "mul", "div")), elem(rng.randint(-3, 3)), elem(rng.randint(-3, 3))],
        ["pipow", *f, str(rng.randint(-4, 6))],
        ["val", *f, elem(rng.randint(-4, 4))],
        ["residue", *f, elem(rng.randint(0, 3))],
        ["symbol", *f, elem(rng.randint(0, 3))],
        ["grmul", *f, "--op", pick(("mul", "add")), graded_text(rng, field, rng.randint(0, 2)),
         graded_text(rng, field, rng.randint(0, 2))],
        ["filt-check", *f, "--seed", _seed(rng), "--samples", "2", "--max-level", "3"],
    ]
    n, m = rng.randint(0, 2), rng.randint(0, 2)
    out.append(["strong-split", *f, elem(n + m + rng.randint(0, 2)), str(n), str(m)])
    out.append(["adic-check", *f, "--level", str(rng.randint(1, 3)), "--seed", _seed(rng), "--samples", "20"])

    op = pick(IDEAL_OPS)
    if op == "gen":
        args = [",".join(elem(rng.randint(-3, 3)) for _ in range(3))]
    elif op == "pgen":
        args = [",".join(elem(rng.randint(0, 4)) for _ in range(3))]
    elif op in ("prod", "sum", "cap"):
        args = [_ideal_text(rng), _ideal_text(rng)]
    elif op == "power":
        args = [f"pi^{rng.randint(0, 4)}*R"]
    else:
        args = [_ideal_text(rng)]
    out.append(["ideal", *f, op, *args])

    dim = 2 if field == "tadic:0" else pick((2, 3))
    entries, _, _ = shifted_matrix(rng, field, dim, dim, 1)
    out.append(["snf", *f, matrix_arg(entries)])

    op = pick(GRMAP_OPS)
    entries, src, dst = shifted_matrix(rng, field, 2, 2, 1)
    if op == "escape":
        vector = [elem(rng.randint(0, 3)) for _ in range(3)]
        out.append(["grmap", *f, op, ",".join(vector), shifts_flag("src", src + [0])])
    else:
        out.append(["grmap", *f, op, matrix_arg(entries), shifts_flag("src", src), shifts_flag("dst", dst)])

    op = pick(SPECF_OPS)
    if op in ("upper", "lower"):
        args = [elem(rng.randint(0, 3)), str(rng.randint(1, 6))]
    elif op == "lemma32":
        args = ["--seed", _seed(rng), "--samples", "10"]
    elif op == "branched":
        args = [rng.choice(("0", "m"))]
    elif op == "prop36":
        args = [elem(rng.randint(1, 3)), "--seed", _seed(rng), "--samples", "20"]
    else:
        args = []
    out.append(["specf", *f, op, *args])
    out.append(["axioms", *f, "--seed", _seed(rng), "--samples", "50"])

    for i, argv in enumerate(out):
        if (i + variant) % 3 == 0:
            argv.append("--json")
    return out
