"""Command-line front end with deterministic, scriptable output.

Output is line-oriented ``key=value`` by default; ``--json`` emits one
flat JSON object with exact integers rendered as decimal strings.  All
sampling subcommands require an explicit ``--seed``; the PRNG is
Python's Mersenne Twister (``random.Random``), stable across releases.

Exit codes: 0 success / all-pass, 1 a checker found a violation or a
FAIL-LITERAL was encountered in strict mode, 2 usage, parse or domain
error.
"""

from __future__ import annotations

import argparse
import sys

# Each handler imports the library names it uses, so a process loads only
# the modules of its subcommand; json is imported for --json output only.
from .elements import DomainError, FieldSpec, ParseError


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _vspec(ns):
    from .valuation import ValuationSpec

    return ValuationSpec(FieldSpec.from_string(ns.field))


def _bool_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_line(obj: dict) -> str:
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(ns, pairs, code: int = 0):
    if ns.json:
        return code, _json_line(dict(pairs))
    return code, "\n".join(f"{k}={_bool_text(v)}" for k, v in pairs) + "\n"


def _emit_report(ns, report, failed: bool):
    code = 1 if failed else 0
    if ns.json:
        return code, _json_line(report.to_flat_dict())
    return code, report.render() + "\n"


def _require_seed(ns):
    if ns.seed is None:
        raise CliUsageError("--seed is required for sampling subcommands")


# -- handlers ---------------------------------------------------------------

def _cmd_parse(ns):
    from .elements import format_element, parse_element

    x = parse_element(ns.element, FieldSpec.from_string(ns.field))
    return _emit(ns, [("element", format_element(x))])


def _cmd_arith(ns):
    from .elements import field_arith, format_element, parse_element

    field = FieldSpec.from_string(ns.field)
    a = parse_element(ns.a, field)
    b = parse_element(ns.b, field) if ns.b is not None else None
    result = field_arith(ns.op, a, b)
    return _emit(ns, [("result", format_element(result))])


def _cmd_pipow(ns):
    from .elements import format_element, pi_power

    field = FieldSpec.from_string(ns.field)
    return _emit(ns, [("element", format_element(pi_power(field, ns.n)))])


def _cmd_val(ns):
    from .elements import parse_element

    spec = _vspec(ns)
    v = spec.valuation(parse_element(ns.element, spec.field))
    return _emit(ns, [("v", str(v))])


def _cmd_residue(ns):
    from .elements import parse_element

    spec = _vspec(ns)
    r = spec.residue(parse_element(ns.element, spec.field))
    return _emit(ns, [("residue", str(r))])


def _cmd_symbol(ns):
    from .elements import parse_element
    from .graded import format_graded, symbol

    spec = _vspec(ns)
    g = symbol(spec, parse_element(ns.element, spec.field))
    degree, coeff = g.terms[0]
    return _emit(
        ns,
        [("degree", str(degree)), ("coeff", str(coeff)), ("symbol", format_graded(g))],
    )


def _cmd_grmul(ns):
    from .graded import format_graded, gr_arith, parse_graded

    spec = _vspec(ns)
    u = parse_graded(ns.u, spec)
    v = parse_graded(ns.v, spec)
    return _emit(ns, [("result", format_graded(gr_arith(ns.op, u, v)))])


def _cmd_filt_check(ns):
    from .filtration import check_filtration_axioms

    _require_seed(ns)
    samples = ns.samples if ns.samples is not None else 200
    report = check_filtration_axioms(_vspec(ns), ns.seed, samples, ns.max_level)
    return _emit_report(ns, report, not report.ok)


def _cmd_strong_split(ns):
    from .elements import format_element, parse_element
    from .filtration import strong_split

    spec = _vspec(ns)
    c = parse_element(ns.element, spec.field)
    a, b = strong_split(spec, c, ns.n, ns.m)
    witness = f"{format_element(c)} = {format_element(a)} * {format_element(b)}"
    return _emit(
        ns, [("a", format_element(a)), ("b", format_element(b)), ("witness", witness)]
    )


def _cmd_adic_check(ns):
    from .filtration import adic_vs_valuation

    _require_seed(ns)
    samples = ns.samples if ns.samples is not None else 200
    report = adic_vs_valuation(_vspec(ns), ns.level, ns.seed, samples)
    return _emit_report(ns, report, not report.ok)


def _cmd_ideal(ns):
    from .elements import format_element, format_int, parse_element
    from .filtration import principal_generator
    from .ideals import (
        as_power_of_m,
        denominator_witness,
        format_ideal,
        ideal_from_generators,
        ideal_inverse,
        ideal_op,
        parse_ideal,
    )

    spec = _vspec(ns)
    op = ns.op
    args = ns.args
    if op == "gen":
        gens = [parse_element(t, spec.field) for t in ",".join(args).split(",")]
        return _emit(ns, [("ideal", format_ideal(ideal_from_generators(spec, gens)))])
    if op == "pgen":
        gens = [parse_element(t, spec.field) for t in ",".join(args).split(",")]
        e = principal_generator(spec, gens)
        return _emit(ns, [("e", "zero" if e is None else str(e))])
    if op in ("prod", "sum", "cap"):
        if len(args) != 2:
            raise CliUsageError(f"ideal {op} takes exactly two ideals")
        i = parse_ideal(args[0], spec)
        j = parse_ideal(args[1], spec)
        name = {"prod": "product", "sum": "sum", "cap": "intersect"}[op]
        return _emit(ns, [("ideal", format_ideal(ideal_op(name, i, j)))])
    if len(args) != 1:
        raise CliUsageError(f"ideal {op} takes exactly one ideal")
    i = parse_ideal(args[0], spec)
    if op == "inv":
        return _emit(ns, [("ideal", format_ideal(ideal_inverse(i)))])
    if op == "power":
        return _emit(ns, [("n", format_int(as_power_of_m(i)))])
    if op == "denom":
        return _emit(ns, [("witness", format_element(denominator_witness(i)))])
    raise CliUsageError(f"unknown ideal operation {op!r}")


def _cmd_snf(ns):
    from .filtered_modules import format_matrix, parse_matrix, snf

    spec = _vspec(ns)
    matrix = parse_matrix(ns.matrix, spec)
    result = snf(spec, matrix)
    return _emit(
        ns,
        [
            ("U", format_matrix(result.u)),
            ("D", format_matrix(result.d)),
            ("V", format_matrix(result.v)),
        ],
    )


def _grmap_modules(ns, spec, rows, cols):
    from .filtered_modules import FilteredFreeModule, parse_shifts

    src_shifts = parse_shifts(ns.shifts_src) if ns.shifts_src else (0,) * cols
    dst_shifts = parse_shifts(ns.shifts_dst) if ns.shifts_dst else (0,) * rows
    if len(src_shifts) != cols or len(dst_shifts) != rows:
        raise DomainError("shift vector lengths must match the matrix dimensions")
    return FilteredFreeModule(spec, src_shifts), FilteredFreeModule(spec, dst_shifts)


def _cmd_grmap(ns):
    from .elements import format_int
    from .filtered_modules import (
        CompatibilityError,
        FilteredFreeModule,
        FilteredMap,
        escape_level,
        format_residue_matrix,
        gr_injective,
        leading_matrix,
        map_injective,
        parse_matrix,
        parse_shifts,
        parse_vector,
    )

    spec = _vspec(ns)
    if ns.op == "escape":
        vector = parse_vector(ns.operand, spec)
        shifts = parse_shifts(ns.shifts_src) if ns.shifts_src else (0,) * len(vector)
        module = FilteredFreeModule(spec, shifts)
        return _emit(ns, [("escape", format_int(escape_level(module, vector)))])
    matrix = parse_matrix(ns.operand, spec)
    source, target = _grmap_modules(ns, spec, len(matrix), len(matrix[0]))
    if ns.op == "compat":
        try:
            FilteredMap(source, target, matrix)
        except CompatibilityError as e:
            return _emit(
                ns,
                [("compatible", False), ("offending", f"{e.row},{e.col}")],
                code=1,
            )
        return _emit(ns, [("compatible", True)])
    f = FilteredMap(source, target, matrix)
    if ns.op == "leading":
        return _emit(ns, [("leading", format_residue_matrix(leading_matrix(f)))])
    if ns.op == "gr-injective":
        return _emit(ns, [("gr_injective", gr_injective(f))])
    if ns.op == "injective":
        return _emit(ns, [("injective", map_injective(f))])
    raise CliUsageError(f"unknown grmap operation {ns.op!r}")


def _cmd_specf(ns):
    from .elements import parse_element, parse_int
    from .spectrum import (
        FiltFn,
        SpecPrime,
        branched,
        lemma32_report,
        lower_member,
        prop36_check,
        spec_f,
        upper_member,
    )

    spec = _vspec(ns)
    ff = FiltFn(spec)
    if ns.op in ("upper", "lower"):
        if len(ns.args) != 2:
            raise CliUsageError(f"specf {ns.op} takes an element and a level")
        x = parse_element(ns.args[0], spec.field)
        g = parse_int(ns.args[1], "level")
        member = upper_member(ff, x, g) if ns.op == "upper" else lower_member(ff, x, g)
        return _emit(ns, [("member", member)])
    if ns.op == "lemma32":
        _require_seed(ns)
        samples = ns.samples if ns.samples is not None else 200
        report = lemma32_report(ff, ns.seed, samples)
        return _emit_report(ns, report, ns.strict and not report.all_pass)
    if ns.op == "primes":
        return _emit(ns, [("spec", ",".join(p.value for p in spec_f(ff)))])
    if ns.op == "branched":
        if len(ns.args) != 1:
            raise CliUsageError("specf branched takes one prime: '0' or 'm'")
        prime = SpecPrime.from_string(ns.args[0])
        return _emit(ns, [("branched", branched(ff, prime))])
    if ns.op == "prop36":
        if len(ns.args) != 1:
            raise CliUsageError("specf prop36 takes one element")
        _require_seed(ns)
        samples = ns.samples if ns.samples is not None else 100
        x = parse_element(ns.args[0], spec.field)
        report = prop36_check(ff, x, ns.seed, samples)
        return _emit_report(ns, report, ns.strict and not report.all_pass)
    raise CliUsageError(f"unknown specf operation {ns.op!r}")


def _cmd_axioms(ns):
    from .valuation import check_valuation_axioms

    _require_seed(ns)
    samples = ns.samples if ns.samples is not None else 1000
    report = check_valuation_axioms(_vspec(ns), ns.seed, samples)
    return _emit_report(ns, report, not report.ok)


_HANDLERS = {
    "parse": _cmd_parse,
    "arith": _cmd_arith,
    "pipow": _cmd_pipow,
    "val": _cmd_val,
    "residue": _cmd_residue,
    "symbol": _cmd_symbol,
    "grmul": _cmd_grmul,
    "filt-check": _cmd_filt_check,
    "strong-split": _cmd_strong_split,
    "adic-check": _cmd_adic_check,
    "ideal": _cmd_ideal,
    "snf": _cmd_snf,
    "grmap": _cmd_grmap,
    "specf": _cmd_specf,
    "axioms": _cmd_axioms,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="dvrfilt", description="exact arithmetic in discrete valuation rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--field", required=True, help="padic:<p>, tadic:<p> or tadic:0")
        p.add_argument("--json", action="store_true", help="emit one flat JSON object")
        return p

    p = add("parse", help="canonicalize an element")
    p.add_argument("element")

    p = add("arith", help="field arithmetic")
    p.add_argument("op", choices=["add", "sub", "mul", "div", "neg", "inv"])
    p.add_argument("a")
    p.add_argument("b", nargs="?")

    p = add("pipow", help="power of the uniformizer")
    p.add_argument("n", type=int)

    p = add("val", help="valuation of an element")
    p.add_argument("element")

    p = add("residue", help="image in the residue field")
    p.add_argument("element")

    p = add("symbol", help="leading form in the graded ring")
    p.add_argument("element")

    p = add("grmul", help="graded-ring arithmetic on T-polynomials")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--op", choices=["mul", "add"], default="mul")

    p = add("filt-check", help="sampled filtration axioms")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--max-level", type=int, default=10)

    p = add("strong-split", help="split c in R_{n+m} as a * b")
    p.add_argument("element")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)

    p = add("adic-check", help="sampled m^n = R_n comparison")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)

    p = add("ideal", help="fractional ideal operations")
    p.add_argument("op", choices=["gen", "pgen", "prod", "sum", "cap", "inv", "power", "denom"])
    p.add_argument("args", nargs="+")

    p = add("snf", help="Smith normal form U*A*V = D")
    p.add_argument("matrix")

    p = add("grmap", help="filtered map analysis")
    p.add_argument("op", choices=["compat", "leading", "gr-injective", "injective", "escape"])
    p.add_argument("operand", help="matrix (rows ';', entries ','), or vector for escape")
    p.add_argument("--shifts-src")
    p.add_argument("--shifts-dst")

    p = add("specf", help="semigroup-filtration ideal spectrum")
    p.add_argument("op", choices=["upper", "lower", "lemma32", "branched", "prop36", "primes"])
    p.add_argument("args", nargs="*")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--strict", action="store_true")

    p = add("axioms", help="sampled valuation axioms")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)

    return parser


_VALUE_FLAGS = {
    "--field",
    "--seed",
    "--samples",
    "--max-level",
    "--level",
    "--op",
    "--shifts-src",
    "--shifts-dst",
}


def _normalize_argv(argv) -> list:
    # Stable-partition into subcommand, flags, '--', positionals.  This works
    # around argparse consuming a split nargs='*' positional as zero-width,
    # and lets element arguments with a leading '-' parse without a manual
    # '--' separator.  argparse drops '--' tokens from positionals, so a
    # repeated '--' can carry no value and is rejected.
    argv = list(argv)
    if not argv or argv[0].startswith("-"):
        return argv
    flags: list = []
    positionals: list = []
    rest = argv[1:]
    i = 0
    literal = False
    while i < len(rest):
        tok = rest[i]
        if literal:
            if tok == "--":
                raise CliUsageError("'--' may be given only once")
            positionals.append(tok)
        elif tok == "--":
            literal = True
        elif tok.startswith("--") or tok == "-h":
            name = tok.split("=", 1)[0]
            flags.append(tok)
            if "=" not in tok and name in _VALUE_FLAGS and i + 1 < len(rest):
                i += 1
                flags.append(rest[i])
        else:
            positionals.append(tok)
        i += 1
    out = [argv[0]] + flags
    if positionals:
        out += ["--"] + positionals
    return out


def dispatch(argv) -> "tuple[int, str]":
    """Route an argv list to the library; returns (exit code, output text)."""
    parser = build_parser()
    try:
        ns = parser.parse_args(_normalize_argv(argv))
    except CliUsageError as e:
        return 2, f"error: {e}\n"
    except SystemExit as e:  # --help prints directly and exits
        return int(e.code or 0), ""
    try:
        return _HANDLERS[ns.command](ns)
    except (CliUsageError, ParseError, DomainError, ZeroDivisionError) as e:
        return 2, f"error: {e}\n"
    except Exception as e:  # a fault in the program, not in its input
        message = " ".join(str(e).splitlines())
        return 2, f"error: internal {type(e).__name__}: {message}\n"


def main(argv=None) -> int:
    code, text = dispatch(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if code == 2 else sys.stdout
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
