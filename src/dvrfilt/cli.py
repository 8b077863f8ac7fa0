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

import sys
from types import SimpleNamespace

# Each handler imports the library names it uses, so a process loads only
# the modules of its subcommand; json is imported for --json output only.
from .elements import DomainError, FieldSpec, ParseError, parse_int


class CliUsageError(Exception):
    pass


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
    report = check_filtration_axioms(_vspec(ns), ns.seed, ns.samples, ns.max_level)
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
    report = adic_vs_valuation(_vspec(ns), ns.level, ns.seed, ns.samples)
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
    # denom, the table's last choice
    return _emit(ns, [("witness", format_element(denominator_witness(i)))])


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
    # injective; escape was handled above
    return _emit(ns, [("injective", map_injective(f))])


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
    if ns.op in ("lemma32", "primes") and ns.args:
        raise CliUsageError(f"specf {ns.op} takes no positional arguments")
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
    # prop36, the table's last choice with arguments
    if len(ns.args) != 1:
        raise CliUsageError("specf prop36 takes one element")
    _require_seed(ns)
    samples = ns.samples if ns.samples is not None else 100
    x = parse_element(ns.args[0], spec.field)
    report = prop36_check(ff, x, ns.seed, samples)
    return _emit_report(ns, report, ns.strict and not report.all_pass)


def _cmd_axioms(ns):
    from .valuation import check_valuation_axioms

    _require_seed(ns)
    report = check_valuation_axioms(_vspec(ns), ns.seed, ns.samples)
    return _emit_report(ns, report, not report.ok)


# Each subcommand, declared once: (what it does, positionals, flags,
# handler).  A positional is (name, kind, arity) with arity "" (exactly
# one), "?", "+" or "*"; a flag is (name, kind, default, required).  A kind
# is str, int, bool (a flag that takes no value) or a tuple of choices.
# Every subcommand also takes --field (required) and --json.
_COMMON = [("--field", str, None, True), ("--json", bool, False, False)]
_SEED = ("--seed", int, None, False)
_ELEMENT = [("element", str, "")]
_COMMANDS = {
    "parse": ("canonicalize an element", _ELEMENT, [], _cmd_parse),
    "arith": (
        "field arithmetic",
        [("op", ("add", "sub", "mul", "div", "neg", "inv"), ""), ("a", str, ""), ("b", str, "?")],
        [],
        _cmd_arith,
    ),
    "pipow": ("power of the uniformizer", [("n", int, "")], [], _cmd_pipow),
    "val": ("valuation of an element", _ELEMENT, [], _cmd_val),
    "residue": ("image in the residue field", _ELEMENT, [], _cmd_residue),
    "symbol": ("leading form in the graded ring", _ELEMENT, [], _cmd_symbol),
    "grmul": (
        "graded-ring arithmetic on T-polynomials",
        [("u", str, ""), ("v", str, "")],
        [("--op", ("mul", "add"), "mul", False)],
        _cmd_grmul,
    ),
    "filt-check": (
        "sampled filtration axioms",
        [],
        [_SEED, ("--samples", int, 200, False), ("--max-level", int, 10, False)],
        _cmd_filt_check,
    ),
    "strong-split": (
        "split c in R_{n+m} as a * b",
        _ELEMENT + [("n", int, ""), ("m", int, "")],
        [],
        _cmd_strong_split,
    ),
    "adic-check": (
        "sampled m^n = R_n comparison",
        [],
        [("--level", int, None, True), _SEED, ("--samples", int, 200, False)],
        _cmd_adic_check,
    ),
    "ideal": (
        "fractional ideal operations",
        [("op", ("gen", "pgen", "prod", "sum", "cap", "inv", "power", "denom"), ""), ("args", str, "+")],
        [],
        _cmd_ideal,
    ),
    "snf": ("Smith normal form U*A*V = D", [("matrix", str, "")], [], _cmd_snf),
    "grmap": (
        "filtered map analysis; operand: matrix (rows ';', entries ','), or vector for escape",
        [("op", ("compat", "leading", "gr-injective", "injective", "escape"), ""), ("operand", str, "")],
        [("--shifts-src", str, None, False), ("--shifts-dst", str, None, False)],
        _cmd_grmap,
    ),
    "specf": (
        "semigroup-filtration ideal spectrum",
        [("op", ("upper", "lower", "lemma32", "branched", "prop36", "primes"), ""), ("args", str, "*")],
        # no --samples default here: lemma32 takes 200 and prop36 100
        [_SEED, ("--samples", int, None, False), ("--strict", bool, False, False)],
        _cmd_specf,
    ),
    "axioms": ("sampled valuation axioms", [], [_SEED, ("--samples", int, 1000, False)], _cmd_axioms),
}


def _value(name: str, kind, text: str):
    if kind is int:
        try:
            return parse_int(text, name)
        except ParseError:
            raise CliUsageError(f"argument {name}: invalid int value: {text!r}") from None
    if isinstance(kind, tuple) and text not in kind:
        choices = ", ".join(map(repr, kind))
        raise CliUsageError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    return text


def _metavar(name: str, kind) -> str:
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name


_ARITY = {"": "{}", "?": "[{}]", "+": "{} [...]", "*": "[{} ...]"}


def _usage() -> str:
    out = "usage: dvrfilt COMMAND --field {padic:<p>,tadic:<p>,tadic:0} [--json] ARGUMENTS\n"
    for command, (what, positionals, flags, _) in _COMMANDS.items():
        words = [command] + [_ARITY[arity].format(_metavar(n, kind)) for n, kind, arity in positionals]
        for name, kind, _, required in flags:
            word = name if kind is bool else f"{name} {_metavar(name[2:].upper(), kind)}"
            words.append(word if required else f"[{word}]")
        out += f"  {' '.join(words)}  -- {what}\n"
    return out


def _parse(argv: list) -> SimpleNamespace:
    if not argv:
        raise CliUsageError("the following arguments are required: command")
    command = _value("command", tuple(_COMMANDS), argv[0])
    _, positionals, flags, _ = _COMMANDS[command]
    flags = {flag[0]: flag for flag in _COMMON + flags}
    values = {name: default for name, _, default, _ in flags.values()}
    tokens, unknown = [], []
    rest = iter(argv[1:])
    for token in rest:
        name, eq, text = token.partition("=")
        if token == "--":
            for token in rest:
                if token == "--":
                    raise CliUsageError("'--' may be given only once")
                tokens.append(token)
        elif not token.startswith("--"):
            tokens.append(token)  # a single leading '-' is a sign: pipow -2
        elif name not in flags:
            unknown.append(token)
        elif flags[name][1] is bool:
            if eq:
                raise CliUsageError(f"argument {name}: ignored explicit argument {text!r}")
            values[name] = True
        else:
            if not eq:
                text = next(rest, "--")
                if text.startswith("--"):
                    raise CliUsageError(f"argument {name}: expected one argument")
            values[name] = _value(name, flags[name][1], text)
    missing = [name for name, *_, required in flags.values() if required and values[name] is None]
    i = 0
    for name, kind, arity in positionals:
        if arity in ("+", "*"):
            values[name], i = tokens[i:], len(tokens)
            if arity == "+" and not values[name]:
                missing.append(name)
        elif i < len(tokens):
            values[name], i = _value(name, kind, tokens[i]), i + 1
        else:
            values[name] = None
            if arity != "?":
                missing.append(name)
    if missing:
        raise CliUsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown or tokens[i:]:
        raise CliUsageError(f"unrecognized arguments: {' '.join(unknown + tokens[i:])}")
    ns = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, **ns)


def dispatch(argv) -> "tuple[int, str]":
    """Route an argv list to the library; returns (exit code, output text)."""
    argv = list(argv)
    options = argv[: argv.index("--")] if "--" in argv else argv
    if "-h" in options or "--help" in options:
        return 0, _usage()
    try:
        ns = _parse(argv)
        return _COMMANDS[ns.command][3](ns)
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
