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
from functools import partial
from types import SimpleNamespace

# elements, which every subcommand uses, is imported here.  Every other
# exported name is read from the package, which imports its module on first
# use, and a handler imports the unexported helpers it needs, so a process
# loads only the modules of its subcommand; json is imported for --json
# output only.
import dvrfilt as dv

from .elements import (
    DomainError,
    FieldSpec,
    ParseError,
    field_arith,
    format_int,
    parse_element,
    parse_int,
    pi_power,
)


class CliUsageError(Exception):
    pass


def _vspec(ns):
    return dv.ValuationSpec(FieldSpec.from_string(ns.field))


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_int(value) if isinstance(value, int) else str(value)


def _json_line(obj: dict) -> str:
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(ns, pairs, code: int = 0):
    if ns.json:
        return code, _json_line({k: v if isinstance(v, bool) else _text(v) for k, v in pairs})
    return code, "\n".join(f"{k}={_text(v)}" for k, v in pairs) + "\n"


def _emit_report(ns, report, failed: bool):
    code = 1 if failed else 0
    if ns.json:
        return code, _json_line(report.to_flat_dict())
    return code, report.render() + "\n"


# -- handlers ---------------------------------------------------------------

def _cmd_parse(ns):
    x = parse_element(ns.element, FieldSpec.from_string(ns.field))
    return _emit(ns, [("element", x)])


def _cmd_arith(ns):
    field = FieldSpec.from_string(ns.field)
    a = parse_element(ns.a, field)
    b = parse_element(ns.b, field) if ns.b is not None else None
    result = field_arith(ns.op, a, b)
    return _emit(ns, [("result", result)])


def _cmd_pipow(ns):
    field = FieldSpec.from_string(ns.field)
    return _emit(ns, [("element", pi_power(field, ns.n))])


def _cmd_val(ns):
    spec = _vspec(ns)
    v = spec.valuation(parse_element(ns.element, spec.field))
    return _emit(ns, [("v", v)])


def _cmd_residue(ns):
    spec = _vspec(ns)
    r = spec.residue(parse_element(ns.element, spec.field))
    return _emit(ns, [("residue", r)])


def _cmd_symbol(ns):
    spec = _vspec(ns)
    g = dv.symbol(spec, parse_element(ns.element, spec.field))
    degree, coeff = g.terms[0]
    return _emit(ns, [("degree", degree), ("coeff", coeff), ("symbol", g)])


def _cmd_grmul(ns):
    spec = _vspec(ns)
    u = dv.parse_graded(ns.u, spec)
    v = dv.parse_graded(ns.v, spec)
    return _emit(ns, [("result", dv.gr_arith(ns.op, u, v))])


def _cmd_filt_check(ns):
    report = dv.check_filtration_axioms(_vspec(ns), ns.seed, ns.samples, ns.max_level)
    return _emit_report(ns, report, not report.ok)


def _cmd_strong_split(ns):
    spec = _vspec(ns)
    c = parse_element(ns.element, spec.field)
    a, b = dv.strong_split(spec, c, ns.n, ns.m)
    return _emit(ns, [("a", a), ("b", b), ("witness", f"{c} = {a} * {b}")])


def _cmd_adic_check(ns):
    report = dv.adic_vs_valuation(_vspec(ns), ns.level, ns.seed, ns.samples)
    return _emit_report(ns, report, not report.ok)


def _cmd_snf(ns):
    from .filtered_modules import format_matrix, parse_matrix

    spec = _vspec(ns)
    matrix = parse_matrix(ns.matrix, spec)
    result = dv.snf(spec, matrix)
    return _emit(
        ns,
        [
            ("U", format_matrix(result.u)),
            ("D", format_matrix(result.d)),
            ("V", format_matrix(result.v)),
        ],
    )


def _cmd_axioms(ns):
    report = dv.check_valuation_axioms(_vspec(ns), ns.seed, ns.samples)
    return _emit_report(ns, report, not report.ok)


# -- the ops of ideal, grmap and specf; each op's row names its function -----

def _on_generators(key, name, ns):
    """gen and pgen: key=<name>(spec, generators), the op's lists joined by ','."""
    spec = _vspec(ns)
    generators = [parse_element(t, spec.field) for t in ",".join(ns.args).split(",")]
    value = getattr(dv, name)(spec, generators)
    return _emit(ns, [(key, "zero" if value is None else value)])  # the zero ideal has no generator


def _on_ideals(key, name, ns):
    """prod, sum, cap, inv, power and denom: key=<name>(the op's ideals)."""
    spec = _vspec(ns)
    return _emit(ns, [(key, getattr(dv, name)(*(dv.parse_ideal(t, spec) for t in ns.args)))])


def _filtered_map(ns):
    from .filtered_modules import parse_matrix, parse_shifts

    spec = _vspec(ns)
    matrix = parse_matrix(ns.operand, spec)
    rows, cols = len(matrix), len(matrix[0])
    src_shifts = parse_shifts(ns.shifts_src) if ns.shifts_src else (0,) * cols
    dst_shifts = parse_shifts(ns.shifts_dst) if ns.shifts_dst else (0,) * rows
    if len(src_shifts) != cols or len(dst_shifts) != rows:
        raise DomainError("shift vector lengths must match the matrix dimensions")
    source, target = dv.FilteredFreeModule(spec, src_shifts), dv.FilteredFreeModule(spec, dst_shifts)
    return dv.FilteredMap(source, target, matrix)


def _grmap_compat(ns):
    try:
        _filtered_map(ns)
    except dv.CompatibilityError as e:
        return _emit(ns, [("compatible", False), ("offending", f"{e.row},{e.col}")], code=1)
    return _emit(ns, [("compatible", True)])


def _grmap_leading(ns):
    from .filtered_modules import format_residue_matrix

    return _emit(ns, [("leading", format_residue_matrix(dv.leading_matrix(_filtered_map(ns))))])


def _on_map(key, name, ns):
    """gr-injective and injective: key=<name>(the filtered map)."""
    return _emit(ns, [(key, getattr(dv, name)(_filtered_map(ns)))])


def _grmap_escape(ns):
    from .filtered_modules import parse_shifts, parse_vector

    spec = _vspec(ns)
    vector = parse_vector(ns.operand, spec)
    shifts = parse_shifts(ns.shifts_src) if ns.shifts_src else (0,) * len(vector)
    return _emit(ns, [("escape", dv.escape_level(dv.FilteredFreeModule(spec, shifts), vector))])


def _on_member(name, ns):
    """upper and lower: member=<name>(f, element, level)."""
    spec = _vspec(ns)
    x, g = parse_element(ns.args[0], spec.field), parse_int(ns.args[1], "level")
    return _emit(ns, [("member", getattr(dv, name)(dv.FiltFn(spec), x, g))])


def _on_report(name, ns):
    """lemma32 and prop36: the clause report of <name>(f, the op's elements, seed, samples)."""
    spec = _vspec(ns)
    xs = [parse_element(t, spec.field) for t in ns.args]
    report = getattr(dv, name)(dv.FiltFn(spec), *xs, ns.seed, ns.samples)
    return _emit_report(ns, report, ns.strict and not report.all_pass)


def _specf_branched(ns):
    ff = dv.FiltFn(_vspec(ns))
    return _emit(ns, [("branched", dv.branched(ff, dv.SpecPrime.from_string(ns.args[0])))])


def _specf_primes(ns):
    return _emit(ns, [("spec", ",".join(p.value for p in dv.spec_f(dv.FiltFn(_vspec(ns)))))])


# Each subcommand, declared once: (what it does, positionals, flags,
# handler).  A positional is (name, kind, arity) with arity "" (exactly
# one), "?", "+" or "*"; a flag is (name, kind, default, required), where
# required is True, False or the error given, after every other usage
# error, when the flag is missing.  A kind is str, int, bool (a flag that
# takes no value) or a tuple of choices.  Every subcommand also takes
# --field (required) and --json.
#
# ideal, grmap and specf have a row per op in place of a handler: (its
# positionals after the op, its flags, its arity message, its function).
# A flag the op does not read is an unrecognized argument.  A row with an
# arity message rejects any other count of positionals with it; a row
# without one takes what the subcommand's last positional takes.
_COMMON = [("--field", str, None, True), ("--json", bool, False, False)]
_SEED = ("--seed", int, None, "--seed is required for sampling subcommands")
_STRICT = ("--strict", bool, False, False)
_SHIFTS_SRC = ("--shifts-src", str, None, False)
_SHIFTS = [_SHIFTS_SRC, ("--shifts-dst", str, None, False)]
_ELEMENT = [("element", str, "")]
_ONE, _TWO = "takes exactly one ideal", "takes exactly two ideals"
_NONE = "takes no positional arguments"
_MEMBER = (("element", "level"), [], "takes an element and a level")
_IDEAL_OPS = {
    "gen": (("generators",), [], None, partial(_on_generators, "ideal", "ideal_from_generators")),
    "pgen": (("generators",), [], None, partial(_on_generators, "e", "principal_generator")),
    "prod": (("ideal", "ideal"), [], _TWO, partial(_on_ideals, "ideal", "ideal_product")),
    "sum": (("ideal", "ideal"), [], _TWO, partial(_on_ideals, "ideal", "ideal_sum")),
    "cap": (("ideal", "ideal"), [], _TWO, partial(_on_ideals, "ideal", "ideal_intersect")),
    "inv": (("ideal",), [], _ONE, partial(_on_ideals, "ideal", "ideal_inverse")),
    "power": (("ideal",), [], _ONE, partial(_on_ideals, "n", "as_power_of_m")),
    "denom": (("ideal",), [], _ONE, partial(_on_ideals, "witness", "denominator_witness")),
}
_GRMAP_OPS = {
    "compat": (("matrix",), _SHIFTS, None, _grmap_compat),
    "leading": (("matrix",), _SHIFTS, None, _grmap_leading),
    "gr-injective": (("matrix",), _SHIFTS, None, partial(_on_map, "gr_injective", "gr_injective")),
    "injective": (("matrix",), _SHIFTS, None, partial(_on_map, "injective", "map_injective")),
    "escape": (("vector",), [_SHIFTS_SRC], None, _grmap_escape),
}
_SPECF_OPS = {
    "upper": (*_MEMBER, partial(_on_member, "upper_member")),
    "lower": (*_MEMBER, partial(_on_member, "lower_member")),
    "lemma32": ((), [_SEED, ("--samples", int, 200, False), _STRICT], _NONE,
                partial(_on_report, "lemma32_report")),
    "branched": (("prime",), [], "takes one prime: '0' or 'm'", _specf_branched),
    "prop36": (("element",), [_SEED, ("--samples", int, 100, False), _STRICT], "takes one element",
               partial(_on_report, "prop36_check")),
    "primes": ((), [], _NONE, _specf_primes),
}
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
        [("op", tuple(_IDEAL_OPS), ""), ("args", str, "+")],
        [],
        _IDEAL_OPS,
    ),
    "snf": ("Smith normal form U*A*V = D", [("matrix", str, "")], [], _cmd_snf),
    "grmap": (
        "filtered map analysis; operand: matrix (rows ';', entries ','), or vector for escape",
        [("op", tuple(_GRMAP_OPS), ""), ("operand", str, "")],
        [],
        _GRMAP_OPS,
    ),
    "specf": (
        "semigroup-filtration ideal spectrum",
        [("op", tuple(_SPECF_OPS), ""), ("args", str, "*")],
        [],
        _SPECF_OPS,
    ),
    "axioms": ("sampled valuation axioms", [], [_SEED, ("--samples", int, 1000, False)], _cmd_axioms),
}


def _flags(command: str) -> list:
    """The subcommand's flags: for ideal, grmap and specf, each flag of its ops once."""
    _, _, flags, run = _COMMANDS[command]
    ops = run.values() if isinstance(run, dict) else ()
    return list({flag[0]: flag for flag in flags + [f for row in ops for f in row[1]]}.values())


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
    for command, (what, positionals, _, _) in _COMMANDS.items():
        words = [command] + [_ARITY[arity].format(_metavar(n, kind)) for n, kind, arity in positionals]
        for name, kind, _, required in _flags(command):
            word = name if kind is bool else f"{name} {_metavar(name[2:].upper(), kind)}"
            words.append(word if required is True else f"[{word}]")  # --seed shows as optional
        out += f"  {' '.join(words)}  -- {what}\n"
    return out


def _parse(argv: list) -> "tuple[SimpleNamespace, object]":
    """argv's values by attribute name, and the function its row names."""
    if not argv:
        raise CliUsageError("the following arguments are required: command")
    command = _value("command", tuple(_COMMANDS), argv[0])
    _, positionals, flags, run = _COMMANDS[command]
    known = {flag[0]: flag for flag in _COMMON + _flags(command)}
    values, given, tokens = {}, [], []  # given: (name, text) of each flag, in argv order
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
        elif name not in known:
            given.append((name, token))
        elif known[name][1] is bool:
            if eq:
                raise CliUsageError(f"argument {name}: ignored explicit argument {text!r}")
            values[name] = True
            given.append((name, token))
        else:
            if not eq:
                text = next(rest, "--")
                if text.startswith("--"):
                    raise CliUsageError(f"argument {name}: expected one argument")
                token += " " + text
            values[name] = _value(name, known[name][1], text)
            given.append((name, token))
    missing = [name for name, *_, required in known.values() if required is True and name not in values]
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
    row = run[values["op"]] if isinstance(run, dict) else None
    if row:
        names, flags, message, run = row
    flags = _COMMON + flags
    read = {flag[0] for flag in flags}
    unread = [text for name, text in given if name not in read]
    if unread or tokens[i:]:
        raise CliUsageError(f"unrecognized arguments: {' '.join(unread + tokens[i:])}")
    if row and message and len(tokens) - 1 != len(names):
        raise CliUsageError(f"{command} {values['op']} {message}")
    for name, _, default, required in flags:
        if isinstance(required, str) and name not in values:
            raise CliUsageError(required)
        values.setdefault(name, default)
    ns = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(**ns), run


def dispatch(argv) -> "tuple[int, str]":
    """Route an argv list to the library; returns (exit code, output text)."""
    argv = list(argv)
    options = argv[: argv.index("--")] if "--" in argv else argv
    if "-h" in options or "--help" in options:
        return 0, _usage()
    try:
        ns, run = _parse(argv)
        return run(ns)
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
