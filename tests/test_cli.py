"""CLI dispatch: output contracts, determinism, exit codes."""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvrfilt.cli import _COMMANDS, _COMMON, _flags, _parse, dispatch


def run(*argv):
    return dispatch(list(argv))


def test_val_examples():
    assert run("val", "--field", "padic:2", "8/12") == (0, "v=1\n")
    assert run("val", "--field", "padic:2", "0") == (0, "v=inf\n")
    assert run("val", "--field", "tadic:3", "t^2/(t+1)") == (0, "v=2\n")


def test_parse_subcommand_canonicalizes():
    assert run("parse", "--field", "padic:2", "8/12") == (0, "element=2/3\n")
    code, out = run("parse", "--field", "tadic:0", "(t+3)/(2*t+2)")
    assert code == 0
    assert out == "element=(1/2*t+3/2)/(t+1)\n"


def test_arith_and_pipow():
    assert run("arith", "--field", "padic:2", "mul", "2/3", "3/2") == (0, "result=1\n")
    assert run("arith", "--field", "padic:2", "neg", "-2/3") == (0, "result=2/3\n")
    assert run("arith", "--field", "padic:2", "inv", "2/3") == (0, "result=3/2\n")
    assert run("pipow", "--field", "padic:2", "--", "-2") == (0, "element=1/4\n")
    assert run("pipow", "--field", "tadic:3", "3") == (0, "element=t^3\n")


def test_residue_and_symbol():
    assert run("residue", "--field", "padic:2", "7/5") == (0, "residue=1\n")
    assert run("residue", "--field", "tadic:0", "(t+3)/(t+1)") == (0, "residue=3\n")
    code, out = run("symbol", "--field", "padic:3", "18")
    assert code == 0
    assert out == "degree=2\ncoeff=2\nsymbol=2*T^2\n"


def test_grmul_mul_and_add():
    assert run("grmul", "--field", "padic:2", "T", "T") == (0, "result=T^2\n")
    code, out = run("grmul", "--field", "padic:5", "--op", "add", "2", "3*T")
    assert out == "result=2 + 3*T\n"
    code, out = run("grmul", "--field", "padic:3", "2", "2")
    assert out == "result=1\n"


def test_strong_split_output():
    code, out = run("strong-split", "--field", "padic:2", "12", "1", "1")
    assert code == 0
    assert out == "a=2\nb=6\nwitness=12 = 2 * 6\n"


def test_ideal_subcommands():
    assert run("ideal", "--field", "padic:2", "gen", "8/3,6") == (0, "ideal=pi^1*R\n")
    assert run("ideal", "--field", "padic:2", "prod", "pi^2*R", "pi^-2*R") == (
        0,
        "ideal=pi^0*R\n",
    )
    assert run("ideal", "--field", "padic:2", "sum", "pi^2*R", "0") == (0, "ideal=pi^2*R\n")
    assert run("ideal", "--field", "padic:2", "cap", "pi^1*R", "pi^3*R") == (
        0,
        "ideal=pi^3*R\n",
    )
    assert run("ideal", "--field", "padic:2", "inv", "pi^3*R") == (0, "ideal=pi^-3*R\n")
    assert run("ideal", "--field", "padic:2", "power", "pi^2*R") == (0, "n=2\n")
    assert run("ideal", "--field", "padic:2", "denom", "pi^-2*R") == (0, "witness=4\n")
    assert run("ideal", "--field", "padic:2", "pgen", "12,8") == (0, "e=2\n")
    assert run("ideal", "--field", "padic:2", "pgen", "0") == (0, "e=zero\n")


def test_snf_output():
    code, out = run("snf", "--field", "padic:2", "2,4;0,8")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "D=2,0;0,8"


def test_grmap_subcommands():
    assert run("grmap", "gr-injective", "--field", "padic:3", "1,0;0,3") == (
        0,
        "gr_injective=false\n",
    )
    assert run("grmap", "injective", "--field", "padic:2", "2") == (0, "injective=true\n")
    assert run("grmap", "leading", "--field", "padic:3", "5") == (0, "leading=2\n")
    code, out = run(
        "grmap", "compat", "--field", "padic:2", "--shifts-src=1", "--shifts-dst=0", "1"
    )
    assert code == 1
    assert out == "compatible=false\noffending=0,0\n"
    code, out = run(
        "grmap", "compat", "--field", "padic:2", "--shifts-src=1", "--shifts-dst=0", "2"
    )
    assert (code, out) == (0, "compatible=true\n")
    assert run("grmap", "escape", "--field", "padic:2", "--shifts-src=0,1", "0,2") == (
        0,
        "escape=3\n",
    )


def test_specf_subcommands():
    assert run("specf", "upper", "--field", "padic:2", "6", "5") == (0, "member=true\n")
    assert run("specf", "lower", "--field", "padic:2", "16", "6") == (0, "member=false\n")
    assert run("specf", "branched", "--field", "padic:5", "m") == (0, "branched=true\n")
    assert run("specf", "branched", "--field", "padic:5", "0") == (0, "branched=false\n")
    assert run("specf", "primes", "--field", "padic:5") == (0, "spec=0,m\n")
    code, out = run("specf", "lemma32", "--field", "padic:2", "--seed", "11", "--samples", "50")
    assert code == 0
    assert "clause=i status=FAIL-LITERAL" in out
    assert "clause=ii status=PASS" in out
    code, _ = run(
        "specf", "lemma32", "--field", "padic:2", "--seed", "11", "--samples", "50", "--strict"
    )
    assert code == 1
    code, out = run("specf", "prop36", "--field", "padic:2", "6", "--seed", "2")
    assert code == 0
    assert out.splitlines()[0] == "clause=first-half status=PASS"


def test_checker_subcommands_pass():
    code, out = run(
        "axioms", "--field", "padic:2", "--seed", "42", "--samples", "200"
    )
    assert code == 0
    assert "axiom=mul pass=200/200" in out
    code, out = run(
        "filt-check", "--field", "padic:2", "--seed", "7", "--samples", "20", "--max-level", "4"
    )
    assert code == 0
    code, out = run(
        "adic-check", "--field", "padic:2", "--level", "3", "--seed", "1", "--samples", "50"
    )
    assert code == 0


def test_json_mode():
    code, out = run("val", "--field", "padic:2", "8/12", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"v": "1"}
    code, out = run(
        "axioms", "--field", "padic:2", "--seed", "1", "--samples", "50", "--json"
    )
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["mul.pass"] == "50"
    code, out = run(
        "specf", "lemma32", "--field", "padic:2", "--seed", "3", "--samples", "20", "--json"
    )
    obj = json.loads(out)
    assert obj["i.status"] == "FAIL-LITERAL"
    assert obj["all_pass"] is False


def test_determinism_byte_identical():
    invocations = [
        ("axioms", "--field", "tadic:3", "--seed", "9", "--samples", "100"),
        ("filt-check", "--field", "padic:2", "--seed", "3", "--samples", "10", "--max-level", "3"),
        ("specf", "lemma32", "--field", "padic:2", "--seed", "11", "--samples", "50"),
        ("val", "--field", "padic:5", "125/3", "--json"),
    ]
    for argv in invocations:
        first = run(*argv)
        second = run(*argv)
        assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("val", "--field", "padic:4", "3"),          # composite parameter
        ("val", "--field", "padic:561", "3"),        # Carmichael number
        ("val", "--field", "padic:3317044064679887385961981", "3"),  # above the prime-test bound
        ("val", "--field", "nonsense:2", "3"),       # unknown kind
        ("val", "--field", "padic:2", "x+y"),        # malformed element
        ("residue", "--field", "padic:2", "1/2"),    # domain error
        ("symbol", "--field", "padic:2", "0"),       # symbol of zero
        ("arith", "--field", "padic:2", "div", "1", "0"),
        ("snf", "--field", "padic:2", "1/2"),        # fractional entry
        ("ideal", "--field", "padic:2", "power", "pi^-1*R"),
        ("ideal", "--field", "padic:2", "inv", "0"),
        ("grmap", "leading", "--field", "padic:2", "--shifts-src=1", "1"),
        ("specf", "upper", "--field", "padic:2", "1/2", "3"),
        ("filt-check", "--field", "padic:2", "--samples", "5"),  # missing seed
        ("nonsense",),                                # unknown subcommand
        ("val", "--field", "padic:2"),                # missing element
        ("val", "--field", "tadic:3", "t^100001"),    # exponent above MAX_EXPONENT
        ("pipow", "--field", "padic:2", "100001"),
        ("pipow", "--field", "tadic:0", "-100001"),
        ("grmul", "--field", "tadic:3", "T^100001", "T"),
    ],
)
def test_exit_code_two_on_bad_input(argv):
    code, out = run(*argv)
    assert code == 2
    assert out.startswith("error:") and out.count("\n") == 1
    assert not out.startswith("error: internal")


@pytest.mark.parametrize(
    "error",
    [ValueError("bad\nstate"), KeyError("key"), RecursionError("too deep")],
    ids=["ValueError", "KeyError", "RecursionError"],
)
def test_internal_errors_are_not_reported_as_bad_input(error, monkeypatch, capsys):
    from dvrfilt import cli

    def broken(ns):
        raise error

    # a subcommand's handler, and an op's function in its row
    monkeypatch.setitem(cli._COMMANDS, "val", cli._COMMANDS["val"][:3] + (broken,))
    monkeypatch.setitem(cli._SPECF_OPS, "primes", cli._SPECF_OPS["primes"][:3] + (broken,))
    for argv in (["val", "--field", "padic:2", "1"], ["specf", "primes", "--field", "padic:2"]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: internal {type(error).__name__}: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("specf", "upper", "--field", "padic:2", "6", "x"), "malformed level 'x'"),
        (("val", "--field", "tadic:3", "t^" + "9" * 5000), "exponent has more than 4300 digits"),
        (("val", "--field", "tadic:0", "1" * 5000 + "*t"), "coefficient has more than 4300 digits"),
        (("val", "--field", "tadic:0", "1/" + "3" * 5000), "coefficient denominator has more than 4300 digits"),
        (("val", "--field", "padic:2", "-" + "7" * 5000), "numerator has more than 4300 digits"),
        (("val", "--field", "padic:" + "7" * 5000, "1"), "field parameter has more than 4300 digits"),
        (("ideal", "--field", "padic:2", "inv", "pi^" + "1" * 5000 + "*R"), "ideal exponent has more than 4300 digits"),
    ],
)
def test_bad_integers_get_own_error_text(argv, message):
    # Python's own int() messages must not reach the error line
    assert run(*argv) == (2, f"error: {message}\n")


# -- the argument table's parser: what it keeps of argparse's behaviour and
# -- what it changes on purpose

SUBCOMMANDS = [
    "parse", "arith", "pipow", "val", "residue", "symbol", "grmul", "filt-check",
    "strong-split", "adic-check", "ideal", "snf", "grmap", "specf", "axioms",
]


def test_flag_values_in_either_form_and_the_last_one_wins():
    assert run("grmul", "--field", "padic:2", "--op", "add", "T", "T") == (0, "result=0\n")
    assert run("grmul", "--field=padic:2", "--op=add", "T", "T") == (0, "result=0\n")
    assert run("val", "--field", "padic:3", "--field=padic:2", "8/12") == (0, "v=1\n")
    assert run("grmul", "--op", "add", "--field", "padic:2", "--op", "mul", "T", "T") == (
        0,
        "result=T^2\n",
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("val", "--field"), "argument --field: expected one argument"),
        (("val", "1", "--field", "--json"), "argument --field: expected one argument"),
        (("val", "1", "--field", "--", "padic:2"), "argument --field: expected one argument"),
        (("val", "--field", "padic:2", "--json=1", "1"), "argument --json: ignored explicit argument '1'"),
        (("val", "--field", "padic:2", "1", "2"), "unrecognized arguments: 2"),
        (("val", "--field", "padic:2", "--seed=3", "1", "--Json"), "unrecognized arguments: --seed=3 --Json"),
    ],
)
def test_usage_errors_keep_their_wording(argv, message):
    assert run(*argv) == (2, f"error: {message}\n")


def test_a_token_with_one_leading_dash_is_a_positional():
    assert run("pipow", "--field", "padic:2", "-2") == (0, "element=1/4\n")
    assert run("arith", "--field", "padic:2", "sub", "-1", "-2") == (0, "result=1\n")
    assert run("val", "--field", "padic:2", "-") == (2, "error: malformed rational '-'\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        # a flag's type or choice error comes first
        (("grmul", "x", "--op", "div"), "argument --op: invalid choice: 'div' (choose from 'mul', 'add')"),
        (("adic-check", "--bogus", "--seed", "1", "--level", "x"), "argument --level: invalid int value: 'x'"),
        # then each positional in order
        (("strong-split", "--bogus", "1", "x", "y"), "argument n: invalid int value: 'x'"),
        (("arith", "pow", "x", "y", "z"), "argument op: invalid choice: 'pow' (choose from "
         "'add', 'sub', 'mul', 'div', 'neg', 'inv')"),
        # then the missing required arguments, --field first
        (("adic-check", "--seed", "1", "--bogus"), "the following arguments are required: --field, --level"),
        (("strong-split", "12", "--bogus"), "the following arguments are required: --field, n, m"),
        (("specf", "--field", "padic:2"), "the following arguments are required: op"),
        (("ideal", "--field", "padic:2", "gen"), "the following arguments are required: args"),
        # then unrecognized arguments, unknown flags before extra positionals
        (("val", "--field", "padic:2", "1", "2", "--bogus"), "unrecognized arguments: --bogus 2"),
        # a flag the op does not read is unrecognized, after the missing arguments
        (("specf", "upper", "--seed", "1", "6"), "the following arguments are required: --field"),
        (("specf", "upper", "--field", "padic:2", "--seed", "1", "6", "--bogus"),
         "unrecognized arguments: --seed 1 --bogus"),
        # then the op's arity, then a missing --seed; a bad --field comes after both
        (("specf", "prop36", "--field", "padic:4"), "specf prop36 takes one element"),
        (("specf", "prop36", "--field", "padic:4", "6"), "--seed is required for sampling subcommands"),
        (("filt-check", "--field", "padic:4"), "--seed is required for sampling subcommands"),
        (("ideal", "prod", "--field", "padic:4", "pi^1*R"), "ideal prod takes exactly two ideals"),
    ],
)
def test_usage_errors_come_in_a_fixed_order(argv, message):
    assert run(*argv) == (2, f"error: {message}\n")


def test_the_first_token_names_the_subcommand():
    code, out = run("--field", "padic:2", "val", "1")
    assert code == 2
    assert out.startswith("error: argument command: invalid choice: '--field' (choose from 'parse', ")


@pytest.mark.parametrize(
    "argv, name, text",
    [
        (("pipow", "--field", "padic:2", "1_0"), "n", "1_0"),
        (("pipow", "--field", "padic:2", "+5"), "n", "+5"),
        (("strong-split", "--field", "padic:2", "12", "1", "\uff11"), "m", "\uff11"),
        (("axioms", "--field", "padic:2", "--seed", " 5", "--samples", "2"), "--seed", " 5"),
        (("axioms", "--field", "padic:2", "--seed", "1", "--samples=1_0"), "--samples", "1_0"),
        (("filt-check", "--field", "padic:2", "--seed", "1", "--max-level", "\u0662"), "--max-level", "\u0662"),
        (("adic-check", "--field", "padic:2", "--seed", "1", "--level", "9" * 4301), "--level", "9" * 4301),
    ],
)
def test_int_arguments_take_ascii_digits_only(argv, name, text):
    assert run(*argv) == (2, f"error: argument {name}: invalid int value: {text!r}\n")


def test_help_lists_every_subcommand_and_prints_nothing(capsys):
    code, out = run("--help")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:]] == SUBCOMMANDS
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv",
    [("-h",), ("val", "--field", "padic:2", "-h"), ("frobnicate", "--help"), ("val", "-h", "--", "1", "--")],
)
def test_help_before_the_separator_returns_the_usage(argv):
    assert run(*argv) == run("--help")


def test_help_after_the_separator_is_a_positional():
    assert run("val", "--field", "padic:2", "--", "-h") == (2, "error: malformed rational '-h'\n")


def test_abbreviated_flags_are_unrecognized():
    argv = ("filt-check", "--field", "padic:2", "--samp=3", "--seed", "1")
    assert run(*argv) == (2, "error: unrecognized arguments: --samp=3\n")
    # an unknown flag takes no value, so 'padic:2' is the element here
    assert run("val", "--fie", "padic:2", "1") == (2, "error: the following arguments are required: --field\n")


@pytest.mark.parametrize(
    "argv, unread",
    [
        (("grmap", "escape", "--field", "padic:2", "--shifts-dst=5,5,5", "1,1"), "--shifts-dst=5,5,5"),
        (("specf", "upper", "--field", "padic:2", "--seed", "1", "--samples", "99999999", "--strict", "6", "5"),
         "--seed 1 --samples 99999999 --strict"),
        (("specf", "primes", "--field", "padic:2", "--seed", "1", "--strict"), "--seed 1 --strict"),
        (("specf", "branched", "--field", "padic:2", "--samples", "3", "m"), "--samples 3"),
    ],
)
def test_a_flag_the_op_does_not_read_is_unrecognized(argv, unread):
    assert run(*argv) == (2, f"error: unrecognized arguments: {unread}\n")


def test_a_negative_shift_vector_parses_as_a_separate_value():
    spaced = run("grmap", "escape", "--field", "padic:2", "--shifts-src", "-1,2", "1,1")
    assert spaced == run("grmap", "escape", "--field", "padic:2", "--shifts-src=-1,2", "1,1")
    assert spaced == (0, "escape=0\n")


_FIELDS = ["padic:2", "padic:101", "tadic:3", "tadic:0", "padic:4", "tadic:x"]
_FRAGMENTS = [
    "0", "8/12", "-7/5", "t", "t^2+2*t", "(t+1)/(t^2)", "1/2*t+3/2", "T", "1 + 2*T",
    "pi^1*R", "pi^-2*R", "1,2;3,4", "t,0;1,t", "2,1/2", "1,-1", "m", "x", "", "-", "--", "-h",
]


@st.composite
def _argvs(draw):
    # an argv that follows the table (the op's row, for ideal, grmap and
    # specf), then up to three stray tokens, or one flag the op does not
    # read; every int is at most 5, and --samples and --max-level are
    # always given, so no example runs a default-sized check.  Returns the
    # argv and whether it names a flag its op does not read.
    command = draw(st.sampled_from(SUBCOMMANDS))
    _, positionals, flags, run = _COMMANDS[command]
    words, unread = [], []
    if isinstance(run, dict):
        op = draw(st.sampled_from(sorted(run)))
        names, flags, _, _ = run[op]
        words, positionals = [op], [(name, str, "") for name in names]
        unread = [flag for flag in _flags(command) if flag[0] not in {f[0] for f in flags}]
    flags = _COMMON + flags
    small = st.integers(-3, 5).map(str)

    def value(name, kind):
        if name == "--field":
            return st.sampled_from(_FIELDS)
        if name in ("--samples", "--max-level"):
            return st.integers(0, 5).map(str)
        if isinstance(kind, tuple):
            return st.sampled_from(kind)
        return small if kind is int else st.sampled_from(_FRAGMENTS)

    for name, kind, arity in positionals:
        count = draw(st.integers(*{"": (1, 1), "?": (0, 1), "+": (1, 2), "*": (0, 2)}[arity]))
        words += [draw(value(name, kind)) for _ in range(count)]
    options = []
    for name, kind, _, _ in flags:
        if name in ("--samples", "--max-level") or draw(st.sampled_from([True, True, True, False])):
            if kind is bool:
                options.append(name)
            elif draw(st.booleans()):
                options += [name, draw(value(name, kind))]
            else:
                options.append(f"{name}={draw(value(name, kind))}")
    if unread and draw(st.booleans()):
        name, kind, _, _ = draw(st.sampled_from(unread))
        options.append(name if kind is bool else f"{name}={draw(value(name, kind))}")
        return [command, *options, "--", *words], True  # after '--', '-h' is a positional
    argv = [command] + (options + words if draw(st.booleans()) else words + options)
    stray = st.one_of(
        st.sampled_from(_FRAGMENTS + _FIELDS + [name for name, *_ in flags] + ["--bogus"]), small
    )
    if draw(st.sampled_from([False, False, True])):
        for token in draw(st.lists(stray, max_size=3)):
            argv.insert(draw(st.integers(1, len(argv))), token)
    return argv, False


@settings(max_examples=300, derandomize=True)
@given(_argvs())
def test_any_table_built_argv_gets_an_answer_or_one_error_line(case):
    argv, reads_an_unread_flag = case
    code, out = dispatch(argv)
    assert code in (0, 1, 2)
    assert "error: internal" not in out
    if code == 2:
        assert out.startswith("error: ") and out.count("\n") == 1
    if reads_an_unread_flag:
        assert code == 2, argv


# Texts from each grammar on the four suite fields: an element, a graded
# element, an ideal and a matrix.  The fuzz below mutates one character of
# one of them, or of the field string, and dispatches it.
_GRAMMAR_TEXTS = {
    "padic:2": {"element": "8/12", "graded": "1 + T", "ideal": "pi^-2*R", "matrix": "2,4;0,8"},
    "padic:5": {"element": "-7/25", "graded": "3 + 4*T^2", "ideal": "pi^1*R", "matrix": "5,1;0,25"},
    "tadic:3": {
        "element": "(t^2+2*t)/(t+1)", "graded": "1 + 2*T", "ideal": "pi^3*R",
        "matrix": "t,t^2;t^2,t^3+t^4",
    },
    "tadic:0": {"element": "1/2*t+3/2", "graded": "-3 + 2*T", "ideal": "0", "matrix": "2*t,1/2;t^2,t+1"},
}
_GRAMMAR_COMMANDS = {
    "element": [["parse"], ["val"], ["residue"], ["symbol"]],
    "graded": [["grmul"], ["grmul", "--op", "add"]],
    "ideal": [["ideal", "inv"], ["ideal", "power"], ["ideal", "denom"]],
    "matrix": [["snf"], ["grmap", "leading"], ["grmap", "gr-injective"], ["grmap", "injective"]],
}
_MUTATION_CHARS = "0123456789-+*/^(),;: tTpiR\t\n\u0663"


def _mutate(draw, text):
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from(_MUTATION_CHARS))
    edit = draw(st.sampled_from(("insert", "delete", "replace")))
    return text[:i] + ("" if edit == "delete" else c) + text[i + (edit != "insert") :]


@st.composite
def _grammar_argvs(draw):
    field = draw(st.sampled_from(sorted(_GRAMMAR_TEXTS)))
    kind = draw(st.sampled_from(sorted(_GRAMMAR_COMMANDS)))
    command = draw(st.sampled_from(_GRAMMAR_COMMANDS[kind]))
    text = _GRAMMAR_TEXTS[field][kind]
    if draw(st.integers(0, 4)):
        text = _mutate(draw, text)
    else:
        field = _mutate(draw, field)
    operands = [text, "T"] if kind == "graded" else [text]
    return [*command, "--field", field, "--", *operands]


@settings(max_examples=400, derandomize=True)
@given(_grammar_argvs())
def test_any_one_character_grammar_mutation_gets_an_answer_or_one_error_line(argv):
    code, out = dispatch(argv)
    assert code in (0, 1, 2)
    assert "internal" not in out
    if code == 2:
        assert out.startswith("error: ") and out.count("\n") == 1


# the operations each handler tells apart, and the first output key of each
_OP_ARGVS = {
    ("ideal", "gen"): (["8/3,6"], "ideal="),
    ("ideal", "pgen"): (["8/3,6"], "e="),
    ("ideal", "prod"): (["pi^1*R", "pi^-2*R"], "ideal="),
    ("ideal", "sum"): (["pi^1*R", "pi^-2*R"], "ideal="),
    ("ideal", "cap"): (["pi^1*R", "0"], "ideal="),
    ("ideal", "inv"): (["pi^3*R"], "ideal="),
    ("ideal", "power"): (["pi^2*R"], "n="),
    ("ideal", "denom"): (["pi^-2*R"], "witness="),
    ("grmap", "compat"): (["1,0;0,1"], "compatible="),
    ("grmap", "leading"): (["2,4;0,8"], "leading="),
    ("grmap", "gr-injective"): (["2,4;0,8"], "gr_injective="),
    ("grmap", "injective"): (["2,4;0,8"], "injective="),
    ("grmap", "escape"): (["2,1/2"], "escape="),
    ("specf", "upper"): (["6", "5"], "member="),
    ("specf", "lower"): (["6", "0"], "member="),
    ("specf", "lemma32"): (["--seed", "1", "--samples", "5"], "clause=i "),
    ("specf", "branched"): (["m"], "branched="),
    ("specf", "prop36"): (["6", "--seed", "1", "--samples", "5"], "clause=first-half "),
    ("specf", "primes"): ([], "spec="),
}


def test_the_op_table_lists_exactly_the_dispatched_ops():
    rows = {c: ops for c, (_, _, _, ops) in _COMMANDS.items() if isinstance(ops, dict)}
    assert sorted(rows) == ["grmap", "ideal", "specf"]
    for c, ops in rows.items():
        assert _COMMANDS[c][1][0] == ("op", tuple(ops), "")  # the op choices are the rows
    assert {(c, op) for c, ops in rows.items() for op in ops} == set(_OP_ARGVS)


@pytest.mark.parametrize("command, op", sorted(_OP_ARGVS), ids=" ".join)
def test_every_op_choice_reaches_its_own_branch(command, op, monkeypatch):
    args, key = _OP_ARGVS[command, op]
    code, out = run(command, op, "--field", "padic:2", *args)
    assert code == 0 and out.startswith(key), out
    # the function that ran is the one the op's row names
    ops = _COMMANDS[command][3]
    monkeypatch.setitem(ops, op, ops[op][:3] + (lambda ns: (0, f"ran {ns.op}\n"),))
    assert run(command, op, "--field", "padic:2", *args) == (0, f"ran {op}\n")


@pytest.mark.parametrize(
    "argv, default",
    [
        (["filt-check", "--seed", "1", "--max-level", "1"], 200),
        (["adic-check", "--seed", "1", "--level", "1"], 200),
        (["axioms", "--seed", "1"], 1000),
        (["specf", "lemma32", "--seed", "1"], 200),
        (["specf", "prop36", "6", "--seed", "1"], 100),
    ],
    ids=lambda x: x[0] if isinstance(x, list) else str(x),
)
def test_sample_count_defaults_come_from_the_table(argv, default):
    _, _, flags, ops = _COMMANDS[argv[0]]
    flags = ops[argv[1]][1] if isinstance(ops, dict) else flags
    assert [flag[2] for flag in flags if flag[0] == "--samples"] == [default]
    assert _parse([*argv, "--field", "padic:2"])[0].samples == default
    given = run(*argv, "--field", "padic:2", "--samples", str(default))
    assert run(*argv, "--field", "padic:2") == given
    assert given[0] == 0
    if argv[0] != "specf":  # the clause reports do not print their sample count
        assert run(*argv, "--field", "padic:2", "--samples", str(default + 1)) != given


# one whitespace rule for every text argument: each ' ' is dropped, and any
# other whitespace is malformed
def test_spaces_are_dropped_in_field_specs_and_shift_vectors():
    assert run("parse", "--field", " padic:2 ", "1") == (0, "element=1\n")
    assert run("parse", "--field", "tadic: 3", "t") == (0, "element=t\n")
    spaced = run("grmap", "compat", "--field", "padic:2", "--shifts-src", "0, 1", "--shifts-dst", " 0,0", "1,0;0,1")
    assert spaced == run("grmap", "compat", "--field", "padic:2", "--shifts-src=0,1", "--shifts-dst=0,0", "1,0;0,1")
    assert spaced == (1, "compatible=false\noffending=1,1\n")


@pytest.mark.parametrize("text", ["\tpadic:2\n", "padic:2\n", "padic:\u00a02", "\u3000padic:2"])
def test_other_whitespace_in_a_field_spec_is_malformed(text):
    assert run("parse", "--field", text, "1") == (
        2,
        f"error: malformed field spec {text!r}; expected padic:<p>, tadic:<p> or tadic:0\n",
    )


@pytest.mark.parametrize("text", ["0,\t1", "0,1\n", "\u00a00,1"])
def test_other_whitespace_in_a_shift_vector_is_malformed(text):
    argv = ("grmap", "escape", "--field", "padic:2", f"--shifts-src={text}", "1,1")
    assert run(*argv) == (2, f"error: malformed shift vector {text!r}\n")


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dvrfilt.cli", "val", "--field", "padic:2", "8/12"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "v=1\n"
    proc = subprocess.run(
        [sys.executable, "-m", "dvrfilt.cli", "val", "--field", "padic:4", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


_A = "9" * 3000  # A * A = 10^6000 - 2 * 10^3000 + 1
_A_SQUARED = "9" * 2999 + "8" + "0" * 2999 + "1"
_E = "9" * 4300  # the longest accepted digit string


@pytest.mark.parametrize(
    "argv, out",
    [
        (("arith", "--field", "padic:2", "mul", _A, _A), f"result={_A_SQUARED}"),
        (("arith", "--field", "tadic:0", "mul", _A, _A), f"result={_A_SQUARED}"),
        (("grmul", "--field", "tadic:0", _A, _A), f"result={_A_SQUARED}"),
        (("ideal", "--field", "padic:2", "prod", f"pi^{_E}*R", f"pi^{_E}*R"),
         f"ideal=pi^1{'9' * 4299}8*R"),
        (("grmap", "escape", "--field", "padic:2", "1", f"--shifts-src={_E}"), f"escape=1{'0' * 4300}"),
    ],
    ids=["arith-padic", "arith-tadic0", "grmul-tadic0", "ideal-prod", "grmap-escape"],
)
def test_results_past_the_int_string_limit_print(argv, out):
    # accepted inputs give results of more than 4300 digits, printed in full
    assert run(*argv) == (0, out + "\n")


# -- what one CLI process imports: each probe runs in a fresh interpreter
# -- and lists the modules loaded after its start

_PROBE = """
import sys
before = set(sys.modules)
{body}
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def _loaded(body):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _loaded_by_dispatch(*argv):
    return _loaded(f"from dvrfilt.cli import dispatch\nassert dispatch({list(argv)!r})[0] == 0")


def test_import_dvrfilt_loads_no_submodule():
    assert not [m for m in _loaded("import dvrfilt") if m.startswith("dvrfilt.")]


@pytest.mark.parametrize(
    "argv",
    [("parse", "--field", "padic:2", "8/12"), ("val", "--field", "tadic:3", "t^2/(t+1)")],
    ids=["parse", "val"],
)
def test_light_subcommands_load_only_what_they_run(argv):
    loaded = _loaded_by_dispatch(*argv)
    assert "dvrfilt.elements" in loaded
    assert not loaded & {"dataclasses", "json", "dvrfilt.filtered_modules", "dvrfilt.spectrum"}
    assert not loaded & {"argparse", "gettext"}


@pytest.mark.parametrize(
    "argv",
    [
        ("strong-split", "--field", "padic:2", "12", "1", "1"),
        ("filt-check", "--field", "padic:2", "--seed", "1", "--samples", "2", "--max-level", "1"),
        ("adic-check", "--field", "padic:2", "--level", "2", "--seed", "1", "--samples", "2"),
    ],
    ids=["strong-split", "filt-check", "adic-check"],
)
def test_filtration_subcommands_do_not_load_ideals(argv):
    assert "dvrfilt.ideals" not in _loaded_by_dispatch(*argv)


def test_snf_loads_the_module_layer():
    assert "dvrfilt.filtered_modules" in _loaded_by_dispatch("snf", "--field", "padic:2", "2,4;0,8")


def test_json_output_loads_json():
    assert "json" in _loaded_by_dispatch("val", "--field", "padic:2", "8/12", "--json")
