"""Golden corpus: the exact exit code and stdout of every CLI subcommand.

`cli_golden.json` pins the output bytes of:

* `snf` and `grmap injective` on the README example, a few hand-picked
  matrices and seeded random matrices (full rank and rank deficient) over
  padic:2, padic:101, tadic:3 and tadic:0;
* every example in the README's command table;
* each of the 15 subcommands on padic:2, padic:101, tadic:3 and tadic:0,
  in `key=value` and `--json` form, including the `error:` lines of exit
  code 2 and the violations of exit code 1.

Any change to the pivot rule, the elimination order, the canonical forms,
the sampling order or an error message shows up here as a byte difference.
New cases go at the end, so the ids of the existing ones stay put.

This module builds the corpus without pytest or hypothesis, so a bare
interpreter can regenerate it.  Regenerate it
only from a commit whose output is known good:

    PYTHONPATH=src python tests/golden_corpus.py

`tests/test_cli_golden.py` checks every case against the CLI.
"""

import json
import pathlib
import random

from dvrfilt.cli import dispatch

CORPUS = pathlib.Path(__file__).with_name("cli_golden.json")


def _matrices():
    from dvrfilt import ValuationSpec
    from dvrfilt.filtered_modules import format_matrix
    from instances import random_matrix

    yield "padic:2", "2,4;0,8"
    yield "padic:2", "1,2;2,4"
    yield "padic:2", "0,0;0,0"
    yield "tadic:3", "t,t^2;t^2,t^3+t^4"
    shapes = {
        "padic:2": [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (5, 3)],
        "padic:101": [(2, 2), (3, 3), (3, 4), (4, 4)],
        "tadic:3": [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)],
        "tadic:0": [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)],
    }
    for field, dims in shapes.items():
        spec = ValuationSpec.from_string(field)
        rng = random.Random(f"golden:{field}")
        for rows, cols in dims:
            a = random_matrix(spec, rng, rows, cols, max_entry_valuation=3)
            yield field, format_matrix(a)
            if rows >= 2:
                # rank deficient: the last row becomes the sum of two kept rows
                deficient = a[:-1] + (tuple(x + y for x, y in zip(a[0], a[-2])),)
                yield field, format_matrix(deficient)


README_EXAMPLES = [
    ["parse", "--field", "padic:2", "8/12"],
    ["arith", "--field", "padic:2", "mul", "2/3", "3/2"],
    ["pipow", "--field", "padic:2", "-2"],
    ["val", "--field", "padic:2", "8/12"],
    ["residue", "--field", "padic:2", "7/5"],
    ["symbol", "--field", "padic:3", "18"],
    ["grmul", "--field", "padic:2", "T", "T"],
    ["filt-check", "--field", "tadic:3", "--seed", "7", "--samples", "500", "--max-level", "10"],
    ["strong-split", "--field", "padic:2", "12", "1", "1"],
    ["adic-check", "--field", "padic:2", "--level", "3", "--seed", "1"],
    ["ideal", "--field", "padic:2", "gen", "8/3,6"],
    ["snf", "--field", "padic:2", "2,4;0,8"],
    ["specf", "upper", "--field", "padic:2", "6", "5"],
    ["axioms", "--field", "padic:2", "--seed", "42", "--samples", "1000"],
]

# Per field: sample elements (the last is zero), a unit, an element of
# negative valuation, an element of R_2, two graded elements, a matrix and
# a vector.
FIELD_INPUTS = {
    "padic:2": dict(
        elems=["8/12", "-7/5", "96", "0"], unit="7/5", neg="3/8", deep="12",
        gr=("1 + T", "T"), matrix="2,4;0,8", vector="2,1/2",
    ),
    "padic:101": dict(
        elems=["202/3", "-5/10201", "1", "0"], unit="3/7", neg="1/101", deep="10201",
        gr=("3 + 100*T", "2*T^2"), matrix="101,1;0,101", vector="101,5/101",
    ),
    "tadic:3": dict(
        elems=["t^2+2*t", "(t^2+2*t)/(t+1)", "(1)/(t^2)", "0"], unit="(t+2)/(t^2+1)",
        neg="(1)/(t)", deep="t^3+t^2", gr=("1 + 2*T", "2 + T"),
        matrix="t,t^2;t^2,t^3+t^4", vector="t,(1)/(t)",
    ),
    "tadic:0": dict(
        elems=["1/2*t+3/2", "(t^2-1)/(2*t^3+t)", "-t^3", "0"], unit="(t+2)/(3*t^2+1)",
        neg="(1)/(2*t)", deep="-1/3*t^2+t^5", gr=("1/2 + T", "-3 + 2*T"),
        matrix="2*t,1/2;t^2,t+1", vector="t^2,1/3*t",
    ),
}


def _field_argvs(field, d):
    f = ["--field", field]
    x, y, z, zero = d["elems"]
    out = []
    for e in d["elems"]:
        out += [["parse", *f, e], ["val", *f, e]]
    out += [
        ["parse", *f, "--json", x],
        ["parse", *f, "1/0"],
        ["parse", *f, "t^"],
        ["parse", *f, "2//3"],
        ["parse", *f, "(t+1"],
    ]
    for op in ("add", "sub", "mul", "div"):
        out.append(["arith", *f, op, x, y])
    out += [
        ["arith", *f, "neg", y],
        ["arith", *f, "inv", y],
        ["arith", *f, "--json", "mul", z, y],
        ["arith", *f, "inv", zero],
        ["arith", *f, "div", x, zero],
        ["arith", *f, "add", x],
        ["arith", *f, "neg", x, y],
        ["arith", *f, "pow", x, y],
    ]
    out += [["pipow", *f, n] for n in ("-2", "0", "3")]
    out += [["pipow", *f, "--json", "5"], ["pipow", *f, "x"]]
    out += [["val", *f, "--json", y], ["val", *f, d["neg"]]]
    for e in (d["unit"], d["deep"], zero, d["neg"], x):
        out += [["residue", *f, e], ["symbol", *f, e]]
    out += [["residue", *f, "--json", d["unit"]], ["symbol", *f, "--json", d["deep"]]]
    u, v = d["gr"]
    out += [
        ["grmul", *f, u, v],
        ["grmul", *f, "--op", "add", u, v],
        ["grmul", *f, "--json", v, v],
        ["grmul", *f, u, "T^"],
        ["grmul", *f, "--op", "div", u, v],
    ]
    out += [
        ["filt-check", *f, "--seed", "7", "--samples", "20", "--max-level", "4"],
        ["filt-check", *f, "--json", "--seed", "3", "--samples", "10"],
        ["filt-check", *f, "--samples", "10"],
        ["filt-check", *f, "--seed", "3", "--samples", "0"],
    ]
    out += [
        ["strong-split", *f, d["deep"], "1", "1"],
        ["strong-split", *f, "--json", d["deep"], "2", "0"],
        ["strong-split", *f, d["unit"], "1", "1"],
        ["strong-split", *f, d["deep"], "-1", "1"],
    ]
    out += [
        ["adic-check", *f, "--level", "2", "--seed", "1", "--samples", "20"],
        ["adic-check", *f, "--json", "--level", "1", "--seed", "5", "--samples", "10"],
        ["adic-check", *f, "--level", "2", "--samples", "10"],
    ]
    out += [
        ["ideal", *f, "gen", f"{x},{d['deep']}"],
        ["ideal", *f, "gen", zero],
        ["ideal", *f, "pgen", f"{x},{y}"],
        ["ideal", *f, "pgen", zero],
        ["ideal", *f, "prod", "pi^1*R", "pi^-2*R"],
        ["ideal", *f, "sum", "pi^1*R", "pi^-2*R"],
        ["ideal", *f, "cap", "pi^1*R", "0"],
        ["ideal", *f, "inv", "pi^3*R"],
        ["ideal", *f, "inv", "0"],
        ["ideal", *f, "power", "pi^2*R"],
        ["ideal", *f, "power", "pi^-2*R"],
        ["ideal", *f, "denom", "pi^-2*R"],
        ["ideal", *f, "--json", "gen", f"{y},{z}"],
        ["ideal", *f, "prod", "pi^1*R"],
        ["ideal", *f, "inv", "pi*R"],
    ]
    out += [
        ["snf", *f, "--json", d["matrix"]],
        ["snf", *f, "1,2;3"],
        ["snf", *f, f"{x},{y};{z},{d['unit']}"],
    ]
    m = d["matrix"]
    out += [
        ["grmap", "compat", *f, m],
        ["grmap", "compat", *f, "--shifts-src=0,1", "--shifts-dst=0,0", "1,0;0,1"],
        ["grmap", "compat", *f, "--json", "--shifts-src=0,1", "--shifts-dst=0,0", "1,0;0,1"],
        ["grmap", "leading", *f, m],
        ["grmap", "leading", *f, "--shifts-src=1,0", "--shifts-dst=0,0", m],
        ["grmap", "gr-injective", *f, m],
        ["grmap", "gr-injective", *f, "--json", "1,0;0,1"],
        ["grmap", "injective", *f, "--shifts-src=0,0", "--shifts-dst=0,1", m],
        ["grmap", "escape", *f, d["vector"]],
        ["grmap", "escape", *f, "--shifts-src=1,-1", d["vector"]],
        ["grmap", "escape", *f, "--json", f"{zero},{zero}"],
        ["grmap", "leading", *f, "--shifts-src=0", m],
        ["grmap", "compat", *f, "--shifts-src=a", m],
    ]
    out += [
        ["specf", "upper", *f, d["deep"], "2"],
        ["specf", "upper", *f, d["unit"], "1"],
        ["specf", "lower", *f, d["unit"], "0"],
        ["specf", "lower", *f, "--json", d["deep"], "2"],
        ["specf", "lower", *f, d["deep"], "-1"],
        ["specf", "upper", *f, x],
        ["specf", "lemma32", *f, "--seed", "3", "--samples", "20"],
        ["specf", "lemma32", *f, "--strict", "--seed", "3", "--samples", "10"],
        ["specf", "lemma32", *f, "--json", "--seed", "4", "--samples", "10"],
        ["specf", "lemma32", *f, "--samples", "10"],
        ["specf", "branched", *f, "0"],
        ["specf", "branched", *f, "m"],
        ["specf", "branched", *f, "p"],
        ["specf", "prop36", *f, d["deep"], "--seed", "3", "--samples", "10"],
        ["specf", "prop36", *f, "--strict", "--json", d["unit"], "--seed", "3", "--samples", "10"],
        ["specf", "primes", *f],
        ["specf", "primes", *f, "--json"],
    ]
    out += [
        ["axioms", *f, "--seed", "42", "--samples", "30"],
        ["axioms", *f, "--json", "--seed", "5", "--samples", "20"],
        ["axioms", *f, "--samples", "20"],
        ["axioms", *f, "--seed", "5", "--samples", "0"],
    ]
    return out


ERROR_ARGVS = [
    [],
    ["frobnicate", "--field", "padic:2"],
    ["parse", "8/12"],
    ["parse", "--field", "padic:4", "1"],
    ["parse", "--field", "padic:1", "1"],
    ["parse", "--field", "tadic:9", "t"],
    ["parse", "--field", "qadic:2", "1"],
    ["parse", "--field", "tadic:x", "t"],
    ["parse", "--field", "padic:561", "1"],
    ["val", "--field", "padic:3317044064679887385961981", "1"],
    ["parse", "--field", "padic:2"],
    ["arith", "--field", "padic:101", "add", "--", "--"],
    ["grmap", "compat", "--field", "padic:2", "--", "--"],
    # digits are ASCII only, in the element grammar and in every int argument
    ["parse", "--field", "padic:2", "\u0665/\u0663"],
    ["parse", "--field", "padic:\u0667", "1"],
    ["parse", "--field", "tadic:3", "t^\u0663"],
    ["parse", "--field", "tadic:0", "\u0661/\u0662*t"],
    ["ideal", "--field", "padic:2", "inv", "pi^\u0663*R"],
    ["grmap", "escape", "--field", "padic:2", "--shifts-src=\u0662", "1"],
    ["filt-check", "--field", "padic:2", "--seed", "1", "--samples", "2", "--max-level", "\u0662"],
    ["pipow", "--field", "padic:2", "1_0"],
    ["axioms", "--field", "padic:2", "--seed", " 5", "--samples", "2"],
    # operations that take no positional arguments reject extras
    ["specf", "lemma32", "--field", "padic:2", "--seed", "1", "--samples", "2", "junk"],
    ["specf", "primes", "--field", "padic:2", "junk"],
    ["--help"],
    # field specs and shift vectors drop every ' ' and reject other whitespace
    ["parse", "--field", "\tpadic:2\n", "1"],
    ["parse", "--field", " padic:2 ", "1"],
    ["grmap", "escape", "--field", "padic:2", "--shifts-src", "0, 1", "1,1"],
    # prop36 takes at least one sample, as lemma32 and the checkers do
    ["specf", "prop36", "--field", "padic:2", "--seed", "3", "--samples", "0", "12"],
    ["specf", "prop36", "--field", "padic:2", "--seed", "3", "--samples", "-1", "12"],
    # an op accepts only the flags it reads
    ["grmap", "escape", "--field", "padic:2", "--shifts-dst=5,5,5", "1,1"],
    ["specf", "upper", "--field", "padic:2", "--seed", "1", "--samples", "99999999", "--strict", "6", "5"],
    ["specf", "upper", "--field", "padic:2", "--strict", "6", "5"],
    ["specf", "lower", "--field", "padic:2", "--seed=1", "16", "6"],
    ["specf", "lower", "--field", "padic:2", "16", "6", "--samples", "3", "--json"],
    ["specf", "primes", "--field", "padic:2", "--seed", "1", "--strict"],
    ["specf", "branched", "--field", "padic:2", "--samples", "3", "m"],
    # usage errors, the arity of an op and a missing --seed among them, come
    # before a bad --field
    ["specf", "prop36", "--field", "padic:4", "6"],
    ["specf", "lemma32", "--field", "padic:4"],
    ["specf", "lemma32", "--field", "padic:4", "--seed", "1", "6"],
    ["specf", "upper", "--field", "padic:4", "6"],
    ["specf", "branched", "--field", "padic:4"],
    ["ideal", "prod", "--field", "padic:4", "pi^1*R"],
    ["ideal", "inv", "--field", "padic:4", "pi^1*R", "pi^2*R"],
]


def _build():
    argvs = []
    for field, text in _matrices():
        argvs += [["snf", "--field", field, text], ["grmap", "injective", "--field", field, text]]
    argvs.append(["snf", "--field", "padic:2", "--json", "2,4;0,8"])
    argvs += README_EXAMPLES
    for field, inputs in FIELD_INPUTS.items():
        argvs += _field_argvs(field, inputs)
    argvs += ERROR_ARGVS
    cases = []
    for argv in argvs:
        code, out = dispatch(argv)
        cases.append({"argv": argv, "code": code, "stdout": out})
    return cases


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(_build(), indent=1) + "\n")
