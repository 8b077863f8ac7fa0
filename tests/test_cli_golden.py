"""Golden corpus: the exact stdout of `snf` and `grmap injective`.

`cli_golden.json` pins the exit code and output bytes of both subcommands
on the README example, a few hand-picked matrices and seeded random
matrices (full rank and rank deficient) over padic:2, padic:101, tadic:3
and tadic:0.  Any change to the pivot rule, the elimination order or the
canonical forms shows up here as a byte difference.

Regenerate the corpus only from a commit whose output is known good:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import pathlib
import random

import pytest

from dvrfilt.cli import dispatch

CORPUS = pathlib.Path(__file__).with_name("cli_golden.json")
CASES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{n:02d} {' '.join(c['argv'][:-1])}" for n, c in enumerate(CASES)]
)
def test_cli_output_is_byte_identical(case):
    assert dispatch(case["argv"]) == (case["code"], case["stdout"])


def _matrices():
    from dvrfilt import ValuationSpec
    from dvrfilt.filtered_modules import format_matrix, random_matrix

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


def _build():
    argvs = []
    for field, text in _matrices():
        argvs += [["snf", "--field", field, text], ["grmap", "injective", "--field", field, text]]
    argvs.append(["snf", "--field", "padic:2", "--json", "2,4;0,8"])
    cases = []
    for argv in argvs:
        code, out = dispatch(argv)
        cases.append({"argv": argv, "code": code, "stdout": out})
    return cases


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(_build(), indent=1) + "\n")
