"""Golden corpus: the exact exit code and stdout of every CLI subcommand.

`cli_golden.json` pins the output bytes of every case that
`tests/golden_corpus.py` builds; see that module for what the cases cover
and how to regenerate them.
"""

import json

import pytest

from dvrfilt.cli import dispatch
from golden_corpus import CORPUS

CASES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{n:02d} {' '.join(c['argv'][:-1])}" for n, c in enumerate(CASES)]
)
def test_cli_output_is_byte_identical(case):
    assert dispatch(case["argv"]) == (case["code"], case["stdout"])
