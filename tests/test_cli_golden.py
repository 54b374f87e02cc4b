"""Command-line reports on a fixed corpus, byte for byte.

``tests/data/cli`` holds small cube, ray, square and min/max files (n <= 4)
and, in ``expected.json``, the exit code and standard output of each
recorded command line: ``verify-cube`` on valid, broken, partial and
positive-form cubes, ``cone`` in every direction, ``compose``, ``tel``,
``mv`` and ``morse minmax``, each in both output formats.
"""

import json
from pathlib import Path

import pytest

from novcube import cli

DATA = Path(__file__).resolve().parent / "data" / "cli"
CASES = json.loads((DATA / "expected.json").read_text())


@pytest.mark.parametrize("case", CASES,
                         ids=[" ".join(c["argv"]) for c in CASES])
def test_report_matches_the_corpus(case, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    code = cli.main(case["argv"])
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
