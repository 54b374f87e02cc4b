"""Command-line reports on a fixed corpus, byte for byte.

``tests/data/cli`` holds small cube, ray, square, min/max and descent
instance files (n <= 4) and, in ``expected.json``, the exit code and
standard output of each recorded command line, each in both output
formats: ``verify-cube`` on valid, broken, partial and positive-form cubes
and on edges known only modulo T, ``cone`` in every direction, ``compose``, ``tel``, ``sh``, ``mv``,
``descent`` and every ``morse`` action, with usage and load errors among
them.
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


def _choices(parser, dest):
    return next(a.choices for a in parser._actions if a.dest == dest)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_corpus_covers_every_subcommand_and_morse_action(fmt):
    commands = _choices(cli.build_parser(), "command")
    wanted = {(name,) for name in commands}
    wanted |= {("morse", a) for a in _choices(commands["morse"], "action")}
    covered = set()
    for case in CASES:
        argv = case["argv"]
        if argv[-2:] == ["--format", fmt]:
            covered |= {tuple(argv[:1]), tuple(argv[:2])}
    assert sorted(wanted - covered) == []
