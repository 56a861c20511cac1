"""Golden stdout: each committed case in ``tests/golden`` run in-process.

The file name is the argv joined by "_"; ``tests/golden/regen.py`` writes
the files, and a change that keeps stdout passes this test unchanged.
"""

from pathlib import Path

import pytest

from qincompat.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(GOLDEN.glob("*.out"))


def test_corpus_is_present():
    assert len(CASES) == 21


@pytest.mark.parametrize("path", CASES, ids=lambda path: path.stem)
def test_stdout_matches_the_golden_file(path, capsys, monkeypatch):
    monkeypatch.delenv("QINCOMPAT_SEED", raising=False)
    assert main(path.stem.split("_")) == 0
    assert capsys.readouterr().out == path.read_text()
