"""Golden stdout: each committed case in ``tests/golden`` run in-process.

The file name is the argv joined by "_", with a context document named by
its file name alone and resolved under ``tests/golden``;
``tests/golden/regen.py`` writes the documents and the files, and a change
that keeps stdout passes this test unchanged.
"""

from pathlib import Path

import pytest

from qincompat.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(GOLDEN.glob("*.out"))


def test_corpus_is_present():
    # 21 mub cases, and five document subcommands on each of 9 documents
    assert len(CASES) == 21 + 5 * 9
    assert len(list(GOLDEN.glob("*.json"))) == 9


@pytest.mark.parametrize("path", CASES, ids=lambda path: path.stem)
def test_stdout_matches_the_golden_file(path, capsys, monkeypatch):
    monkeypatch.delenv("QINCOMPAT_SEED", raising=False)
    argv = [str(GOLDEN / arg) if arg.endswith(".json") else arg for arg in path.stem.split("_")]
    assert main(argv) == 0
    assert capsys.readouterr().out == path.read_text()
