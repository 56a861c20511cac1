"""Regenerate the golden stdout corpus of the ``qincompat`` CLI.

Each case's stdout is written to this directory as ``<argv joined by "_">.out``,
so ``mub_--dim_3_--seed_0.out`` holds the stdout of
``qincompat mub --dim 3 --seed 0``. ``tests/test_golden.py`` runs every case
in-process through ``qincompat.cli.main`` and compares byte for byte. Run
from the repository root, against the ``src/`` tree beside this directory:

    python tests/golden/regen.py

A change that alters stdout on purpose commits the regenerated files and
states how many of them changed.
"""

import contextlib
import io
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from qincompat.cli import main  # noqa: E402

CASES = [
    ["mub", "--dim", str(d), "--seed", str(seed)] for d in (2, 3, 4, 5, 6, 8, 9) for seed in (0, 1)
] + [["mub", "--dim", str(d), "--seed", "0"] for d in (7, 10, 12, 16)] + [
    # one Haar start at d = 3 certifies; at d = 16 one start stalls short
    # of the certificate, and the last case cuts each start at 60 trials
    ["mub", "--dim", "3", "--restarts", "1", "--seed", "0"],
    ["mub", "--dim", "16", "--restarts", "1", "--seed", "0"],
    ["mub", "--dim", "16", "--restarts", "2", "--max-iters", "60", "--seed", "0"],
]


def stdout_of(argv: list[str]) -> str:
    buffer = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(buffer):
        warnings.simplefilter("error")
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return buffer.getvalue()


if __name__ == "__main__":
    for stale in HERE.glob("*.out"):
        stale.unlink()
    for argv in CASES:
        (HERE / ("_".join(argv) + ".out")).write_text(stdout_of(argv))
    print(f"wrote {len(CASES)} cases to {HERE}")
