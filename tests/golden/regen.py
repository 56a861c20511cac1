"""Regenerate the golden stdout corpus of the ``qincompat`` CLI.

Each case's stdout is written to this directory as ``<argv joined by "_">.out``,
so ``mub_--dim_3_--seed_0.out`` holds the stdout of
``qincompat mub --dim 3 --seed 0``. A document argument is named by its file
name alone, since a joined name cannot hold a ``/``, and resolves to the
seeded document of that name in this directory: ``measure_mixed-d3.json.out``
holds the stdout of ``qincompat measure tests/golden/mixed-d3.json``.
``tests/test_golden.py`` runs every case in-process through
``qincompat.cli.main`` and compares byte for byte. Run from the repository
root, against the ``src/`` tree beside this directory:

    python tests/golden/regen.py

A change that alters stdout on purpose commits the regenerated files and
states how many of them changed. The documents are the corpus's inputs and
are written only when missing, so a change to how states are built or
validated cannot move them; delete a document to redraw it.
"""

import contextlib
import io
import sys
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parent))

from _util import eigenstate_context, random_context, write_document  # noqa: E402
from qincompat.cli import main  # noqa: E402

# Seeded documents of three kinds at d = 2, 3 and 5, each drawn from its own
# seed. The commuting, zero-information and MUB kinds are left out: their
# stdout prints rounding noise around an exact value to 12 significant
# digits (a commuting "ratio" of 1.86e-28, say), which can change with the
# CPU's SIMD paths. Their informations are non-negative by construction
# but still rounding (2.5e-32, say); they wait for a digest format.
DOCUMENT_KINDS = {
    "mixed": random_context,
    "pure": lambda dim, rng: random_context(dim, rng, pure=True),
    "eigenstate": eigenstate_context,
}
DOCUMENTS = {
    f"{kind}-d{dim}.json": (build, dim, 100 * seed + dim)
    for seed, (kind, build) in enumerate(DOCUMENT_KINDS.items())
    for dim in (2, 3, 5)
}

CASES = [
    ["mub", "--dim", str(d), "--seed", str(seed)] for d in (2, 3, 4, 5, 6, 8, 9) for seed in (0, 1)
] + [["mub", "--dim", str(d), "--seed", "0"] for d in (7, 10, 12, 16)] + [
    # one Haar start at d = 3 certifies; at d = 16 one start stalls short
    # of the certificate, and the last case cuts each start at 60 trials
    ["mub", "--dim", "3", "--restarts", "1", "--seed", "0"],
    ["mub", "--dim", "16", "--restarts", "1", "--seed", "0"],
    ["mub", "--dim", "16", "--restarts", "2", "--max-iters", "60", "--seed", "0"],
] + [
    argv
    for name in DOCUMENTS
    for argv in (
        ["measure", name],
        ["--bits", "measure", name],
        ["protocol", name],
        ["sweep", name, "--eps-grid", "log:1e-4:1:5"],
        ["bloch", name],
    )
]


def write_documents() -> None:
    for name, (build, dim, seed) in DOCUMENTS.items():
        if (HERE / name).exists():
            continue
        ctx = build(dim, np.random.default_rng(seed))
        write_document(
            HERE / name, ctx.dim, ctx.state.entries, ctx.first.vectors, ctx.second.vectors
        )


def stdout_of(argv: list[str]) -> str:
    buffer = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(buffer):
        warnings.simplefilter("error")
        code = main([str(HERE / arg) if arg.endswith(".json") else arg for arg in argv])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return buffer.getvalue()


if __name__ == "__main__":
    for stale in HERE.glob("*.out"):
        stale.unlink()
    write_documents()
    for argv in CASES:
        (HERE / ("_".join(argv) + ".out")).write_text(stdout_of(argv))
    print(f"wrote {len(CASES)} cases on {len(DOCUMENTS)} documents to {HERE}")
