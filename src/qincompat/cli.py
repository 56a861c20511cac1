"""Command-line front end: context I/O, measures, protocol, sweeps, search.

Context documents are JSON files holding the state matrix and the two
eigenbases (columns are eigenvectors); complex numbers are encoded as
two-element [re, im] arrays. All entropic output is in nats unless --bits
is passed, which divides by ln 2 at the presentation layer only.

Exit codes: 0 success, 2 parse error (unreadable document, an array that
is not JSON numbers of its shape, or a non-integer $QINCOMPAT_SEED), 3 invariant
violation (non-finite numbers included) from every subcommand, 4 malformed
sweep grid (unless 0 < lo <= hi <= 1 and its point count n lies in
1..``MAX_GRID_POINTS`` = 100 000), 5 any other numerical error (a failed
cross-check or eigensolver included) in measure, sweep or protocol, 6 the
same in mub (--dim outside 2..16 included), 7 the same in bloch. ``main``
maps errors to these codes in one place.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bloch import basis_to_bloch_frame, geometric_maps, state_to_bloch
from .core import Context, DensityMatrix, ObservableBasis
from .errors import DimensionMismatchError, InvariantViolationError
from .measures import incompatibility_report
from .mubsearch import SearchConfig, maximize_incompatibility
from .protocol import noise_sweep, stinespring_ledger

EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_GRID = 4
EXIT_PROTOCOL = 5
EXIT_SEARCH = 6
EXIT_GEOMETRY = 7

# top of the documented range, d = 2..16
MAX_MUB_DIM = 16
# 5 000 times the default grid's 20 points; numpy may try to allocate larger grids
MAX_GRID_POINTS = 100_000

SEED_ENV_VAR = "QINCOMPAT_SEED"
DOCUMENT_VERSION = "1"


class DocumentError(ValueError):
    """The context document is structurally unreadable."""


class _GridError(ValueError):
    """The --eps-grid spec is malformed or out of range."""


def _field(doc: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """The float array under ``key``: nested JSON arrays of exactly ``shape``
    whose leaves are all numbers. A missing key, another shape, ragged
    nesting, or a string, boolean or null leaf raises DocumentError, one
    message for all; a float conversion alone would accept strings and booleans.
    """
    try:
        arr = np.array(doc[key], dtype=object)
        if arr.shape == shape and set(map(type, arr.flat)) <= {int, float}:
            return arr.astype(float)
    except (KeyError, ValueError, OverflowError):
        pass
    raise DocumentError(f"{key} must be JSON numbers in nested arrays of shape {shape}")


def load_context_document(path: str) -> Context:
    """Parse and validate a JSON context document."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        # ValueError: malformed JSON, bytes that are not UTF-8, or an integer
        # beyond Python's digit limit; RecursionError: nesting too deep to parse
        except (ValueError, RecursionError) as exc:
            raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    if str(doc.get("version")) != DOCUMENT_VERSION:
        raise DocumentError(f"unsupported document version {doc.get('version')!r}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise DocumentError(f"dim must be an integer >= 2, got {dim!r}")
    # the [re, im] pairs read as complex with no arithmetic, so an infinite
    # part cannot raise an invalid-value warning before the finiteness checks
    rho, x_cols, y_cols = (
        _field(doc, key, (dim, dim, 2)).view(complex)[..., 0]
        for key in ("rho", "x_basis", "y_basis")
    )
    x_vals, y_vals = (
        _field(doc, key, (dim,)) if key in doc else None
        for key in ("x_eigenvalues", "y_eigenvalues")
    )
    return Context(
        DensityMatrix(rho), ObservableBasis(x_cols, x_vals), ObservableBasis(y_cols, y_vals)
    )


# adding 0.0 turns a rounded -0.0 into 0.0, so no printed zero carries a sign
def _sig(value: float, bits: bool = False) -> float:
    if bits:
        value = value / math.log(2.0)
    return float(f"{value:.12g}") + 0.0


def _fixed(value: float) -> float:
    return float(f"{value:.12f}") + 0.0


def cmd_measure(args) -> int:
    report = incompatibility_report(load_context_document(args.input))
    payload = {
        "i_context": _sig(report.i_context, args.bits),
        "i_initial": _sig(report.i_initial, args.bits),
        "i_final": _sig(report.i_final, args.bits),
        "ratio": None if report.ratio is None else _sig(report.ratio),
        "m_measurement": _sig(report.m_measurement),
        "classification": report.classification.value,
    }
    if report.ratio is None:
        payload["ratio_reason"] = "ZERO_INFO"
    print(json.dumps(payload))
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise _GridError(f"grid spec must be log:<lo>:<hi>:<n> or lin:<lo>:<hi>:<n>, got {spec!r}")
    try:
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise _GridError(f"malformed grid spec {spec!r}") from exc
    # written so that NaN fails it too
    if count < 1 or not (0 < lo <= hi <= 1):
        raise _GridError(f"grid spec {spec!r} out of range")
    if count > MAX_GRID_POINTS:
        raise _GridError(f"grid spec {spec!r} asks for more than {MAX_GRID_POINTS} points")
    if parts[0] == "log":
        return np.logspace(math.log10(lo), math.log10(hi), count)
    return np.linspace(lo, hi, count)


def cmd_sweep(args) -> int:
    # parsed before the document is read, so a bad grid exits 4 whatever the document
    grid = _parse_grid(args.eps_grid)
    points = noise_sweep(load_context_document(args.input), grid)
    print("epsilon,i_initial,i_final,ratio")
    for point in points:
        print(
            f"{_sig(point.epsilon)},{_sig(point.i_initial_eps, args.bits)},"
            f"{_sig(point.i_final_eps, args.bits)},{_sig(point.ratio_eps)}"
        )
    return 0


def cmd_protocol(args) -> int:
    ledger = stinespring_ledger(load_context_document(args.input))
    print(
        json.dumps(
            {
                "i_initial": _sig(ledger.i_initial, args.bits),
                "i_final": _sig(ledger.i_final, args.bits),
                "delta_apparatus": _sig(ledger.delta_apparatus, args.bits),
                "mutual_info": _sig(ledger.mutual_info, args.bits),
            }
        )
    )
    return 0


def cmd_mub(args) -> int:
    if not 2 <= args.dim <= MAX_MUB_DIM:
        print(f"error: --dim must lie in 2..{MAX_MUB_DIM}, got {args.dim}", file=sys.stderr)
        return EXIT_SEARCH
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw)
        except ValueError:
            print(f"error: {SEED_ENV_VAR} must be an integer, got {raw!r}", file=sys.stderr)
            return EXIT_PARSE
    config = SearchConfig(
        dim=args.dim,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=seed,
    )
    result = maximize_incompatibility(ObservableBasis.computational(args.dim), config)
    print(
        json.dumps(
            {
                "objective": _fixed(result.objective),
                "certified_mub": result.certified_mub,
                "restarts_used": result.restarts_used,
                "iterations": len(result.trajectory),
                "seed": seed,
            }
        )
    )
    return 0


def cmd_bloch(args) -> int:
    ctx = load_context_document(args.input)
    r = state_to_bloch(ctx.state)
    xs = basis_to_bloch_frame(ctx.first)
    ys = basis_to_bloch_frame(ctx.second)
    u, v = geometric_maps(r, xs, ys)
    payload = {
        "r": [_fixed(c) for c in r.r],
        "u": [_fixed(c) for c in u.r],
        "v": [_fixed(c) for c in v.r],
        "x_frame": [[_fixed(c) for c in row] for row in xs],
        "y_frame": [[_fixed(c) for c in row] for row in ys],
        "xx_dots": [[_fixed(c) for c in row] for row in xs @ xs.T],
        "yy_dots": [[_fixed(c) for c in row] for row in ys @ ys.T],
        "xy_dots": [[_fixed(c) for c in row] for row in xs @ ys.T],
    }
    print(json.dumps(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qincompat",
        description="Quantum context incompatibility measures and protocol tools",
    )
    parser.add_argument(
        "--bits", action="store_true", help="report entropic quantities in bits"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="all incompatibility measures of a context")
    p_measure.add_argument("input", help="context document path")
    p_measure.set_defaults(func=cmd_measure, failure=EXIT_PROTOCOL)

    p_sweep = sub.add_parser("sweep", help="noise sweep as CSV")
    p_sweep.add_argument("input", help="context document path")
    p_sweep.add_argument(
        "--eps-grid", default="log:1e-4:1:20", help="log:<lo>:<hi>:<n> or lin:<lo>:<hi>:<n>"
    )
    p_sweep.set_defaults(func=cmd_sweep, failure=EXIT_PROTOCOL)

    p_protocol = sub.add_parser("protocol", help="dilated interception ledger")
    p_protocol.add_argument("input", help="context document path")
    p_protocol.set_defaults(func=cmd_protocol, failure=EXIT_PROTOCOL)

    p_mub = sub.add_parser("mub", help="search an unbiased partner basis")
    p_mub.add_argument("--dim", type=int, required=True)
    p_mub.add_argument("--restarts", type=int, default=20)
    p_mub.add_argument("--max-iters", type=int, default=300)
    p_mub.add_argument(
        "--seed", type=int, default=None, help=f"defaults to ${SEED_ENV_VAR} or 0"
    )
    p_mub.set_defaults(func=cmd_mub, failure=EXIT_SEARCH)

    p_bloch = sub.add_parser("bloch", help="Bloch vectors and frame dot products")
    p_bloch.add_argument("input", help="context document path")
    p_bloch.set_defaults(func=cmd_bloch, failure=EXIT_GEOMETRY)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; every error it raises maps to an exit code here,
    the first matching row winning: grid, parse, invariant, then the
    subcommand's own ``failure`` code for any other ValueError or
    ArithmeticError (np.linalg.LinAlgError is a ValueError)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _GridError as exc:
        message, code = str(exc), EXIT_GRID
    except (DocumentError, OSError) as exc:
        message, code = str(exc), EXIT_PARSE
    except (InvariantViolationError, DimensionMismatchError) as exc:
        message, code = f"invariant violation: {exc}", EXIT_INVARIANT
    except (ValueError, ArithmeticError) as exc:
        message, code = str(exc), args.failure
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
