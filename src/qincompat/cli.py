"""Command-line front end: context I/O, measures, protocol, sweeps, search.

Context documents are JSON files holding the state matrix and the two
eigenbases (columns are eigenvectors); complex numbers are encoded as
two-element [re, im] arrays. All entropic output is in nats unless --bits
is passed, which divides by ln 2 at the presentation layer only.

Exit codes: 0 success, 2 parse error (unreadable document or a
non-integer $QINCOMPAT_SEED), 3 invariant violation (non-finite numbers
included), 4 malformed sweep grid (unless 0 < lo <= hi <= 1), 5 protocol or
numerical error (a failed cross-check or eigensolver in measure, sweep or
protocol), 6 search error (--dim outside 2..16 included), 7 geometry error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bloch import basis_to_bloch_frame, build_generators, geometric_maps, state_to_bloch
from .core import Context, DensityMatrix, ObservableBasis
from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    ZeroInformationError,
)
from .measures import incompatibility_report
from .mubsearch import SearchConfig, maximize_incompatibility
from .protocol import noise_sweep, stinespring_ledger

EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_GRID = 4
EXIT_PROTOCOL = 5
EXIT_SEARCH = 6
EXIT_GEOMETRY = 7

# top of the documented range; the search's generator set grows as d^4
MAX_MUB_DIM = 16

SEED_ENV_VAR = "QINCOMPAT_SEED"
DOCUMENT_VERSION = "1"


class DocumentError(ValueError):
    """The context document is structurally unreadable."""


def _complex_matrix(raw, name: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{name}: entries must be [re, im] number pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise DocumentError(f"{name}: expected a square matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def load_context_document(path: str) -> Context:
    """Parse and validate a JSON context document."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    if str(doc.get("version")) != DOCUMENT_VERSION:
        raise DocumentError(f"unsupported document version {doc.get('version')!r}")
    for key in ("dim", "rho", "x_basis", "y_basis"):
        if key not in doc:
            raise DocumentError(f"missing required key {key!r}")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise DocumentError(f"dim must be an integer >= 2, got {dim!r}")

    rho = _complex_matrix(doc["rho"], "rho")
    x_cols = _complex_matrix(doc["x_basis"], "x_basis")
    y_cols = _complex_matrix(doc["y_basis"], "y_basis")
    if rho.shape != (dim, dim):
        raise DocumentError(f"rho has shape {rho.shape}, expected ({dim}, {dim})")

    def eigenvalues(key: str):
        if key not in doc:
            return None
        vals = np.asarray(doc[key], dtype=float)
        if vals.shape != (dim,):
            raise DocumentError(f"{key} must list {dim} numbers")
        return vals

    state = DensityMatrix(rho)
    x_basis = ObservableBasis(x_cols, eigenvalues("x_eigenvalues"))
    y_basis = ObservableBasis(y_cols, eigenvalues("y_eigenvalues"))
    return Context(state, x_basis, y_basis)


def _sig(value: float, bits: bool = False) -> float:
    if bits:
        value = value / math.log(2.0)
    return float(f"{value:.12g}")


def _fixed(value: float) -> float:
    return float(f"{value:.12f}")


def cmd_measure(args) -> int:
    ctx = load_context_document(args.input)
    try:
        report = incompatibility_report(ctx)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
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
        raise DocumentError(f"grid spec must be log:<lo>:<hi>:<n> or lin:<lo>:<hi>:<n>, got {spec!r}")
    try:
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise DocumentError(f"malformed grid spec {spec!r}") from exc
    # written so that NaN fails it too
    if count < 1 or not (0 < lo <= hi <= 1):
        raise DocumentError(f"grid spec {spec!r} out of range")
    if parts[0] == "log":
        return np.logspace(math.log10(lo), math.log10(hi), count)
    return np.linspace(lo, hi, count)


def cmd_sweep(args) -> int:
    try:
        grid = _parse_grid(args.eps_grid)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRID
    ctx = load_context_document(args.input)
    try:
        points = noise_sweep(ctx, grid)
    except (ZeroInformationError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    print("epsilon,i_initial,i_final,ratio")
    for point in points:
        print(
            f"{_sig(point.epsilon)},{_sig(point.i_initial_eps, args.bits)},"
            f"{_sig(point.i_final_eps, args.bits)},{_sig(point.ratio_eps)}"
        )
    return 0


def cmd_protocol(args) -> int:
    ctx = load_context_document(args.input)
    try:
        ledger = stinespring_ledger(ctx)
    except (ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
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
    try:
        config = SearchConfig(
            dim=args.dim,
            restarts=args.restarts,
            max_iters=args.max_iters,
            seed=seed,
        )
        result = maximize_incompatibility(ObservableBasis.computational(args.dim), config)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH
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
    try:
        gens = build_generators(ctx.dim)
        r = state_to_bloch(ctx.state, gens)
        xframe = basis_to_bloch_frame(ctx.first, gens)
        yframe = basis_to_bloch_frame(ctx.second, gens)
        u, v = geometric_maps(r, xframe, yframe)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    xs = np.stack([x.r for x in xframe])
    ys = np.stack([y.r for y in yframe])
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
    p_measure.set_defaults(func=cmd_measure)

    p_sweep = sub.add_parser("sweep", help="noise sweep as CSV")
    p_sweep.add_argument("input", help="context document path")
    p_sweep.add_argument(
        "--eps-grid", default="log:1e-4:1:20", help="log:<lo>:<hi>:<n> or lin:<lo>:<hi>:<n>"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_protocol = sub.add_parser("protocol", help="dilated interception ledger")
    p_protocol.add_argument("input", help="context document path")
    p_protocol.set_defaults(func=cmd_protocol)

    p_mub = sub.add_parser("mub", help="search an unbiased partner basis")
    p_mub.add_argument("--dim", type=int, required=True)
    p_mub.add_argument("--restarts", type=int, default=20)
    p_mub.add_argument("--max-iters", type=int, default=300)
    p_mub.add_argument(
        "--seed", type=int, default=None, help=f"defaults to ${SEED_ENV_VAR} or 0"
    )
    p_mub.set_defaults(func=cmd_mub)

    p_bloch = sub.add_parser("bloch", help="Bloch vectors and frame dot products")
    p_bloch.add_argument("input", help="context document path")
    p_bloch.set_defaults(func=cmd_bloch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvariantViolationError, DimensionMismatchError) as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
