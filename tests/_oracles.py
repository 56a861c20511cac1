"""Operator-level reference routes for the closed-form measures.

The library computes every context measure, and the free-context class,
from the distributions (p, T, q), and checks free operations on d^2 x d^2
transfer matrices. The routes here build the operators instead: projector
commutators, dephased density matrices, the d^2 x d^2 controlled-shift
dilation, and Kraus operators applied to each matrix unit. The tests
compare the library against them, each to the tolerance named below.
"""

import math

import numpy as np

from qincompat.core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    dephase,
    hs_norm_sq,
    information,
    shannon_entropy,
    von_neumann_entropy,
)
from qincompat.measures import (
    CHANNEL_COMMUTATION_TOL,
    CHANNEL_STRUCTURE_TOL,
    COMMUTATION_TOL,
    ZERO_INFO_NORM_TOL,
    ContextClass,
)
from qincompat.protocol import LedgerEntry

FORM_AGREEMENT_TOL = 1e-10
RATIO_INVARIANCE_TOL = 1e-9
# below this denominator the eps^2 scaling of a noisy context starves the
# operator ratio of float precision
NORM_CHECK_FLOOR = 1e-9
DILATION_TRACE_TOL = 1e-10
TRANSFER_AGREEMENT_TOL = 1e-12


def commutator_incompatibility(first: ObservableBasis, second: ObservableBasis) -> float:
    """sum_jk ||[P_j, Q_k]||^2 / (2(d - 1)) from the eigenprojectors."""
    d = first.dim
    proj_first = first.projectors()
    proj_second = second.projectors()
    commutators = np.einsum("jab,kbc->jkac", proj_first, proj_second) - np.einsum(
        "kab,jbc->jkac", proj_second, proj_first
    )
    return float(np.sum(np.abs(commutators) ** 2)) / (2 * (d - 1))


def operator_leakage(ctx: Context) -> tuple[float, float]:
    """(||tau - sigma||^2, ||sigma - I/d||^2) of the once- and twice-dephased
    states; their quotient is the leakage ratio."""
    sigma = dephase(ctx.state, ctx.first)
    tau = dephase(sigma, ctx.second)
    d = ctx.dim
    return (
        hs_norm_sq(tau.entries - sigma.entries),
        hs_norm_sq(sigma.entries - np.eye(d) / d),
    )


def projector_commutator_norm(first: ObservableBasis, second: ObservableBasis) -> float:
    """sqrt(sum_jk ||[P_j, Q_k]||^2) from the eigenprojectors."""
    return math.sqrt(2 * (first.dim - 1) * commutator_incompatibility(first, second))


def operator_classification(ctx: Context) -> ContextClass:
    """The free-context classifier on operators: commutation decided on the
    projector commutators, zero information on ||sigma - I/d||."""
    if projector_commutator_norm(ctx.first, ctx.second) <= COMMUTATION_TOL:
        return ContextClass.FREE_COMMUTING
    _, spread = operator_leakage(ctx)
    if math.sqrt(spread) <= ZERO_INFO_NORM_TOL:
        return ContextClass.FREE_ZERO_INFO
    return ContextClass.RESOURCEFUL


def dilation_ledger(ctx: Context, direction: int = 1) -> tuple[LedgerEntry, np.ndarray]:
    """Ledger of an explicit controlled-shift dilation, and the system's
    reduced state after it.

    The pointer starts pure in its first level; outcome k of the second
    observable shifts it by ``direction`` * k (mod d). ``direction`` = 1 is
    the dilation that ``stinespring_ledger`` describes in closed form; -1
    reverses the shift, which may move the split between the pointer's
    change and the correlations but not their sum.
    """
    d = ctx.dim
    sigma = dephase(ctx.state, ctx.first)
    cols = ctx.second.vectors

    coupling = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        projector = np.outer(cols[:, k], cols[:, k].conj())
        shift = np.zeros((d, d))
        shift[(np.arange(d) + direction * k) % d, np.arange(d)] = 1.0
        coupling += np.kron(projector, shift)

    pointer0 = np.zeros((d, d), dtype=complex)
    pointer0[0, 0] = 1.0
    joint = coupling @ np.kron(sigma.entries, pointer0) @ coupling.conj().T

    blocks = joint.reshape(d, d, d, d)
    system = np.einsum("ikjk->ij", blocks)
    pointer = np.einsum("ikil->kl", blocks)

    entropy_system = von_neumann_entropy(DensityMatrix(system))
    entropy_pointer = von_neumann_entropy(DensityMatrix(pointer))
    entropy_joint = shannon_entropy(np.linalg.eigvalsh(joint))
    # pointer starts pure: its information change is minus its final entropy
    entry = LedgerEntry(
        i_initial=information(sigma),
        i_final=math.log(d) - entropy_system,
        delta_apparatus=-entropy_pointer,
        mutual_info=entropy_system + entropy_pointer - entropy_joint,
    )
    return entry, system


def apply_kraus(matrix: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    """sum_k K_k M K_k^dagger on a raw matrix."""
    return sum(k @ matrix @ k.conj().T for k in kraus)


def dephase_matrix(matrix: np.ndarray, basis: ObservableBasis) -> np.ndarray:
    """sum_j P_j M P_j for a raw (not necessarily Hermitian) matrix."""
    cols = basis.vectors
    diag = np.einsum("aj,ab,bj->j", cols.conj(), matrix, cols)
    return (cols * diag) @ cols.conj().T


def matrix_unit_gaps(
    kraus: list[np.ndarray], first: ObservableBasis, second: ObservableBasis
) -> tuple[np.ndarray, np.ndarray]:
    """Hilbert-Schmidt norms of the channel's commutation gaps with the first
    and with the sequential dephasing map, on each matrix unit E_ab in
    row-major order, from every Kraus operator applied to the unit."""

    def sequential(mat: np.ndarray) -> np.ndarray:
        return dephase_matrix(dephase_matrix(mat, first), second)

    d = first.dim
    gaps_first, gaps_seq = [], []
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[a, b] = 1.0
            gap_first = apply_kraus(dephase_matrix(unit, first), kraus) - dephase_matrix(
                apply_kraus(unit, kraus), first
            )
            gap_seq = apply_kraus(sequential(unit), kraus) - sequential(
                apply_kraus(unit, kraus)
            )
            gaps_first.append(math.sqrt(hs_norm_sq(gap_first)))
            gaps_seq.append(math.sqrt(hs_norm_sq(gap_seq)))
    return np.array(gaps_first), np.array(gaps_seq)


def matrix_unit_verdict(
    kraus: list[np.ndarray], first: ObservableBasis, second: ObservableBasis
) -> str | None:
    """The message of the first condition the matrix-unit check finds
    violated, or None: unitality and trace preservation from the operator
    sums, then the two commutation gaps unit by unit, interleaved."""
    d = first.dim
    identity = np.eye(d)
    if any(k.shape != (d, d) for k in kraus):
        return "Kraus operators have the wrong shape"
    if np.max(np.abs(sum(k @ k.conj().T for k in kraus) - identity)) > CHANNEL_STRUCTURE_TOL:
        return "channel is not unital"
    if np.max(np.abs(sum(k.conj().T @ k for k in kraus) - identity)) > CHANNEL_STRUCTURE_TOL:
        return "channel is not trace preserving"
    for gap_first, gap_seq in zip(*matrix_unit_gaps(kraus, first, second)):
        if gap_first > CHANNEL_COMMUTATION_TOL:
            return "channel does not commute with the first dephasing map"
        if gap_seq > CHANNEL_COMMUTATION_TOL:
            return "channel does not commute with the sequential dephasing map"
    return None
