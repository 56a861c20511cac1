"""Operator-level reference routes for the closed-form measures.

The library computes every context measure from the distributions (p, T, q).
The routes here build the operators instead: projector commutators, dephased
density matrices and the d^2 x d^2 controlled-shift dilation. The tests
compare the closed forms against them, each to the tolerance named below.
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
from qincompat.measures import COMMUTATION_TOL, ZERO_INFO_NORM_TOL, ContextClass
from qincompat.protocol import LedgerEntry

FORM_AGREEMENT_TOL = 1e-10
RATIO_INVARIANCE_TOL = 1e-9
# below this denominator the eps^2 scaling of a noisy context starves the
# operator ratio of float precision
NORM_CHECK_FLOOR = 1e-9
DILATION_TRACE_TOL = 1e-10


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


def operator_classification(ctx: Context) -> ContextClass:
    """The free-context classifier with zero information decided on ||sigma - I/d||."""
    x_mat = ctx.first.matrix()
    y_mat = ctx.second.matrix()
    if math.sqrt(hs_norm_sq(x_mat @ y_mat - y_mat @ x_mat)) <= COMMUTATION_TOL:
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
