"""Incompatibility measures of a context and the free-context classifier.

The central quantity is the information consumed from a system when the
second observable is measured after the first: the entropy gap between the
once- and twice-dephased states. A context carries no such resource exactly
when the observables commute or when the first measurement already leaves
the state maximally mixed; ``classify_context`` separates the two free
cases from everything else.

Every context measure is a closed form in the Born distribution p of the
first basis, the transition matrix T_jk = |<x_j|y_k>|^2 and q = T^T p, all
computed by ``_distributions``; no dephased state is built for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    _dephase_matrix,
    _require_same_dim,
    dephase,
    hs_norm_sq,
    outcome_probabilities,
    relative_entropy,
    shannon_entropy,
    transition_matrix,
    von_neumann_entropy,
)
from .errors import (
    ChannelValidationError,
    CrossCheckError,
    ZeroInformationError,
)

COMMUTATION_TOL = 1e-10
ZERO_INFO_NORM_TOL = 1e-10
ZERO_INFO_DENOMINATOR_TOL = 1e-12
ALGEBRAIC_AGREEMENT_TOL = 1e-12
CHANNEL_STRUCTURE_TOL = 1e-10
CHANNEL_COMMUTATION_TOL = 1e-9
MONOTONICITY_SLACK = 1e-9


class ContextClass(Enum):
    """Free/resourceful classification of a context."""

    FREE_COMMUTING = "FREE_COMMUTING"
    FREE_ZERO_INFO = "FREE_ZERO_INFO"
    RESOURCEFUL = "RESOURCEFUL"


@dataclass(frozen=True)
class IncompatibilityReport:
    """All measures of one context in a single record.

    ``ratio`` is None exactly when the first measurement leaves the state
    maximally mixed, which makes the leakage ratio undefined.
    """

    i_context: float
    i_initial: float
    i_final: float
    ratio: float | None
    m_measurement: float
    classification: ContextClass


def _distributions(ctx: Context) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, T, q): the Born distribution in the first basis, the transition
    matrix, and q = T^T p, the distribution after both measurements."""
    p = outcome_probabilities(ctx.state, ctx.first)
    trans = transition_matrix(ctx.first, ctx.second)
    return p, trans, trans.T @ p


def _overlap_form(trans: np.ndarray) -> float:
    """Measurement incompatibility (d - sum T_jk^2) / (d - 1) of a transition matrix."""
    d = trans.shape[0]
    return (d - float(np.sum(trans * trans))) / (d - 1)


def _spread_sq(p: np.ndarray) -> float:
    """||p - 1/d||^2, which equals ||sigma - I/d||^2 for the dephased state."""
    return float(np.sum((p - 1.0 / len(p)) ** 2))


def _leakage(p: np.ndarray, trans: np.ndarray, q: np.ndarray) -> float:
    """sum_jk T_jk (p_j - q_k)^2 / ||p - 1/d||^2, zero information rejected."""
    denominator = _spread_sq(p)
    if denominator <= ZERO_INFO_DENOMINATOR_TOL:
        raise ZeroInformationError(
            "dephased state is maximally mixed; leakage ratio undefined"
        )
    return float(np.sum(trans * (p[:, None] - q) ** 2)) / denominator


def context_incompatibility(ctx: Context) -> float:
    """Information consumed by the second measurement, in nats.

    Computed as the Shannon-entropy gap H(q) - H(p) between the composed
    outcome distribution and the first-measurement distribution. This route
    is always finite; the operator relative entropy agrees with it whenever
    that form is finite.
    """
    p, _, q = _distributions(ctx)
    return shannon_entropy(q) - shannon_entropy(p)


def coherence_form(ctx: Context) -> float:
    """Same resource, expressed as coherence left in the dephased state.

    Evaluates the relative entropy between the once-dephased state and its
    dephasing in the second basis. Falls back to the entropy difference in
    the (measure-zero) event the operator form reports a support mismatch.
    """
    sigma = dephase(ctx.state, ctx.first)
    tau = dephase(sigma, ctx.second)
    value = relative_entropy(sigma, tau)
    if math.isinf(value):
        return von_neumann_entropy(tau) - von_neumann_entropy(sigma)
    return value


def leakage_ratio(ctx: Context) -> float:
    """Extracted over injected information in the large-noise limit.

    The squared Hilbert-Schmidt norm ratio ||tau - sigma||^2 / ||sigma - I/d||^2
    of the once- and twice-dephased states, in [0, 1], evaluated as
    sum_jk T_jk (p_j - q_k)^2 / ||p - 1/d||^2. Undefined (raises) when the
    first measurement leaves the state maximally mixed (denominator <= 1e-12).
    """
    return _leakage(*_distributions(ctx))


def eigenstate_ratio(j: int, first: ObservableBasis, second: ObservableBasis) -> float:
    """Leakage ratio of the context built on the j-th eigenstate of
    ``first`` (zero-based index).

    Equals (d/(d-1)) times the linear entropy of the dephased projector,
    which only needs one row of the transition matrix.
    """
    _require_same_dim(first.dim, second.dim)
    d = first.dim
    if not 0 <= j < d:
        raise IndexError(f"eigenstate index {j} out of range for dimension {d}")
    row = transition_matrix(first, second)[j]
    return d / (d - 1) * (1.0 - float(row @ row))


def measurement_incompatibility(first: ObservableBasis, second: ObservableBasis) -> float:
    """State-independent incompatibility of an observable pair, in [0, 1].

    The squared-overlap form (d - sum_jk T_jk^2) / (d - 1). It equals the
    average of the per-eigenstate leakage ratios and the projector-commutator
    form sum_jk ||[P_j, Q_k]||^2 / (2(d - 1)). Zero only for commuting pairs,
    one only for mutually unbiased eigenbases; symmetric under swapping the
    pair.
    """
    return _overlap_form(transition_matrix(first, second))


def algebraic_incompatibility(first: ObservableBasis, second: ObservableBasis) -> float:
    """Deficit of the projector-product array from the commuting case.

    Builds the d x d array of operator products P_j Q_k explicitly and
    measures d minus the sum of Tr[(P_j Q_k)^2]. Kept deliberately
    independent of the overlap shortcut so it can serve as an oracle for
    ``measurement_incompatibility``; the two are tied by a factor d - 1
    and that relation is verified on every call.
    """
    _require_same_dim(first.dim, second.dim)
    d = first.dim
    products = np.einsum(
        "jab,kbc->jkac", first.projectors(), second.projectors()
    )
    traces = np.real(np.einsum("jkab,jkba->jk", products, products))
    deficit = d - float(traces.sum())
    m_value = measurement_incompatibility(first, second)
    if abs(m_value - deficit / (d - 1)) > ALGEBRAIC_AGREEMENT_TOL:
        raise CrossCheckError(
            f"algebraic deficit {deficit / (d - 1)!r} disagrees with "
            f"measurement incompatibility {m_value!r}"
        )
    return deficit


def classify_context(ctx: Context) -> ContextClass:
    """Sort a context into its free class, or RESOURCEFUL.

    Commutation is decided on the eigenvalue-weighted observable matrices
    at Hilbert-Schmidt norm 1e-10 and is checked first; a context that is
    free both ways reports FREE_COMMUTING. Zero information means
    ||p - 1/d|| <= 1e-10, which is the distance of the dephased state from
    the maximally mixed one.
    """
    return _classify(ctx, _distributions(ctx)[0])


def _classify(ctx: Context, p: np.ndarray) -> ContextClass:
    x_mat = ctx.first.matrix()
    y_mat = ctx.second.matrix()
    if math.sqrt(hs_norm_sq(x_mat @ y_mat - y_mat @ x_mat)) <= COMMUTATION_TOL:
        return ContextClass.FREE_COMMUTING
    if math.sqrt(_spread_sq(p)) <= ZERO_INFO_NORM_TOL:
        return ContextClass.FREE_ZERO_INFO
    return ContextClass.RESOURCEFUL


def apply_kraus(matrix: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    """sum_k K_k M K_k^dagger on a raw matrix."""
    return sum(k @ matrix @ k.conj().T for k in kraus)


def depolarizing_kraus(dim: int, weight: float) -> list[np.ndarray]:
    """Kraus operators of rho -> (1 - weight) rho + weight * identity/d.

    Built from the Weyl shift-and-phase unitaries, so the channel is unital
    at every dimension and commutes with every dephasing map.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    phase = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    ops = []
    for a in range(dim):
        for b in range(dim):
            coeff = weight / dim**2
            if a == 0 and b == 0:
                coeff += 1.0 - weight
            ops.append(
                math.sqrt(coeff)
                * np.linalg.matrix_power(shift, a)
                @ np.linalg.matrix_power(phase, b)
            )
    return ops


def validate_free_operation(
    kraus: list[np.ndarray], first: ObservableBasis, second: ObservableBasis
) -> None:
    """Check that a Kraus channel qualifies as a free operation.

    Requires unitality, trace preservation, and commutation with both the
    single and the sequential dephasing map, tested on the full basis of
    matrix units. Raises ChannelValidationError naming the first violated
    condition.
    """
    d = first.dim
    identity = np.eye(d)
    if any(k.shape != (d, d) for k in kraus):
        raise ChannelValidationError("Kraus operators have the wrong shape")
    unital = sum(k @ k.conj().T for k in kraus)
    if np.max(np.abs(unital - identity)) > CHANNEL_STRUCTURE_TOL:
        raise ChannelValidationError("channel is not unital")
    trace_pres = sum(k.conj().T @ k for k in kraus)
    if np.max(np.abs(trace_pres - identity)) > CHANNEL_STRUCTURE_TOL:
        raise ChannelValidationError("channel is not trace preserving")

    def _sequential(mat: np.ndarray) -> np.ndarray:
        return _dephase_matrix(_dephase_matrix(mat, first), second)

    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[a, b] = 1.0
            gap_first = apply_kraus(_dephase_matrix(unit, first), kraus) - _dephase_matrix(
                apply_kraus(unit, kraus), first
            )
            if math.sqrt(hs_norm_sq(gap_first)) > CHANNEL_COMMUTATION_TOL:
                raise ChannelValidationError(
                    "channel does not commute with the first dephasing map"
                )
            gap_seq = apply_kraus(_sequential(unit), kraus) - _sequential(
                apply_kraus(unit, kraus)
            )
            if math.sqrt(hs_norm_sq(gap_seq)) > CHANNEL_COMMUTATION_TOL:
                raise ChannelValidationError(
                    "channel does not commute with the sequential dephasing map"
                )


def monotonicity_check(ctx: Context, kraus: list[np.ndarray]) -> tuple[float, float]:
    """Context incompatibility before and after a validated free operation.

    The channel is validated rather than trusted; a valid free operation
    can never increase the resource, and that is enforced at slack 1e-9.
    """
    validate_free_operation(kraus, ctx.first, ctx.second)
    before = context_incompatibility(ctx)
    mapped = DensityMatrix(apply_kraus(ctx.state.entries, kraus))
    after = context_incompatibility(Context(mapped, ctx.first, ctx.second))
    if after > before + MONOTONICITY_SLACK:
        raise CrossCheckError(
            f"free operation increased the resource: {before!r} -> {after!r}"
        )
    return before, after


def incompatibility_report(ctx: Context) -> IncompatibilityReport:
    """Compute every measure of a context from one (p, T, q) evaluation."""
    p, trans, q = _distributions(ctx)
    i_initial = math.log(ctx.dim) - shannon_entropy(p)
    i_final = math.log(ctx.dim) - shannon_entropy(q)
    try:
        ratio: float | None = _leakage(p, trans, q)
    except ZeroInformationError:
        ratio = None
    return IncompatibilityReport(
        i_context=i_initial - i_final,
        i_initial=i_initial,
        i_final=i_final,
        ratio=ratio,
        m_measurement=_overlap_form(trans),
        classification=_classify(ctx, p),
    )
