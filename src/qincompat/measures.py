"""Incompatibility measures of a context and the free-context classifier.

The central quantity is the information consumed from a system when the
second observable is measured after the first: the entropy gap between the
once- and twice-dephased states. A context carries no such resource exactly
when the observables commute or when the first measurement already leaves
the state maximally mixed; ``classify_context`` separates the two free
cases from everything else.

Every context measure is a closed form in the Born distribution p of the
first basis, the transition matrix T_jk = |<x_j|y_k>|^2 and q = T^T p; no
dephased state is built for them. The context computes these, and the
informations ln d - H(p) and ln d - H(q), once into its read-only record,
which every measure here reads.
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
    _ContextRecord,
    _require_same_dim,
    transition_matrix,
)
from .errors import (
    ChannelValidationError,
    CrossCheckError,
    ZeroInformationError,
)

COMMUTATION_TOL = 1e-10
ZERO_INFO_NORM_TOL = 1e-10
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


def _overlap_form(trans: np.ndarray) -> float:
    """Measurement incompatibility (d - sum T_jk^2) / (d - 1) of a transition
    matrix, clamped to [0, 1] against rounding at either end."""
    d = trans.shape[0]
    # the method form skips np.sum's dispatch: every report calls this
    value = (d - float((trans * trans).sum())) / (d - 1)
    return min(max(value, 0.0), 1.0)


def _commutator_norm(trans: np.ndarray) -> float:
    """sqrt(sum_jk ||[P_j, Q_k]||^2) = sqrt(2 sum_j sum_{k != l} T_jk T_jl), the
    sum over l != k taken as T (1 - I) with 1 the all-ones matrix: unlike 1 - T_jk
    or d - sum T^2, it leaves no ~1e-14 squared rounding on commuting pairs."""
    others = trans @ (1.0 - np.eye(trans.shape[0]))
    return math.sqrt(2.0 * float((trans * others).sum()))


def _spread_sq(p: np.ndarray) -> float:
    """||p - 1/d||^2, which equals ||sigma - I/d||^2 for the dephased state."""
    return float(((p - 1.0 / len(p)) ** 2).sum())


def _leakage(record: _ContextRecord) -> float:
    """sum_jk T_jk (p_j - q_k)^2 / ||p - 1/d||^2, zero information rejected."""
    denominator = _spread_sq(record.p)
    if math.sqrt(denominator) <= ZERO_INFO_NORM_TOL:
        raise ZeroInformationError(
            "dephased state is maximally mixed; leakage ratio undefined"
        )
    return float((record.trans * (record.p[:, None] - record.q) ** 2).sum()) / denominator


def context_incompatibility(ctx: Context) -> float:
    """Information consumed by the second measurement, in nats.

    The Shannon-entropy gap H(q) - H(p) between the composed outcome
    distribution and the first-measurement distribution, taken as the
    information difference that ``incompatibility_report`` reports. This route
    is always finite; the operator relative entropy agrees with it whenever
    that form is finite.
    """
    return ctx._record.i_initial - ctx._record.i_final


def leakage_ratio(ctx: Context) -> float:
    """Extracted over injected information in the large-noise limit.

    The squared Hilbert-Schmidt norm ratio ||tau - sigma||^2 / ||sigma - I/d||^2
    of the once- and twice-dephased states, in [0, 1], evaluated as
    sum_jk T_jk (p_j - q_k)^2 / ||p - 1/d||^2. Undefined (raises) when the
    first measurement leaves the state maximally mixed, ||p - 1/d|| <= 1e-10,
    the same zero-information rule as ``classify_context``.
    """
    return _leakage(ctx._record)


def eigenstate_ratio(j: int, first: ObservableBasis, second: ObservableBasis) -> float:
    """Leakage ratio of the context built on the j-th eigenstate of
    ``first`` (zero-based index).

    Equals (d/(d-1)) times the linear entropy of the dephased projector,
    which only needs one row of the transition matrix; clamped to [0, 1]
    against rounding at either end. A non-integer index, booleans included,
    raises TypeError.
    """
    _require_same_dim(first.dim, second.dim)
    d = first.dim
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
        raise TypeError(f"eigenstate index must be an integer, got {j!r}")
    if not 0 <= j < d:
        raise IndexError(f"eigenstate index {j} out of range for dimension {d}")
    row = transition_matrix(first, second)[j]
    return min(max(d / (d - 1) * (1.0 - float(row @ row)), 0.0), 1.0)


def measurement_incompatibility(first: ObservableBasis, second: ObservableBasis) -> float:
    """State-independent incompatibility of an observable pair, in [0, 1].

    The squared-overlap form (d - sum_jk T_jk^2) / (d - 1), clamped to
    [0, 1] so rounding never leaves the documented range. It equals the
    average of the per-eigenstate leakage ratios and the projector-commutator
    form sum_jk ||[P_j, Q_k]||^2 / (2(d - 1)). Zero only for commuting pairs,
    one only for mutually unbiased eigenbases; symmetric under swapping the
    pair.
    """
    return _overlap_form(transition_matrix(first, second))


def classify_context(ctx: Context) -> ContextClass:
    """Sort a context into its free class, or RESOURCEFUL, from (p, T) alone.

    Commutation means the eigenprojectors commute: the projector-commutator
    norm sqrt(sum_jk ||[P_j, Q_k]||^2), read off T, is at most 1e-10. It is
    checked first; a context that is free both ways reports FREE_COMMUTING.
    Zero information means ||p - 1/d|| <= 1e-10, which is the distance of
    the dephased state from the maximally mixed one. Eigenvalues play no
    part in either test.
    """
    return _classify(ctx._record)


def _classify(record: _ContextRecord) -> ContextClass:
    if _commutator_norm(record.trans) <= COMMUTATION_TOL:
        return ContextClass.FREE_COMMUTING
    if math.sqrt(_spread_sq(record.p)) <= ZERO_INFO_NORM_TOL:
        return ContextClass.FREE_ZERO_INFO
    return ContextClass.RESOURCEFUL


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


def _transfer_matrix(ops: np.ndarray) -> np.ndarray:
    """S = sum_k K_k (x) conj(K_k) of stacked (n, d, d) Kraus operators, from
    one product of their (n, d^2) rows: vec(A M B) = (A (x) B^T) vec(M) under
    row-major vec, so S vec(M) = vec(sum_k K_k M K_k^dagger)."""
    n, d, _ = ops.shape
    rows = ops.reshape(n, d * d)
    pairs = (rows.T @ rows.conj()).reshape(d, d, d, d)
    return pairs.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _commutation_gaps(
    transfer: np.ndarray, first: ObservableBasis, second: ObservableBasis
) -> list[np.ndarray]:
    """Hilbert-Schmidt norms of Phi(D(E_u)) - D(Phi(E_u)) on every matrix
    unit E_u, in row-major order, for D the first and then the sequential
    dephasing map: the column norms of S D - D S."""
    dephasings = [_transfer_matrix(first.projectors())]
    dephasings.append(_transfer_matrix(second.projectors()) @ dephasings[0])
    return [np.linalg.norm(transfer @ m - m @ transfer, axis=0) for m in dephasings]


def validate_free_operation(
    kraus: list[np.ndarray], first: ObservableBasis, second: ObservableBasis
) -> None:
    """Check that a Kraus channel qualifies as a free operation.

    Reads each condition off the channel's d^2 x d^2 transfer matrix S, in
    this order: d x d operators, finite entries, unitality S vec(I) = vec(I)
    and trace preservation vec(I)^T S = vec(I)^T (entrywise to 1e-10), then
    commutation with the first dephasing map on every matrix unit before the
    sequential one (Hilbert-Schmidt gap 1e-9 per unit). Raises
    DimensionMismatchError for bases of two dimensions, before any of these,
    and ChannelValidationError naming the first violated condition.
    """
    _validated_transfer(kraus, first, second)


def _validated_transfer(
    kraus: list[np.ndarray], first: ObservableBasis, second: ObservableBasis
) -> np.ndarray:
    """``validate_free_operation``, returning the transfer matrix S it checked."""
    _require_same_dim(first.dim, second.dim)
    d = first.dim
    if any(np.shape(k) != (d, d) for k in kraus):
        raise ChannelValidationError("Kraus operators have the wrong shape")
    ops = np.array(kraus, dtype=complex).reshape(len(kraus), d, d)
    # every tolerance check below is false for NaN, so test finiteness first
    if not np.isfinite(ops).all():
        raise ChannelValidationError("Kraus operators have non-finite entries")
    transfer = _transfer_matrix(ops)
    vec_identity = np.eye(d).ravel()
    if np.max(np.abs(transfer @ vec_identity - vec_identity)) > CHANNEL_STRUCTURE_TOL:
        raise ChannelValidationError("channel is not unital")
    if np.max(np.abs(vec_identity @ transfer - vec_identity)) > CHANNEL_STRUCTURE_TOL:
        raise ChannelValidationError("channel is not trace preserving")
    gaps = _commutation_gaps(transfer, first, second)
    for name, unit_gaps in zip(("first", "sequential"), gaps):
        if unit_gaps.max() > CHANNEL_COMMUTATION_TOL:
            raise ChannelValidationError(
                f"channel does not commute with the {name} dephasing map"
            )
    return transfer


def monotonicity_check(ctx: Context, kraus: list[np.ndarray]) -> tuple[float, float]:
    """Context incompatibility before and after a validated free operation.

    The channel is validated rather than trusted, then applied as S vec(rho)
    with its transfer matrix S; a valid free operation can never increase
    the resource, and that is enforced at slack 1e-9.
    """
    transfer = _validated_transfer(kraus, ctx.first, ctx.second)
    before = context_incompatibility(ctx)
    mapped = DensityMatrix((transfer @ ctx.state.entries.ravel()).reshape(ctx.dim, ctx.dim))
    after = context_incompatibility(Context(mapped, ctx.first, ctx.second))
    if after > before + MONOTONICITY_SLACK:
        raise CrossCheckError(
            f"free operation increased the resource: {before!r} -> {after!r}"
        )
    return before, after


def incompatibility_report(ctx: Context) -> IncompatibilityReport:
    """Compute every measure of a context from its (p, T, q) record."""
    record = ctx._record
    try:
        ratio: float | None = _leakage(record)
    except ZeroInformationError:
        ratio = None
    return IncompatibilityReport(
        i_context=record.i_initial - record.i_final,
        i_initial=record.i_initial,
        i_final=record.i_final,
        ratio=ratio,
        m_measurement=_overlap_form(record.trans),
        classification=_classify(record),
    )
