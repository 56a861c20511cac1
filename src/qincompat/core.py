"""States, sharp observables, entropies, and projective dephasing channels.

Conventions used throughout the package:

* all entropic quantities are in nats (natural logarithm);
* observable eigenbases are stored as the columns of a unitary matrix;
* values are immutable and functions pure; a context computes its record of
  measures once, on first use, and the record is read-only and idempotent,
  so concurrent sweeps may share a context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_CLIP = 1e-10
GRAM_TOL = 1e-10
# above the rounding left in the bases built here (Haar draws at d = 16 reach
# 2.4e-15, the MUB search's final iterates 1.4e-14), below TRACE_TOL = 1e-12
_GRAM_ROUNDING = 1e-13
EIGENVALUE_SPACING_TOL = 1e-9
PROBABILITY_CLIP = 1e-12
PROBABILITY_SUM_TOL = 1e-10
# far above an accepted state's entries (at most 1 + d 1e-10 in modulus), so the
# specific diagnoses (not Hermitian, trace, negative eigenvalue) keep moderate entries
STATE_ENTRY_LIMIT = 1e150
ZERO_INFO_NORM_TOL = 1e-10
# eigvalsh is backward stable to O(d EPS ||rho||_2): eigenvalues in (-d EPS, 0) are 0
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class DensityMatrix:
    """A d-dimensional quantum state as a positive, unit-trace complex matrix.

    Construction validates finiteness, entry moduli (at most 1e150, so no
    check overflows), Hermiticity (entrywise, 1e-12), unit trace (1e-12) and
    positivity. Eigenvalues in [-1e-10, -d eps) are treated as numerical
    dust: they are clipped to zero and the spectrum renormalized. Anything
    more negative is rejected. Eigenvalues in [-d eps, 0) are the eigensolver's
    own rounding and leave the entries as given.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=complex)
        # an empty matrix would reach the reductions below with nothing to reduce
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.shape[0]:
            raise InvariantViolationError("state matrix must be square and non-empty")
        # every tolerance check below is false for NaN, so test finiteness first
        if not np.isfinite(mat).all():
            raise InvariantViolationError("state matrix has non-finite entries")
        # the Hermiticity difference and the trace of larger entries could overflow
        if np.abs(mat).max() > STATE_ENTRY_LIMIT:
            raise InvariantViolationError(
                f"state matrix has an entry of modulus above {STATE_ENTRY_LIMIT:g};"
                " a density matrix has none above 1"
            )
        if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL:
            raise InvariantViolationError("state matrix is not Hermitian")
        if abs(mat.trace() - 1.0) > TRACE_TOL:
            raise InvariantViolationError(
                f"state trace {float(mat.trace().real)!r} is not 1"
            )
        vals = np.linalg.eigvalsh(mat)
        if vals[0] < -EIGENVALUE_CLIP:
            raise InvariantViolationError(
                f"state has negative eigenvalue {vals[0]:.3e}"
            )
        if vals[0] < -mat.shape[0] * EPS:
            # rebuild from the clipped, renormalized spectrum
            vals, vecs = np.linalg.eigh(mat)
            vals = np.clip(vals, 0.0, None)
            vals /= vals.sum()
            mat = (vecs * vals) @ vecs.conj().T
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum."""
        return np.linalg.eigvalsh(self.entries)

    def purity(self) -> float:
        """Tr(rho^2), i.e. the squared Hilbert-Schmidt norm of the state."""
        return float(np.sum(np.abs(self.entries) ** 2))

    @classmethod
    def pure(cls, ket: np.ndarray) -> "DensityMatrix":
        """Projector onto a normalized copy of a finite, nonzero state vector."""
        parts = np.array(ket, dtype=complex).reshape(-1).view(float)
        if not np.isfinite(parts).all():
            raise InvariantViolationError("state vector has non-finite entries")
        top = np.abs(parts).max(initial=0.0)
        if top == 0.0:
            raise InvariantViolationError("cannot normalize the zero vector")
        # an exact power-of-two rescaling, so the norm can neither overflow nor underflow
        vec = np.ldexp(parts, -np.frexp(top)[1]).view(complex)
        vec = vec / np.linalg.norm(vec)
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class ObservableBasis:
    """A nondegenerate sharp observable: orthonormal eigenvectors plus
    distinct real eigenvalues.

    ``vectors`` holds the eigenvectors as the columns of a d x d matrix,
    validated to be finite and unitary (Gram matrix within 1e-10 of the
    identity). A Gram deviation above 1e-13, more than rounding leaves, is
    removed: the nearest unitary X (X^dagger X)^(-1/2) is stored, so the
    1e-12 trace and 1e-10 probability-sum checks downstream hold for every
    accepted basis. Below it the vectors are kept as given.
    Eigenvalues must be finite and distinct.
    Eigenvalues default to 1..d. They enter nothing but ``matrix()``: the
    incompatibility measures and the free-context classifier depend on the
    eigenprojectors only.
    """

    vectors: np.ndarray
    eigenvalues: np.ndarray | None = None

    def __post_init__(self) -> None:
        cols = np.array(self.vectors, dtype=complex)
        if cols.ndim != 2 or cols.shape[0] != cols.shape[1]:
            raise InvariantViolationError("eigenvector matrix must be square")
        d = cols.shape[0]
        if d < 2:
            raise InvariantViolationError("observables need at least two outcomes")
        if not np.isfinite(cols).all():
            raise InvariantViolationError("eigenvector matrix has non-finite entries")
        # a unitary's entries have modulus <= 1; a larger one could overflow the Gram product
        if np.abs(cols).max() > 1.0 + GRAM_TOL:
            raise InvariantViolationError("eigenvectors are not orthonormal")
        gram = cols.conj().T @ cols
        gram.flat[:: d + 1] -= 1.0
        deviation = np.abs(gram).max()
        if deviation > GRAM_TOL:
            raise InvariantViolationError("eigenvectors are not orthonormal")
        if deviation > _GRAM_ROUNDING:
            # (X^dagger X)^(-1/2) from the eigenpairs of X^dagger X - 1
            shifts, vecs = np.linalg.eigh(gram)
            cols = cols @ (vecs / np.sqrt(1.0 + shifts)) @ vecs.conj().T
        if self.eigenvalues is None:
            # the default 1..d is finite, of shape (d,) and spaced by 1
            vals = np.arange(1, d + 1, dtype=float)
        else:
            vals = np.array(self.eigenvalues, dtype=float)
            if not np.isfinite(vals).all():
                raise InvariantViolationError("observable eigenvalues must be finite")
            if vals.shape != (d,):
                raise InvariantViolationError(
                    f"expected {d} eigenvalues, got shape {vals.shape}"
                )
            scale = max(1.0, float(np.abs(vals).max()))
            # scaled before differencing, so eigenvalues near +-1e308 cannot overflow
            ordered = np.sort(vals / scale)
            if (ordered[1:] - ordered[:-1]).min() <= EIGENVALUE_SPACING_TOL:
                raise InvariantViolationError("observable eigenvalues are degenerate")
        cols.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "vectors", cols)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def projectors(self) -> np.ndarray:
        """Rank-1 eigenprojectors, shape (d, d, d) indexed by outcome."""
        return np.einsum("aj,bj->jab", self.vectors, self.vectors.conj())

    def matrix(self) -> np.ndarray:
        """The observable itself, sum of eigenvalue-weighted projectors."""
        return (self.vectors * self.eigenvalues) @ self.vectors.conj().T

    @classmethod
    def computational(cls, dim: int) -> "ObservableBasis":
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def fourier(cls, dim: int) -> "ObservableBasis":
        """Discrete-Fourier eigenbasis, unbiased to the computational one."""
        j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
        cols = np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)
        return cls(cols)


class _ContextRecord(NamedTuple):
    """Every context measure, computed once: T, the deviation rows d p - 1 and
    T^T (d p - 1) = d q - 1 for q = T^T p, I(p), I(q), I(p) - I(q) and the ratio."""

    trans: np.ndarray
    rows: np.ndarray
    i_initial: float
    i_final: float
    i_context: float
    ratio: float | None


def _context_record(trans: np.ndarray, alpha: np.ndarray) -> _ContextRecord:
    """The read-only record of T and alpha = d p - 1: I(p) - I(q) clamped at 0
    against rounding, and the ratio sum_jk T_jk (alpha_j - beta_k)^2 / ||alpha||^2,
    None under the zero-information rule ||p - 1/d|| = ||alpha|| / d <= 1e-10."""
    rows = np.array([alpha, trans.T @ alpha])
    for arr in (trans, rows):
        arr.setflags(write=False)
    i_initial, i_final = _information(rows).tolist()
    spread = float(alpha @ alpha)
    ratio = None
    if math.sqrt(spread) / len(alpha) > ZERO_INFO_NORM_TOL:
        ratio = float((trans * (alpha[:, None] - rows[1]) ** 2).sum()) / spread
    return _ContextRecord(trans, rows, i_initial, i_final, max(i_initial - i_final, 0.0), ratio)


@dataclass(frozen=True)
class Context:
    """A quantum state together with an ordered pair of sharp observables.

    The pair order matters: ``first`` is measured before ``second`` in every
    operation that consumes a context.
    """

    state: DensityMatrix
    first: ObservableBasis
    second: ObservableBasis

    def __post_init__(self) -> None:
        if not (self.state.dim == self.first.dim == self.second.dim):
            raise DimensionMismatchError(
                "state and observables must share one dimension, got "
                f"{self.state.dim}, {self.first.dim}, {self.second.dim}"
            )

    @property
    def dim(self) -> int:
        return self.state.dim

    @cached_property
    def _record(self) -> _ContextRecord:
        """Computed on first use; every array is read-only."""
        alpha = self.dim * outcome_probabilities(self.state, self.first) - 1.0
        return _context_record(transition_matrix(self.first, self.second), alpha)


def probability_vector(values: np.ndarray) -> np.ndarray:
    """Validate and clean a probability distribution.

    Entries above -1e-12 are clipped to zero; the sum must be within 1e-10
    of one.
    """
    probs = np.asarray(values, dtype=float)
    if not probs.size:
        raise InvariantViolationError("probabilities are empty")
    # the range checks below are false for NaN, so test finiteness first
    if not np.isfinite(probs).all():
        raise InvariantViolationError("probabilities have non-finite entries")
    if probs.min() < -PROBABILITY_CLIP:
        raise InvariantViolationError(
            f"probability {probs.min():.3e} is negative"
        )
    probs = np.maximum(probs, 0.0)
    if abs(probs.sum() - 1.0) > PROBABILITY_SUM_TOL:
        raise InvariantViolationError(
            f"probabilities sum to {float(probs.sum())!r}, not 1"
        )
    return probs


def shannon_entropy(probabilities: np.ndarray) -> float:
    """H(p) = -sum p ln p in nats, 0 ln 0 = 0, of a checked ``probability_vector``."""
    probs = probability_vector(probabilities)
    probs = probs[probs > 0.0]
    return float(-(probs * np.log(probs)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) in nats, computed from the spectrum."""
    return shannon_entropy(rho.eigenvalues())


def information(rho: DensityMatrix) -> float:
    """Informational content ln d - S(rho), in [0, ln d]."""
    return _information(rho.dim * rho.eigenvalues() - 1.0).tolist()


def _information(x: np.ndarray) -> np.ndarray:
    """ln d - H(p) along the last axis for p = (1 + x)/d: every information in
    the package, from the deviations x = d p - 1 of a stack of distributions.

    The Csiszar sum (1/d) sum_j phi(x_j), phi(x) = (1 + x) ln(1 + x) - x >= 0, is
    never negative, and exact near uniform with phi's series below |x| = 1e-3;
    x <= -1 (p = 0) gives phi(-1) = 1. Deviations summing to d m, not 0, give
    the renormalized p's information times 1 + m, plus m^2/2.
    """
    d = x.shape[-1]
    logs = np.log1p(x, out=np.zeros_like(x), where=x > -1.0)
    sq = x * x
    series = sq * (0.5 - x * (1 / 6 - x * (1 / 12 - x * (1 / 20 - x / 30))))
    return np.where(sq < 1e-6, series, (1.0 + x) * logs - x).sum(axis=-1) / d


def outcome_probabilities(rho: DensityMatrix, basis: ObservableBasis) -> np.ndarray:
    """Born probabilities p_j = <x_j| rho |x_j> of measuring ``basis`` on ``rho``,
    from one matrix product, as a checked ``probability_vector``."""
    _require_same_dim(rho.dim, basis.dim)
    cols = basis.vectors
    return probability_vector((cols.conj() * (rho.entries @ cols)).sum(axis=0).real)


def dephase(rho: DensityMatrix, basis: ObservableBasis) -> DensityMatrix:
    """Unrevealed projective measurement of ``basis`` on ``rho``.

    Removes all coherence in the measured eigenbasis, leaving the classical
    mixture sum_j p_j |x_j><x_j|. The map is unital, idempotent and entropy
    nondecreasing.
    """
    _require_same_dim(rho.dim, basis.dim)
    probs = outcome_probabilities(rho, basis)
    cols = basis.vectors
    return DensityMatrix((cols * probs) @ cols.conj().T)


def transition_matrix(first: ObservableBasis, second: ObservableBasis) -> np.ndarray:
    """Doubly stochastic matrix of squared overlaps.

    Entry [j, k] is the probability of outcome k of the second observable
    given the system sits in eigenstate j of the first.
    """
    _require_same_dim(first.dim, second.dim)
    overlaps = first.vectors.conj().T @ second.vectors
    return np.abs(overlaps) ** 2


def random_density_matrix(
    dim: int, rng: np.random.Generator, pure: bool = False
) -> DensityMatrix:
    """Random state: Haar-random pure, or normalized Ginibre GG^dagger."""
    if pure:
        ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return DensityMatrix.pure(ket)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / mat.trace())


def random_observable_basis(
    dim: int, rng: np.random.Generator, eigenvalues: np.ndarray | None = None
) -> ObservableBasis:
    """Haar-random eigenbasis via phase-fixed QR of a Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return ObservableBasis(q, eigenvalues)


def _require_same_dim(*dims: int) -> None:
    if len(set(dims)) != 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims}")
