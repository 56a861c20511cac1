"""States, sharp observables, entropies, and projective dephasing channels.

Conventions used throughout the package:

* all entropic quantities are in nats (natural logarithm);
* observable eigenbases are stored as the columns of a unitary matrix;
* every value is immutable after construction and every function is pure,
  so everything here is safe to use from concurrent sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_CLIP = 1e-10
GRAM_TOL = 1e-10
EIGENVALUE_SPACING_TOL = 1e-9
PROBABILITY_CLIP = 1e-12
PROBABILITY_SUM_TOL = 1e-10
SUPPORT_EIGENVALUE_CUTOFF = 1e-12
SUPPORT_WEIGHT_CUTOFF = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A d-dimensional quantum state as a positive, unit-trace complex matrix.

    Construction validates finiteness, Hermiticity (entrywise, 1e-12), unit
    trace (1e-12) and positivity. Eigenvalues in [-1e-10, 0) are treated as
    numerical dust: they are clipped to zero and the spectrum renormalized.
    Anything more negative is rejected.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvariantViolationError("state matrix must be square")
        # every tolerance check below is false for NaN, so test finiteness first
        if not np.isfinite(mat).all():
            raise InvariantViolationError("state matrix has non-finite entries")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise InvariantViolationError("state matrix is not Hermitian")
        if abs(mat.trace() - 1.0) > TRACE_TOL:
            raise InvariantViolationError(
                f"state trace {mat.trace().real!r} is not 1"
            )
        vals = np.linalg.eigvalsh(mat)
        if vals[0] < -EIGENVALUE_CLIP:
            raise InvariantViolationError(
                f"state has negative eigenvalue {vals[0]:.3e}"
            )
        if vals[0] < 0.0:
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
        return hs_norm_sq(self.entries)

    @classmethod
    def pure(cls, ket: np.ndarray) -> "DensityMatrix":
        """Projector onto a (normalized copy of a) state vector."""
        vec = np.asarray(ket, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise InvariantViolationError("cannot normalize the zero vector")
        vec = vec / norm
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
    identity). Eigenvalues must be finite and distinct.
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
        gram = cols.conj().T @ cols
        if np.max(np.abs(gram - np.eye(d))) > GRAM_TOL:
            raise InvariantViolationError("eigenvectors are not orthonormal")
        if self.eigenvalues is None:
            vals = np.arange(1, d + 1, dtype=float)
        else:
            vals = np.array(self.eigenvalues, dtype=float)
            if not np.isfinite(vals).all():
                raise InvariantViolationError("observable eigenvalues must be finite")
        if vals.shape != (d,):
            raise InvariantViolationError(
                f"expected {d} eigenvalues, got shape {vals.shape}"
            )
        spacing = np.diff(np.sort(vals))
        scale = max(1.0, float(np.max(np.abs(vals))))
        if spacing.size and np.min(spacing) <= EIGENVALUE_SPACING_TOL * scale:
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


def probability_vector(values: np.ndarray) -> np.ndarray:
    """Validate and clean a probability distribution.

    Entries above -1e-12 are clipped to zero; the sum must be within 1e-10
    of one.
    """
    probs = np.asarray(values, dtype=float)
    if np.min(probs) < -PROBABILITY_CLIP:
        raise InvariantViolationError(
            f"probability {np.min(probs):.3e} is negative"
        )
    probs = np.clip(probs, 0.0, None)
    if abs(probs.sum() - 1.0) > PROBABILITY_SUM_TOL:
        raise InvariantViolationError(
            f"probabilities sum to {probs.sum()!r}, not 1"
        )
    return probs


def shannon_entropy(probabilities: np.ndarray) -> float:
    """H(p) = -sum p ln p in nats, with the 0 ln 0 = 0 convention."""
    probs = np.asarray(probabilities, dtype=float)
    probs = probs[probs > 0.0]
    return float(-(probs * np.log(probs)).sum())


def binary_entropy(nu: float) -> float:
    """Shannon entropy of a coin with bias ``nu``, in nats."""
    return shannon_entropy(np.array([nu, 1.0 - nu]))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) in nats, computed from the spectrum."""
    return shannon_entropy(rho.eigenvalues())


def information(rho: DensityMatrix) -> float:
    """Informational content ln d - S(rho), in [0, ln d]."""
    return math.log(rho.dim) - von_neumann_entropy(rho)


def hs_norm_sq(matrix: np.ndarray) -> float:
    """Squared Hilbert-Schmidt norm Tr(A^dagger A)."""
    return float(np.sum(np.abs(matrix) ** 2))


def outcome_probabilities(rho: DensityMatrix, basis: ObservableBasis) -> np.ndarray:
    """Born probabilities p_j of measuring ``basis`` on ``rho``."""
    _require_same_dim(rho.dim, basis.dim)
    cols = basis.vectors
    raw = np.real(np.einsum("aj,ab,bj->j", cols.conj(), rho.entries, cols))
    return probability_vector(raw)


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


def sequential_dephase(
    rho: DensityMatrix, first: ObservableBasis, second: ObservableBasis
) -> DensityMatrix:
    """Dephase in ``first``, then in ``second``."""
    _require_same_dim(rho.dim, first.dim, second.dim)
    return dephase(dephase(rho, first), second)


def transition_matrix(first: ObservableBasis, second: ObservableBasis) -> np.ndarray:
    """Doubly stochastic matrix of squared overlaps.

    Entry [j, k] is the probability of outcome k of the second observable
    given the system sits in eigenstate j of the first.
    """
    _require_same_dim(first.dim, second.dim)
    overlaps = first.vectors.conj().T @ second.vectors
    return np.abs(overlaps) ** 2


def relative_entropy(sigma: DensityMatrix, varrho: DensityMatrix) -> float:
    """Quantum relative entropy S(sigma || varrho) = Tr[sigma(ln sigma - ln varrho)].

    Returns +inf when the support of ``sigma`` sticks out of the support of
    ``varrho``: an eigenvalue of ``varrho`` below 1e-12 carrying more than
    1e-10 of sigma-weight in that eigendirection.
    """
    _require_same_dim(sigma.dim, varrho.dim)
    s_vals, s_vecs = np.linalg.eigh(sigma.entries)
    t_vals, t_vecs = np.linalg.eigh(varrho.entries)
    overlap_sq = np.abs(s_vecs.conj().T @ t_vecs) ** 2  # [i, j] = |<u_i|v_j>|^2
    weight_on_t = np.clip(s_vals, 0.0, None) @ overlap_sq
    small = t_vals < SUPPORT_EIGENVALUE_CUTOFF
    if np.any(weight_on_t[small] > SUPPORT_WEIGHT_CUTOFF):
        return math.inf
    term_sigma = -shannon_entropy(s_vals)
    keep = ~small
    log_t = np.log(t_vals[keep])
    term_cross = float(
        np.clip(s_vals, 0.0, None) @ overlap_sq[:, keep] @ log_t
    )
    return term_sigma - term_cross


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
