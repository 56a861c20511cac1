"""Search for mutually unbiased partners by maximizing measurement
incompatibility.

The quantifier equals 1 exactly when every squared overlap between the two
eigenbases is 1/d, so driving it to its maximum over the unitary group is
a MUB search. The ascent is Riemannian steepest ascent on U(d) (Abrudan,
Eriksson & Koivunen, IEEE Trans. Signal Process. 56(3):1134, 2008): the
objective's analytic gradient gives a skew-Hermitian direction, the
candidate moves along the geodesic exp(mu G) U with an Armijo backtracking
line search, and seeded random restarts start from Haar-random bases
(``random_observable_basis``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ObservableBasis,
    _require_same_dim,
    random_observable_basis,
    transition_matrix,
)
from .measures import _overlap_form, measurement_incompatibility

STEP_FLOOR = 1e-12
# largest geodesic step tried; an accepted step doubles up to it
STEP_INIT = 0.5
# stall tolerance on per-iteration gains, and the skip margin below M = 1
OBJECTIVE_TOL = 1e-12
STALL_ITERATIONS = 10
# fraction of the slope ||G||_F^2 that an accepted step must realise
ARMIJO = 0.5


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the incompatibility ascent.

    ``tol_mub`` is the unbiasedness certificate tolerance, kept apart from
    the stall tolerance ``OBJECTIVE_TOL`` because certifying overlaps is
    much more demanding than stalling.
    """

    dim: int
    restarts: int = 20
    max_iters: int = 300
    tol_mub: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol_mub < 1e-10:
            raise ValueError(f"tol_mub must be >= 1e-10, got {self.tol_mub}")


@dataclass(frozen=True)
class SearchResult:
    """Best basis found, its objective, and the full ascent history.

    ``trajectory`` concatenates the per-restart histories; the iteration
    counter resets to zero at each restart and the objective is monotone
    nondecreasing within each restart.
    """

    best_basis: ObservableBasis
    objective: float
    certified_mub: bool
    trajectory: tuple[tuple[int, float], ...]
    restarts_used: int


def mub_certificate(
    first: ObservableBasis, second: ObservableBasis, tol: float
) -> tuple[bool, float]:
    """Check unbiasedness: is every squared overlap within ``tol`` of 1/d?

    Returns the verdict together with the worst overlap deviation.
    """
    _require_same_dim(first.dim, second.dim)
    deviations = np.abs(transition_matrix(first, second) - 1.0 / first.dim)
    max_deviation = float(deviations.max())
    return max_deviation <= tol, max_deviation


def _riemannian_gradient(fixed: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """Skew-Hermitian gradient G = E U^H - U E^H of the incompatibility.

    E = -(2/(d-1)) F (|W|^2 o W), with W = F^H U, is the Euclidean gradient
    with respect to conj(U); along the geodesic exp(mu G) U the objective
    rises at rate ||G||_F^2 at mu = 0.
    """
    d = unitary.shape[0]
    overlaps = fixed.conj().T @ unitary
    euclidean = (-2.0 / (d - 1)) * (fixed @ (np.abs(overlaps) ** 2 * overlaps))
    half = euclidean @ unitary.conj().T
    return half - half.conj().T


def maximize_incompatibility(fixed: ObservableBasis, config: SearchConfig) -> SearchResult:
    """Ascend the incompatibility against a fixed basis.

    Each iteration takes the analytic Euclidean gradient of
    M(U) = (d - sum |(F^H U)_jk|^4) / (d - 1), with F the fixed basis,
    turns it into the skew-Hermitian Riemannian gradient G on U(d), and
    diagonalizes iG once. Backtracking trials move along the geodesic
    exp(mu G) U, halving mu down to a floor of 1e-12 until the Armijo
    condition M(mu) - M >= mu ||G||_F^2 / 2 holds; the accepted step is
    carried over (doubled, capped at ``STEP_INIT`` = 0.5) to seed the next
    search. Trial points are scored by the same squared-overlap form as
    ``measurement_incompatibility``, so an accepted trial keeps its score;
    it is rebuilt as an ``ObservableBasis``, which checks its Gram matrix.
    A restart triggers after ten consecutive iterations with improvements
    below ``OBJECTIVE_TOL`` = 1e-12. The first start is the computational
    basis; restart k >= 1 starts from the k-th Haar-random basis
    ``random_observable_basis(d, rng)`` of one ``default_rng(seed)``
    stream. Runs are deterministic for a given seed, and remaining restarts
    are skipped once the objective is within ``OBJECTIVE_TOL`` of its
    maximum. When the fixed basis is the computational one, the first start
    is a critical point (G = 0) and that restart stalls at once. The
    returned basis is the best across restarts, ties resolved toward the
    earlier restart.
    """
    _require_same_dim(fixed.dim, config.dim)
    d = config.dim
    rng = np.random.default_rng(config.seed)
    fixed_dagger = fixed.vectors.conj().T

    best_value = -1.0
    best_basis = None
    trajectory: list[tuple[int, float]] = []
    restarts_used = 0

    for restart in range(config.restarts):
        if best_value >= 1.0 - OBJECTIVE_TOL:
            break
        restarts_used += 1
        if restart == 0:
            basis = ObservableBasis.computational(d)
        else:
            basis = random_observable_basis(d, rng)
        current = measurement_incompatibility(fixed, basis)
        trajectory.append((0, current))
        stall = 0
        step_seed = STEP_INIT

        for iteration in range(1, config.max_iters + 1):
            unitary = basis.vectors
            # exp(mu G) = V diag(exp(-i mu lam)) V^H from one eigh of iG
            lam, vecs = np.linalg.eigh(1j * _riemannian_gradient(fixed.vectors, unitary))
            slope = float(lam @ lam)
            rotated = vecs.conj().T @ unitary

            improved = 0.0
            step = step_seed
            while step >= STEP_FLOOR:
                trial = (vecs * np.exp(-1j * step * lam)) @ rotated
                value = _overlap_form(np.abs(fixed_dagger @ trial) ** 2)
                gain = value - current
                if gain > 0.0 and gain >= ARMIJO * step * slope:
                    improved = gain
                    basis, current = ObservableBasis(trial), value
                    step_seed = min(2.0 * step, STEP_INIT)
                    break
                step /= 2.0
            trajectory.append((iteration, current))
            stall = stall + 1 if improved < OBJECTIVE_TOL else 0
            if stall >= STALL_ITERATIONS:
                break

        if current > best_value:
            best_value = current
            best_basis = basis

    certified, _ = mub_certificate(fixed, best_basis, config.tol_mub)
    return SearchResult(
        best_basis=best_basis,
        objective=best_value,
        certified_mub=certified,
        trajectory=tuple(trajectory),
        restarts_used=restarts_used,
    )
