"""Search for mutually unbiased partners by maximizing measurement
incompatibility.

The quantifier equals 1 exactly when every squared overlap between the two
eigenbases is 1/d, so driving it to its maximum over the unitary group is a
MUB search. It sees the fixed basis F and the candidate U only through the
overlaps W = F^H U, so the search runs on W, and F enters only at the start
W_0 = F^H U_0 and in the returned basis F W. The ascent is Riemannian
steepest ascent on U(d) (Abrudan, Eriksson & Koivunen, IEEE Trans. Signal
Process. 56(3):1134, 2008): the analytic gradient gives a skew-Hermitian
direction G, W moves along the geodesic exp(mu G) W with an Armijo
backtracking line search, and seeded restarts start from Haar-random bases.
The objective is quartic in W, so each line search starts no further out
than the period bound pi / (2 max|lambda|) of its fastest harmonic, lambda
the eigenvalues of iG (Abrudan, Eriksson & Koivunen, Signal Process.
89(9):1704, 2009). As M <= 1, steps whose Armijo bound exceeds 1 - M go
unscored. A restart ends at its first failed line search or G = 0.
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
from .measures import _overlap_form

STEP_FLOOR = 1e-12
# first trial step of a restart; an accepted step seeds the next at twice its size
STEP_INIT = 0.5
# skip margin below M = 1
OBJECTIVE_TOL = 1e-12
# fraction of the slope ||G||_F^2 that an accepted step must realise
ARMIJO = 0.5


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the incompatibility ascent.

    ``tol_mub`` is the unbiasedness certificate tolerance on the squared
    overlaps, in [1e-10, 1/d): at 1/d a zero overlap would pass.
    """

    dim: int
    restarts: int = 20
    max_iters: int = 300
    tol_mub: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("dim", 2), ("restarts", 1), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not integral or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not 1e-10 <= self.tol_mub < 1.0 / self.dim:
            raise ValueError(f"tol_mub must lie in [1e-10, 1/dim), got {self.tol_mub!r}")


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

    Returns the verdict together with the worst overlap deviation. A ``tol``
    that is not a finite real number >= 0 raises ``ValueError``.
    """
    real = isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, bool)
    if not (real and np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite real number >= 0, got {tol!r}")
    _require_same_dim(first.dim, second.dim)
    deviations = np.abs(transition_matrix(first, second) - 1.0 / first.dim)
    max_deviation = float(deviations.max())
    return max_deviation <= tol, max_deviation


def _riemannian_gradient(overlaps: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Skew-Hermitian gradient G = A W^H - W A^H at the overlaps W, T = |W|^2.

    A = -(2/(d-1)) T o W is the Euclidean gradient in conj(W); along the
    geodesic exp(mu G) W the objective rises at rate ||G||_F^2 at mu = 0.
    """
    d = overlaps.shape[0]
    half = ((-2.0 / (d - 1)) * (trans * overlaps)) @ overlaps.conj().T
    return half - half.conj().T


def maximize_incompatibility(fixed: ObservableBasis, config: SearchConfig) -> SearchResult:
    """Ascend the incompatibility against a fixed basis.

    Each iteration takes the analytic Euclidean gradient of
    M(W) = (d - sum |W_jk|^4) / (d - 1) on the overlaps W = F^H U, F the
    fixed basis, turns it into the skew-Hermitian Riemannian gradient G on
    U(d), and diagonalizes iG once, eigenvalues lambda. Backtracking trials
    move along the geodesic exp(mu G) W, halving mu down to a floor of 1e-12
    until the Armijo condition M(mu) - M >= mu ||G||_F^2 / 2 holds. The
    first trial step is the smaller of the period bound pi / (2 max|lambda|)
    and the step seed: ``STEP_INIT`` = 0.5 at the start of a restart, then
    twice the last accepted step. A score is at most 1, so no step with
    mu ||G||_F^2 / 2 above the headroom 1 - M can pass (none at M = 1):
    these are halved past unscored, which changes no result, as halving is
    exact. Trials are scored by the squared-overlap form of
    ``measurement_incompatibility``, and an accepted trial keeps its
    score and |W|^2 for the next gradient. A restart ends at its first
    failed line search, which would repeat unchanged, or at once when
    ||G||_F^2 is exactly 0; its last iterate is then built as the
    ``ObservableBasis`` F W, which checks its Gram matrix. F enters nowhere
    else but the start W_0 = F^H U_0: U_0 is the computational basis, and
    for restart k >= 1 the k-th Haar-random basis
    ``random_observable_basis(d, rng)`` of one ``default_rng(seed)`` stream.
    Runs are deterministic for a given seed, and remaining restarts are
    skipped once the objective is within ``OBJECTIVE_TOL`` = 1e-12 of its
    maximum. When the fixed basis is the computational one, the first start
    is a critical point (G = 0) and that restart ends at once. The returned
    basis is the best across restarts, ties resolved toward the earlier one.
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
        start = random_observable_basis(d, rng).vectors if restart else np.eye(d)
        overlaps = fixed_dagger @ start
        trans = np.abs(overlaps) ** 2
        current = _overlap_form(trans)
        trajectory.append((0, current))
        step_seed = STEP_INIT

        for iteration in range(1, config.max_iters + 1):
            # exp(mu G) = V diag(exp(-i mu lam)) V^H from one eigh of iG
            lam, vecs = np.linalg.eigh(1j * _riemannian_gradient(overlaps, trans))
            slope = float(lam @ lam)
            if slope == 0.0:
                break
            step = min(step_seed, np.pi / (2.0 * float(np.abs(lam).max())))
            # a score is at most 1: halve past steps whose Armijo bound exceeds 1 - M
            headroom = 1.0 - current
            while step >= STEP_FLOOR and not (0.0 < headroom and ARMIJO * step * slope <= headroom):
                step /= 2.0
            rotated = vecs.conj().T @ overlaps
            while step >= STEP_FLOOR:
                trial = (vecs * np.exp(-1j * step * lam)) @ rotated
                trial_trans = np.abs(trial) ** 2
                value = _overlap_form(trial_trans)
                gain = value - current
                if gain > 0.0 and gain >= ARMIJO * step * slope:
                    overlaps, trans, current = trial, trial_trans, value
                    step_seed = 2.0 * step
                    break
                step /= 2.0
            trajectory.append((iteration, current))
            if step < STEP_FLOOR:
                break

        # every restart's last iterate passes the Gram check, best or not
        basis = ObservableBasis(fixed.vectors @ overlaps)
        if current > best_value:
            best_value, best_basis = current, basis

    certified, _ = mub_certificate(fixed, best_basis, config.tol_mub)
    return SearchResult(
        best_basis=best_basis,
        objective=best_value,
        certified_mub=certified,
        trajectory=tuple(trajectory),
        restarts_used=restarts_used,
    )
