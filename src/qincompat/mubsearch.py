"""Search for mutually unbiased partners by maximizing the incompatibility M.

The quantifier M equals 1 exactly when every squared overlap between the two
eigenbases is 1/d, so maximizing it over the unitary group is a MUB search.
It sees the fixed basis F and the candidate U only through the overlaps
W = F^H U, so the search runs on W, and F enters only at the start
W_0 = F^H U_0 and in the returned basis F W. As 1 - M = ||r||^2 / (d - 1) is
quadratic in the residuals r = |W|^2 - 1/d, M cannot see a residual below
~1e-8, so the search drives r itself to zero by Riemannian Levenberg-Marquardt
(Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds,
Princeton 2008, Sec. 8.4) along W <- exp(iH) W, from seeded Haar-random starts.
Damped by lambda ~ ||r||^2, it converges quadratically under a local error
bound, with no isolated solution needed (Fan & Yuan, Computing 74, 23 (2005)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ObservableBasis, _require_same_dim, random_observable_basis, transition_matrix

# Levenberg-Marquardt damping: floor, and the ceiling that ends a stalled restart
DAMPING_FLOOR = 1e-12
DAMPING_CEILING = 1e8
# a restart ends once every residual T - 1/d is at rounding level
RESIDUAL_TOL = 1e-14
# or once ||r||^2 has fallen by under 1 % over the last 10 trials
STALL_WINDOW = 10
STALL_RATIO = 0.99


def _real(value) -> bool:
    """Is ``value`` a Python or numpy int or float, and not a bool?"""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _score(cost: float, d: int) -> float:
    """M = 1 - ||r||^2 / (d - 1) in [0, 1], as T is doubly stochastic: sum r = 0."""
    return min(max(1.0 - float(cost) / (d - 1), 0.0), 1.0)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the Levenberg-Marquardt MUB search.

    ``max_iters`` caps the trials of a restart. ``tol_mub`` is the certificate
    tolerance on the squared overlaps, in [1e-10, 1/d): at 1/d a zero overlap
    would pass.
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
        if not (_real(self.tol_mub) and 1e-10 <= self.tol_mub < 1.0 / self.dim):
            raise ValueError(f"tol_mub must lie in [1e-10, 1/dim), got {self.tol_mub!r}")


@dataclass(frozen=True)
class SearchResult:
    """Best basis found, its objective, and the full search history.

    ``trajectory`` concatenates the per-restart histories; the iteration
    counter resets to zero at each restart and the objective is monotone
    nondecreasing within each restart.
    """

    best_basis: ObservableBasis
    objective: float
    certified_mub: bool
    trajectory: tuple[tuple[int, float], ...]
    restarts_used: int


def mub_certificate(first: ObservableBasis, second: ObservableBasis, tol: float) -> tuple[bool, float]:
    """Check unbiasedness: is every squared overlap within ``tol`` of 1/d?

    Returns the verdict together with the worst overlap deviation. A ``tol``
    that is not a finite real number >= 0 raises ``ValueError``.
    """
    if not (_real(tol) and 0.0 <= tol < np.inf):
        raise ValueError(f"tol must be a finite real number >= 0, got {tol!r}")
    _require_same_dim(first.dim, second.dim)
    deviations = np.abs(transition_matrix(first, second) - 1.0 / first.dim)
    max_deviation = float(deviations.max())
    return max_deviation <= tol, max_deviation


def _directions(d: int) -> tuple[np.ndarray, ...]:
    """The search's off-diagonal Hermitian directions, two per pair a < b in
    ``np.triu_indices`` order, E_ab + E_ba then i(E_ab - E_ba): the rows a
    and b of each pair, 2(e_a - e_b) per direction, and their Gram matrix."""
    index = np.arange(d)
    rows_a, rows_b = np.nonzero(index[:, None] < index)
    eye = np.eye(d)
    incidence = np.repeat(2.0 * (eye[rows_a] - eye[rows_b]), 2, axis=0)
    return rows_a, rows_b, incidence, incidence @ incidence.T


def _normal_equations(overlaps: np.ndarray, residual: np.ndarray, directions: tuple):
    """J^T J and -J^T r of the residuals r = |W|^2 - 1/d along W <- exp(iH) W.

    With c = conj(W_a.) o W_b., E_ab + E_ba moves row a of T by -2 Im c and
    row b by +2 Im c, and i(E_ab - E_ba) by -2 Re c and +2 Re c. Each row of
    J^T is thus 2(e_b - e_a) (x) s, s = Im c or Re c, and J is never formed.
    """
    rows_a, rows_b, incidence, incidence_gram = directions
    c = overlaps[rows_a].conj() * overlaps[rows_b]
    slopes = np.concatenate((c.imag, c.real), axis=1).reshape(len(incidence), -1)
    return incidence_gram * (slopes @ slopes.T), ((incidence @ residual) * slopes).sum(1)


def maximize_incompatibility(fixed: ObservableBasis, config: SearchConfig) -> SearchResult:
    """Search for a basis unbiased to ``fixed``, maximizing the incompatibility.

    Each restart drives the residuals r = T - 1/d of T = |W|^2, W = F^H U and
    F the fixed basis, to zero: it solves (J^T J + lambda I) x = -J^T r from
    ``_normal_equations`` and tries W <- exp(iH(x)) W, one eigh of H(x) and one
    iteration of the trajectory per trial. A trial is accepted iff ||r||^2
    falls, and M is read off ||r||^2. lambda starts at ||r_0||^2 and becomes
    min(lambda / 10, ||r||^2) on success, 10 lambda on failure, never below
    1e-12. A restart ends at max |r| <= 1e-14, at J^T r = 0 (the computational
    start against the computational basis), once lambda passes 1e8, once
    ||r||^2 has fallen by under 1 % over 10 trials, or at ``max_iters``; its
    last iterate is then built as the ``ObservableBasis`` F W, which checks
    its Gram matrix. U_0 is the computational basis, and restart k >= 1 the
    k-th draw of ``random_observable_basis(d, rng)`` from ``default_rng(seed)``.
    The returned basis is the one of highest M, the earlier on ties; once its
    max |r| <= ``tol_mub``, the remaining restarts are skipped, and
    ``certified_mub`` is ``mub_certificate`` on it.
    """
    _require_same_dim(fixed.dim, config.dim)
    d = config.dim
    rng = np.random.default_rng(config.seed)
    fixed_dagger = fixed.vectors.conj().T
    identity = np.eye(d * (d - 1))
    directions = _directions(d)
    rows_a, rows_b, _, _ = directions
    generator = np.zeros((d, d), dtype=complex)

    best_value, best_basis, best_deviation = -1.0, None, np.inf
    trajectory: list[tuple[int, float]] = []
    restarts_used = 0

    for restart in range(config.restarts):
        if best_deviation <= config.tol_mub:
            break
        restarts_used += 1
        start = random_observable_basis(d, rng).vectors if restart else np.eye(d)
        overlaps = fixed_dagger @ start
        residual = np.abs(overlaps) ** 2 - 1.0 / d
        cost = np.vdot(residual, residual)
        costs = [cost]
        trajectory.append((0, _score(cost, d)))
        damping = max(cost, DAMPING_FLOOR)
        moved = True

        for iteration in range(1, config.max_iters + 1):
            if moved:
                if np.abs(residual).max() <= RESIDUAL_TOL:
                    break
                gram, descent = _normal_equations(overlaps, residual, directions)
                if not descent.any():
                    break
            x = np.linalg.solve(gram + damping * identity, descent)
            # H(x)[a, b] = x_2p + i x_2p+1, and eigh reads the upper triangle alone
            generator[rows_a, rows_b] = x.view(complex)
            lam, vecs = np.linalg.eigh(generator, UPLO="U")
            trial = (vecs * np.exp(1j * lam)) @ (vecs.conj().T @ overlaps)
            trial_residual = np.abs(trial) ** 2 - 1.0 / d
            trial_cost = np.vdot(trial_residual, trial_residual)
            moved = trial_cost < cost
            if moved:
                overlaps, residual, cost = trial, trial_residual, trial_cost
            damping = max(min(damping / 10.0, cost), DAMPING_FLOOR) if moved else 10.0 * damping
            costs.append(cost)
            trajectory.append((iteration, _score(cost, d)))
            stalled = iteration >= STALL_WINDOW and cost > STALL_RATIO * costs[-1 - STALL_WINDOW]
            if damping > DAMPING_CEILING or stalled:
                break

        # every restart's last iterate passes the Gram check, best or not
        basis = ObservableBasis(fixed.vectors @ overlaps)
        value = trajectory[-1][1]
        if value > best_value:
            best_value, best_basis, best_deviation = value, basis, np.abs(residual).max()

    certified, _ = mub_certificate(fixed, best_basis, config.tol_mub)
    return SearchResult(best_basis, best_value, certified, tuple(trajectory), restarts_used)
