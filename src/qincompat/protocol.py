"""Eavesdropping protocol simulation with exact information bookkeeping.

A sender dephases a state in her observable's basis and ships it; an
interceptor measures a second observable through a unitary coupling to a
d-dimensional pointer. Unitary invariance of the joint entropy forces the
ledger identity: the information lost by the system equals the change of
local pointer information plus the system-pointer correlations. Noise
sweeps, the small-noise quadratic expansion, and the finite-strength
(weak) measurement model live here as well.

The ledger, the sweeps and the expansion are closed forms in the context's
distributions (p, T, q); no dilation or dephased state is built for them.
A sweep scales the ledger's deviation rows, so its eps = 1 point equals it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    _information,
    dephase,
    von_neumann_entropy,
)
from .errors import CrossCheckError, ZeroInformationError
from .measures import _deviation_rows, _distributions, _leakage

LEDGER_BALANCE_TOL = 1e-9
MUTUAL_INFO_FLOOR = -1e-10
ZERO_INFORMATION_FLOOR = 1e-14
SMALL_NOISE_FLOOR = 5e-3
SMALL_NOISE_EPS_LIMIT = 0.1
CONCAVITY_SLACK = 1e-9

MASS_MODELS = ("linear", "saturating")


@dataclass(frozen=True)
class LedgerEntry:
    """Information bookkeeping of one dilated interception run.

    ``i_initial`` is what the sender injects, ``i_final`` what survives the
    interception; the difference splits into the pointer's local change and
    the created correlations, and the split (but not the sum) depends on
    the chosen dilation.
    """

    i_initial: float
    i_final: float
    delta_apparatus: float
    mutual_info: float

    def __post_init__(self) -> None:
        gap = (self.i_initial - self.i_final) - (self.delta_apparatus + self.mutual_info)
        if abs(gap) > LEDGER_BALANCE_TOL:
            raise CrossCheckError(f"information ledger does not balance: gap {gap:.3e}")
        if self.mutual_info < MUTUAL_INFO_FLOOR:
            raise CrossCheckError(f"negative mutual information {self.mutual_info:.3e}")


@dataclass(frozen=True)
class NoiseSweepPoint:
    """Exact informations and the entropic leakage ratio at one noise level."""

    epsilon: float
    i_initial_eps: float
    i_final_eps: float
    ratio_eps: float


def stinespring_ledger(ctx: Context) -> LedgerEntry:
    """Ledger of the interception through the controlled-shift dilation.

    The pointer starts pure in its first level; the coupling is the
    controlled cyclic shift in the second observable's eigenbasis, which
    dilates the corresponding dephasing map. The joint state keeps entropy
    H(p) while system and pointer both end with spectrum q, so the pointer
    changes by -H(q) and the correlations are 2H(q) - H(p): with I = ln d - H
    the entries are I(p), I(q), I(q) - ln d and ln d + I(p) - 2 I(q). The
    ledger balance is enforced.
    """
    p, trans, _ = _distributions(ctx)
    i_initial, i_final = _information(_deviation_rows(p, trans)).tolist()
    ln_d = math.log(ctx.dim)
    # pointer starts pure: its information change is minus its final entropy
    return LedgerEntry(
        i_initial=i_initial,
        i_final=i_final,
        delta_apparatus=i_final - ln_d,
        mutual_info=ln_d + i_initial - 2.0 * i_final,
    )


def apply_noise(rho: DensityMatrix, epsilon: float) -> DensityMatrix:
    """Mix a state toward maximally mixed: (1 - eps) identity/d + eps rho."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"noise strength must lie in [0, 1], got {epsilon}")
    d = rho.dim
    return DensityMatrix((1.0 - epsilon) * np.eye(d) / d + epsilon * rho.entries)


def noise_sweep(ctx: Context, epsilons: np.ndarray) -> list[NoiseSweepPoint]:
    """Evaluate the leakage diagnostics exactly on a grid of noise levels.

    Per point this computes the injected and surviving informations of the
    noisy context and their entropic ratio. The norm-based leakage ratio of
    the noisy context needs no recomputation: sigma_eps - I/d = eps (sigma - I/d)
    and tau_eps - sigma_eps = eps (tau - sigma), so it equals the clean ratio
    at every strength. Two facts are enforced per point:

    * for eps <= 0.1 the entropic ratio stays within
      max(5e-3, (2/3)(d - 1) eps) of the norm ratio; the second term is the
      proven bound on the first-order remainder of the quadratic expansion,
      which the flat floor alone does not cover at the upper end of the
      window for d >= 3;
    * concavity: injected information at strength eps never exceeds eps
      times the noise-free value.

    ``epsilons`` must be a one-dimensional grid (ValueError otherwise).
    """
    eps_values = np.asarray(epsilons, dtype=float)
    if eps_values.ndim != 1:
        raise ValueError("noise strengths must form a one-dimensional grid")
    # written so that NaN fails it too
    if not np.all((eps_values > 0.0) & (eps_values <= 1.0)):
        raise ValueError("noise strengths must lie in (0, 1]")
    d = ctx.dim
    p, trans, q = _distributions(ctx)
    base_ratio = _leakage(p, trans, q)  # also rejects the zero-information context
    rows = _deviation_rows(p, trans)
    i_full = _information(rows[0])
    infos = _information(eps_values[:, None, None] * rows).tolist()

    points = []
    for eps, (i_initial_eps, i_final_eps) in zip(eps_values.tolist(), infos):
        if i_initial_eps < ZERO_INFORMATION_FLOOR:
            raise ZeroInformationError(
                f"injected information vanished at noise strength {eps}"
            )
        ratio_eps = (i_initial_eps - i_final_eps) / i_initial_eps
        if eps <= SMALL_NOISE_EPS_LIMIT:
            slack = max(SMALL_NOISE_FLOOR, 2.0 / 3.0 * (d - 1) * eps)
            if abs(ratio_eps - base_ratio) > slack:
                raise CrossCheckError(
                    f"entropic ratio {ratio_eps!r} drifted from the norm ratio "
                    f"{base_ratio!r} beyond {slack} at eps={eps}"
                )
        if i_initial_eps > eps * i_full + CONCAVITY_SLACK:
            raise CrossCheckError(f"concavity bound violated at eps={eps}")
        points.append(NoiseSweepPoint(eps, i_initial_eps, i_final_eps, ratio_eps))
    return points


def small_eps_expansion(ctx: Context, epsilon: float) -> tuple[float, float, float]:
    """Quadratic-order noise approximations of the three informations.

    Valid only deep in the noise-dominated regime; the strength is capped
    at 0.1/d. Each returned value is checked against the exact computation
    to 10 eps^3 absolute before being handed back.
    """
    if not 0.0 < epsilon <= 0.1 / ctx.dim:
        raise ValueError(
            f"expansion valid only for 0 < eps <= {0.1 / ctx.dim}, got {epsilon}"
        )
    d = ctx.dim
    p, trans, q = _distributions(ctx)
    # the purities of the once- and twice-dephased states are ||p||^2 and ||q||^2
    i_initial_approx = epsilon**2 / 2.0 * (d * float(p @ p) - 1.0)
    i_final_approx = epsilon**2 / 2.0 * (d * float(q @ q) - 1.0)
    i_context_approx = _leakage(p, trans, q) * i_initial_approx

    exact = noise_sweep(ctx, np.array([epsilon]))[0]
    budget = 10.0 * epsilon**3
    checks = (
        (i_initial_approx, exact.i_initial_eps),
        (i_final_approx, exact.i_final_eps),
        (i_context_approx, exact.i_initial_eps - exact.i_final_eps),
    )
    for approx, reference in checks:
        if abs(approx - reference) > budget:
            raise CrossCheckError(
                f"quadratic approximation {approx!r} missed exact {reference!r} "
                f"beyond the {budget} remainder budget"
            )
    return i_initial_approx, i_final_approx, i_context_approx


def weak_measure(rho: DensityMatrix, basis: ObservableBasis, strength: float) -> DensityMatrix:
    """Finite-strength measurement: (1 - s) rho + s * dephase(rho)."""
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"measurement strength must lie in [0, 1], got {strength}")
    return DensityMatrix(
        (1.0 - strength) * rho.entries + strength * dephase(rho, basis).entries
    )


def mass_model_context_incompat(
    ctx: Context, mass_ratio: float, model: str = "saturating"
) -> float:
    """Context incompatibility when the pointers are heavy.

    ``mass_ratio`` is pointer mass over probe mass; it sets the effective
    measurement strength, either linearly (clamped at 1) or through the
    saturating map 1 - exp(-mass_ratio). Both weak measurements are applied
    in sequence and the entropy gap returned; it vanishes in the
    heavy-probe limit and reproduces the projective value at saturation.
    """
    if mass_ratio < 0.0:
        raise ValueError(f"mass ratio must be nonnegative, got {mass_ratio}")
    if model not in MASS_MODELS:
        raise ValueError(f"model must be one of {MASS_MODELS}, got {model!r}")
    if model == "linear":
        strength = min(mass_ratio, 1.0)
    else:
        strength = 1.0 - math.exp(-mass_ratio)
    after_first = weak_measure(ctx.state, ctx.first, strength)
    after_second = weak_measure(after_first, ctx.second, strength)
    return von_neumann_entropy(after_second) - von_neumann_entropy(after_first)


def default_epsilon_grid() -> np.ndarray:
    """Standard sweep grid: 20 logarithmic points in [1e-4, 1]."""
    return np.logspace(-4.0, 0.0, 20)
