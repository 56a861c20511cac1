"""Operator-level reference routes for the closed-form measures.

The library computes every context measure, and the free-context class,
from the distributions (p, T, q), every information ln d - H(p) from the
deviations d p - 1, and checks free operations on d^2 x d^2 transfer
matrices. The routes here take the direct entropy difference instead, and
build the operators: projector commutators and products, dephased density
matrices and their relative entropy, the d^2 x d^2 controlled-shift
dilation, Kraus operators applied to each matrix unit, and the dense
generalized Gell-Mann matrices with the SU(d) structure tensors behind the
Bloch layer's coordinates and its wedge and star products. The MUB search
drives the overlap residuals to zero by Levenberg-Marquardt on W = F^H U;
here the incompatibility's Riemannian gradient is taken on W and, with the
fixed basis F in every product, on the candidate U itself, and the tests
check the search's Jacobian against it. The search here forms the dense
d^2 x d(d-1) Jacobian column by column, the matrix J^T J + lambda I, and the
full Hermitian step generator, where the library forms J^T J and J^T r from
the pair incidences alone. The tests compare the library against these
routes, each to the tolerance named below.
"""

import math

import numpy as np

from qincompat.core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    dephase,
    information,
    random_observable_basis,
    shannon_entropy,
    von_neumann_entropy,
)
from qincompat.measures import (
    CHANNEL_COMMUTATION_TOL,
    CHANNEL_STRUCTURE_TOL,
    COMMUTATION_TOL,
    ZERO_INFO_NORM_TOL,
    ContextClass,
    _overlap_form,
)
from qincompat.mubsearch import (
    DAMPING_CEILING,
    DAMPING_FLOOR,
    RESIDUAL_TOL,
    STALL_RATIO,
    STALL_WINDOW,
    SearchConfig,
    SearchResult,
    mub_certificate,
)
from qincompat.protocol import LedgerEntry

FORM_AGREEMENT_TOL = 1e-10
RATIO_INVARIANCE_TOL = 1e-9
# below this denominator the eps^2 scaling of a noisy context starves the
# operator ratio of float precision
NORM_CHECK_FLOOR = 1e-9
DILATION_TRACE_TOL = 1e-10
TRANSFER_AGREEMENT_TOL = 1e-12
GRADIENT_FRAME_TOL = 1e-14
# while 1 - M exceeds this, the two Levenberg-Marquardt searches take the
# same steps; below it the rounding of their normal equations decides which
# trials lower ||r||^2 at rounding level
SEARCH_RESOLVED_GAP = 1e-8
SEARCH_AGREEMENT_TOL = 1e-9
SUPPORT_EIGENVALUE_CUTOFF = 1e-12
SUPPORT_WEIGHT_CUTOFF = 1e-10


def direct_information(p: np.ndarray) -> float:
    """ln d - H(p) as the direct entropy difference, which cancels
    catastrophically near the uniform distribution."""
    return math.log(len(p)) - shannon_entropy(p)


def hs_norm_sq(matrix: np.ndarray) -> float:
    """Squared Hilbert-Schmidt norm Tr(A^dagger A)."""
    return float(np.sum(np.abs(matrix) ** 2))


def sequential_dephase(
    rho: DensityMatrix, first: ObservableBasis, second: ObservableBasis
) -> DensityMatrix:
    """Dephase in ``first``, then in ``second``."""
    return dephase(dephase(rho, first), second)


def relative_entropy(sigma: DensityMatrix, varrho: DensityMatrix) -> float:
    """Quantum relative entropy S(sigma || varrho) = Tr[sigma(ln sigma - ln varrho)].

    Returns +inf when the support of ``sigma`` sticks out of the support of
    ``varrho``: an eigenvalue of ``varrho`` below 1e-12 carrying more than
    1e-10 of sigma-weight in that eigendirection.
    """
    s_vals, s_vecs = np.linalg.eigh(sigma.entries)
    t_vals, t_vecs = np.linalg.eigh(varrho.entries)
    overlap_sq = np.abs(s_vecs.conj().T @ t_vecs) ** 2  # [i, j] = |<u_i|v_j>|^2
    weights = np.clip(s_vals, 0.0, None) @ overlap_sq
    small = t_vals < SUPPORT_EIGENVALUE_CUTOFF
    if np.any(weights[small] > SUPPORT_WEIGHT_CUTOFF):
        return math.inf
    return -shannon_entropy(s_vals) - float(weights[~small] @ np.log(t_vals[~small]))


def coherence_form(ctx: Context) -> float:
    """The context incompatibility as the coherence left in the dephased
    state: S(sigma || tau) for the once- and twice-dephased states, or the
    entropy difference S(tau) - S(sigma) where the relative entropy reports
    a support mismatch."""
    sigma = dephase(ctx.state, ctx.first)
    tau = dephase(sigma, ctx.second)
    value = relative_entropy(sigma, tau)
    if math.isinf(value):
        return von_neumann_entropy(tau) - von_neumann_entropy(sigma)
    return value


def algebraic_incompatibility(first: ObservableBasis, second: ObservableBasis) -> float:
    """Deficit d - sum_jk Tr[(P_j Q_k)^2] of the projector-product array from
    the commuting case, with every product P_j Q_k built explicitly; d - 1
    times the measurement incompatibility."""
    products = np.einsum("jab,kbc->jkac", first.projectors(), second.projectors())
    traces = np.real(np.einsum("jkab,jkba->jk", products, products))
    return first.dim - float(traces.sum())


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


def riemannian_gradient(overlaps: np.ndarray) -> np.ndarray:
    """Skew-Hermitian gradient G = A W^H - W A^H of the incompatibility at
    the overlaps W, T = |W|^2, with A = -(2/(d-1)) T o W the Euclidean
    gradient in conj(W): along the geodesic exp(mu G) W the objective rises
    at rate ||G||_F^2 at mu = 0, and along exp(mu X) W at rate Re tr(G^H X)."""
    d = overlaps.shape[0]
    half = ((-2.0 / (d - 1)) * (np.abs(overlaps) ** 2 * overlaps)) @ overlaps.conj().T
    return half - half.conj().T


def unitary_frame_gradient(fixed: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """Skew-Hermitian gradient G_U = E U^H - U E^H of the incompatibility at
    the candidate U, with E = -(2/(d-1)) F (|W|^2 o W) and W = F^H U the
    Euclidean gradient with respect to conj(U). It is conjugate to the
    search's gradient on W: G_U = F G_W F^H."""
    d = unitary.shape[0]
    overlaps = fixed.conj().T @ unitary
    euclidean = (-2.0 / (d - 1)) * (fixed @ (np.abs(overlaps) ** 2 * overlaps))
    half = euclidean @ unitary.conj().T
    return half - half.conj().T


def residual_jacobian(overlaps: np.ndarray) -> np.ndarray:
    """Dense Jacobian of r = |W|^2 - 1/d, raveled, along W <- exp(iH) W: one
    column per direction E_ab + E_ba, i(E_ab - E_ba), pairs a < b in
    ``np.triu_indices`` order. With c = conj(W_a.) o W_b., the first moves
    row a of T by -2 Im c and row b by +2 Im c, the second by -2 Re c and
    +2 Re c."""
    d = overlaps.shape[0]
    columns = []
    for a, b in zip(*np.triu_indices(d, 1)):
        c = overlaps[a].conj() * overlaps[b]
        for slope in (c.imag, c.real):
            column = np.zeros((d, d))
            column[a] = -2.0 * slope
            column[b] = 2.0 * slope
            columns.append(column.ravel())
    return np.array(columns).T


def reference_search(fixed: ObservableBasis, config: SearchConfig) -> SearchResult:
    """The Levenberg-Marquardt MUB search with the dense Jacobian.

    Same restarts, acceptance test, damping schedule, stopping rules and skip
    rule as ``maximize_incompatibility``, but each step forms J from
    ``residual_jacobian``, solves (J^T J + lambda I) x = -J^T r, and writes
    both triangles of H(x) before its eigh; M is scored by the squared-overlap
    form of ``measurement_incompatibility``, not read off ||r||^2."""
    d = config.dim
    rng = np.random.default_rng(config.seed)
    pairs = list(zip(*np.triu_indices(d, 1)))
    best_value = -1.0
    best_basis = None
    best_deviation = np.inf
    trajectory = []
    restarts_used = 0
    for restart in range(config.restarts):
        if best_deviation <= config.tol_mub:
            break
        restarts_used += 1
        start = random_observable_basis(d, rng).vectors if restart else np.eye(d)
        overlaps = fixed.vectors.conj().T @ start
        residual = (np.abs(overlaps) ** 2 - 1.0 / d).ravel()
        costs = [residual @ residual]
        current = _overlap_form(np.abs(overlaps) ** 2)
        trajectory.append((0, current))
        damping = max(costs[0], DAMPING_FLOOR)
        for iteration in range(1, config.max_iters + 1):
            if np.abs(residual).max() <= RESIDUAL_TOL:
                break
            jacobian = residual_jacobian(overlaps)
            gradient = jacobian.T @ residual
            if not gradient.any():
                break
            x = np.linalg.solve(jacobian.T @ jacobian + damping * np.eye(len(gradient)), -gradient)
            generator = np.zeros((d, d), dtype=complex)
            for p, (a, b) in enumerate(pairs):
                generator[a, b] = x[2 * p] + 1j * x[2 * p + 1]
                generator[b, a] = x[2 * p] - 1j * x[2 * p + 1]
            lam, vecs = np.linalg.eigh(generator)
            trial = vecs @ np.diag(np.exp(1j * lam)) @ vecs.conj().T @ overlaps
            trial_residual = (np.abs(trial) ** 2 - 1.0 / d).ravel()
            if trial_residual @ trial_residual < costs[-1]:
                overlaps, residual = trial, trial_residual
                current = _overlap_form(np.abs(trial) ** 2)
                damping = max(min(damping / 10.0, residual @ residual), DAMPING_FLOOR)
            else:
                damping *= 10.0
            costs.append(residual @ residual)
            trajectory.append((iteration, current))
            stalled = iteration >= STALL_WINDOW and costs[-1] > STALL_RATIO * costs[-1 - STALL_WINDOW]
            if damping > DAMPING_CEILING or stalled:
                break
        basis = ObservableBasis(fixed.vectors @ overlaps)
        if current > best_value:
            best_value, best_basis = current, basis
            best_deviation = float(np.abs(residual).max())
    certified, _ = mub_certificate(fixed, best_basis, config.tol_mub)
    return SearchResult(
        best_basis=best_basis,
        objective=best_value,
        certified_mub=certified,
        trajectory=tuple(trajectory),
        restarts_used=restarts_used,
    )


def gell_mann(d: int) -> np.ndarray:
    """The d^2 - 1 generalized Gell-Mann matrices as a read-only (d^2-1, d, d)
    stack, built one by one: the symmetric off-diagonal block, then the
    antisymmetric block (both lexicographic in the index pair), then the
    diagonal block. Each is traceless and Hermitian with
    Tr(G_i G_j) = 2 delta_ij; for d = 2 they are the Pauli matrices in order.
    The Bloch layer reads Tr(G_i M) off the entries of M instead."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    mats = []
    for a in range(d):
        for b in range(a + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[a, b] = 1.0
            m[b, a] = 1.0
            mats.append(m)
    for a in range(d):
        for b in range(a + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[a, b] = -1.0j
            m[b, a] = 1.0j
            mats.append(m)
    for level in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(level), np.arange(level)] = 1.0
        m[level, level] = -float(level)
        mats.append(m * math.sqrt(2.0 / (level * (level + 1))))
    gens = np.stack(mats)
    gens.setflags(write=False)
    return gens


def structure_tensors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(f, dsym): the totally antisymmetric and totally symmetric rank-3
    structure tensors f_ijk = Tr([G_i, G_j] G_k) / 4i and
    dsym_ijk = Tr({G_i, G_j} G_k) / 4, both from one pass over
    Tr(G_i G_j G_k). Dense, (d^2-1)^3 reals each: about 1 GiB at d = 16."""
    g = gell_mann(d)
    pair = np.einsum("iab,jbc->ijac", g, g)
    triple = np.einsum("ijab,kba->ijk", pair, g)
    del pair
    f = np.real((triple - triple.transpose(1, 0, 2)) / 4j)
    dsym = np.real((triple + triple.transpose(1, 0, 2)) / 4.0)
    return f, dsym
