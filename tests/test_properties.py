"""Property tests of the closed-form kernel and the Bloch layer at the edges
of the range.

Contexts are drawn at d = 2..16 with near-pure states
(1 - delta) |psi><psi| + delta I/d, delta <= 1e-6, and near-commuting pairs,
whose second basis is exp(i delta H) applied to the first; spectra are drawn
near-degenerate, down to just above the spacing that ``ObservableBasis``
rejects. Each slack below is a forward rounding-error bound, with u the unit
roundoff.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qincompat.bloch import (
    basis_to_bloch_frame,
    bloch_to_state,
    state_to_bloch,
)
from qincompat.core import (
    EIGENVALUE_SPACING_TOL,
    Context,
    DensityMatrix,
    ObservableBasis,
    outcome_probabilities,
    random_observable_basis,
    transition_matrix,
)
from qincompat.errors import ZeroInformationError
from qincompat.measures import (
    classify_context,
    context_incompatibility,
    incompatibility_report,
    leakage_ratio,
    measurement_incompatibility,
)
from qincompat.mubsearch import SearchConfig, maximize_incompatibility, mub_certificate
from qincompat.protocol import apply_noise, stinespring_ledger

from _oracles import born_diagonal
from _util import (
    commuting_context,
    eigenstate_context,
    mub_mixture_context,
    random_context,
    zero_information_context,
)

U = np.finfo(float).eps / 2

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None)

CONTEXT_KINDS = (
    random_context,
    lambda d, rng: random_context(d, rng, pure=True),
    eigenstate_context,
    commuting_context,
    mub_mixture_context,
    zero_information_context,
)


def small_rotation(d: int, angle: float, rng: np.random.Generator) -> np.ndarray:
    """exp(i angle H) for a Hermitian H with standard-normal entries."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    vals, vecs = np.linalg.eigh((g + g.conj().T) / 2.0)
    return (vecs * np.exp(1j * angle * vals)) @ vecs.conj().T


@st.composite
def contexts(draw) -> Context:
    d = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixing = draw(st.floats(0.0, 1e-6))
    rotation_angle = draw(st.floats(0.0, 1e-6))

    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    ket /= np.linalg.norm(ket)
    rho = (1.0 - mixing) * np.outer(ket, ket.conj()) + mixing * np.eye(d) / d

    first = random_observable_basis(d, rng)
    second = ObservableBasis(small_rotation(d, rotation_angle, rng) @ first.vectors)
    return Context(DensityMatrix(rho), first, second)


@st.composite
def near_degenerate_spectra(draw, d: int) -> np.ndarray:
    """d eigenvalues around a scale in [1e-3, 1e6], shuffled, with every
    spacing between 1.01 and 1000 times the smallest that ObservableBasis
    accepts there."""
    scale = 10.0 ** draw(st.floats(-3.0, 6.0))
    factors = draw(st.lists(st.floats(1.01, 1e3), min_size=d - 1, max_size=d - 1))
    # the largest eigenvalue stays below 1.02 * scale, so this clears
    # EIGENVALUE_SPACING_TOL * max(1, |largest|) whenever a factor is >= 1.01
    unit = EIGENVALUE_SPACING_TOL * max(1.0, 1.02 * scale)
    values = scale + np.concatenate([[0.0], np.cumsum(np.array(factors) * unit)])
    return values[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(d)]


def overlap_form_slack(d: int) -> float:
    # each T_jk = |<x_j|y_k>|^2 is off by at most ~4 d u (a d-term complex
    # inner product, then squared); sum T^2 gathers 2 d^2 such errors on
    # entries <= 1 plus d^2 u of summation, and the result is divided by d - 1
    return (8 * d**3 + d**2) * U / (d - 1)


@PROPERTY_SETTINGS
@given(contexts())
def test_born_product_matches_the_three_operand_contraction(ctx):
    # both are two d-term sums over |x_a| |rho_ab| |x_b|, whose total is at
    # most 1 for a state, so each is within ~2 d eps = 4 d u of the exact value
    for basis in (ctx.first, ctx.second):
        diag = born_diagonal(ctx.state.entries, basis)
        gap = np.abs(outcome_probabilities(ctx.state, basis) - diag.real).max()
        assert gap <= 8 * ctx.dim * U


@PROPERTY_SETTINGS
@given(contexts())
def test_measurement_incompatibility_is_bounded_and_symmetric(ctx):
    slack = overlap_form_slack(ctx.dim)
    forward = measurement_incompatibility(ctx.first, ctx.second)
    backward = measurement_incompatibility(ctx.second, ctx.first)
    assert 0.0 <= forward <= 1.0
    # T(Y, X) is T(X, Y) transposed but rounded through a different product
    assert abs(forward - backward) <= 2 * slack


@PROPERTY_SETTINGS
@given(contexts())
def test_leakage_ratio_is_bounded_where_defined(ctx):
    d = ctx.dim
    p = outcome_probabilities(ctx.state, ctx.first)
    spread = float(np.sum((p - 1.0 / d) ** 2))
    try:
        ratio = leakage_ratio(ctx)
    except ZeroInformationError:
        return
    # with q = T^T p and T doubly stochastic, sum T (p - q)^2 <= ||p - 1/d||^2
    # for every vector p; rounding enters through T (relative 16 d^2 u on the
    # numerator) and through q (absolute ~5 d u per entry, which moves the
    # numerator by 2 * 5 d u sqrt(d * spread) by Cauchy-Schwarz)
    slack = 16 * d**2 * U + 10 * d * U * math.sqrt(d / spread)
    assert 0.0 <= ratio <= 1.0 + slack


@PROPERTY_SETTINGS
@given(contexts())
def test_context_incompatibility_is_nonnegative_and_reported(ctx):
    d = ctx.dim
    record = ctx._record
    # H(T^T p) >= H(p) for doubly stochastic T; T's rounding (~4 d u per
    # entry) lowers a q_k by at most 4 d u p_k, moving H by 4 d u (p|ln p| + p)
    # per entry, and the d-term entropy sums round within 2 (d + 2) u ln d
    gap = record.i_initial - record.i_final
    assert gap >= -(4 * d**2 + 2 * (d + 2) * math.log(d)) * U
    # that rounding is clamped, and the report reads the clamped value
    value = context_incompatibility(ctx)
    assert value == max(gap, 0.0)
    assert incompatibility_report(ctx).i_context == value


@st.composite
def low_information_contexts(draw) -> Context:
    """A context of one of the six test kinds at d = 2..16, its state mixed
    toward I/d with a strength down to 1e-12, so that its informations range
    from ln d down to rounding."""
    d = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ctx = draw(st.sampled_from(CONTEXT_KINDS))(d, rng)
    strength = 10.0 ** draw(st.floats(-12.0, 0.0))
    return Context(apply_noise(ctx.state, strength), ctx.first, ctx.second)


@PROPERTY_SETTINGS
@given(low_information_contexts())
def test_no_information_is_negative(ctx):
    report = incompatibility_report(ctx)
    ledger = stinespring_ledger(ctx)
    for value in (report.i_initial, report.i_final, report.i_context):
        assert value >= 0.0
    assert (ledger.i_initial, ledger.i_final) == (report.i_initial, report.i_final)


@PROPERTY_SETTINGS
@given(contexts())
def test_ledger_balances(ctx):
    ledger = stinespring_ledger(ctx)
    gap = (ledger.i_initial - ledger.i_final) - (ledger.delta_apparatus + ledger.mutual_info)
    # three rounded fields and four rounded sums, each of a number below
    # 2 ln d and so off by at most 2 u ln d
    assert abs(gap) <= 14 * math.log(ctx.dim) * U


@PROPERTY_SETTINGS
@given(contexts(), st.data())
def test_report_ignores_near_degenerate_spectra(ctx, data):
    d = ctx.dim
    relabeled = Context(
        ctx.state,
        ObservableBasis(ctx.first.vectors, data.draw(near_degenerate_spectra(d))),
        ObservableBasis(ctx.second.vectors, data.draw(near_degenerate_spectra(d))),
    )
    # bit-identical: the class, like every measure, reads only p and T
    assert incompatibility_report(relabeled) == incompatibility_report(ctx)
    assert classify_context(relabeled) is classify_context(ctx)


def trace_component_error(d: int) -> float:
    # Tr(A G_i) with ||A||_F <= 1 and ||G_i||_F = sqrt(2) is read off at most
    # d entries of A, weighted by those of G_i; (d^2 + 4) u sqrt(2), the bound
    # for a d^2-term sum of complex products, covers it
    return (d**2 + 4) * math.sqrt(2) * U


@PROPERTY_SETTINGS
@given(contexts())
def test_bloch_round_trip_and_frame_identity(ctx):
    d = ctx.dim

    back = bloch_to_state(state_to_bloch(ctx.state))
    # the rebuilt entry (a, b) is (delta_ab + (d/2) sum_i Tr(rho G_i) G_i[a, b]) / d,
    # and sum_i |G_i[a, b]| <= 2 d, so the trace errors move it by at most
    # d * trace_component_error plus as much again for the sum over i
    entry_error = 2 * d * trace_component_error(d) + 4 * U
    # DensityMatrix may clip an eigenvalue pushed below zero by that error (at
    # most d * entry_error in spectral norm), renormalize the spectrum (the same
    # again) and rebuild through eigh (backward error within d^2 u)
    slack = (2 * d + 1) * entry_error + d**2 * U
    assert np.max(np.abs(back.entries - ctx.state.entries)) <= slack

    xs = basis_to_bloch_frame(ctx.first)
    ys = basis_to_bloch_frame(ctx.second)
    trans = transition_matrix(ctx.first, ctx.second)
    # for columns with ||x||^2 = 1 + eta the exact dot is
    # (d/(d-1)) (T_jk - ||x_j||^2 ||y_k||^2 / d), so the bases' normalization
    # defect eta enters as (2 eta + eta^2) / (d - 1)
    eta = max(
        float(np.max(np.abs(np.sum(np.abs(b.vectors) ** 2, axis=0) - 1.0)))
        for b in (ctx.first, ctx.second)
    )
    # each frame component is a scaled trace off by trace_component_error;
    # frame vectors are unit vectors, so the (d^2 - 1)-term dot gathers at most
    # 2 sqrt(d^2 - 1) of those plus d^2 u of summation, and T_jk (off by 4 d u)
    # enters with a factor d / (d - 1) <= 2
    slack = (
        2 * math.sqrt(d**2 - 1) * trace_component_error(d)
        + d**2 * U
        + 8 * d * U
        + (2 * eta + eta**2) / (d - 1)
    )
    # x_j . y_k = (d T_jk - 1) / (d - 1)
    assert np.max(np.abs(xs @ ys.T - (d * trans - 1) / (d - 1))) <= slack


RELABELINGS = ("global unitary", "vector phases", "first outcomes", "second outcomes", "conjugation")


def relabel(ctx: Context, relabeling: str, rng: np.random.Generator) -> Context:
    """The same context in other coordinates: every measure is a function of
    p and T, which none of these changes."""
    rho, first, second = ctx.state.entries, ctx.first.vectors, ctx.second.vectors
    d = ctx.dim
    if relabeling == "global unitary":
        v = random_observable_basis(d, rng).vectors
        rho, first, second = v @ rho @ v.conj().T, v @ first, v @ second
    elif relabeling == "vector phases":
        first = first * np.exp(2j * np.pi * rng.uniform(size=d))
        second = second * np.exp(2j * np.pi * rng.uniform(size=d))
    elif relabeling == "first outcomes":
        first = first[:, rng.permutation(d)]
    elif relabeling == "second outcomes":
        second = second[:, rng.permutation(d)]
    else:
        rho, first, second = rho.conj(), first.conj(), second.conj()
    return Context(DensityMatrix(rho), ObservableBasis(first), ObservableBasis(second))


def entropy_slack(d: int, t: float) -> float:
    # the record's information is sum_j p_j ln p_j + (1 + m) ln d - m with
    # m = sum p - 1; entries off by t move -t ln t, the continuity bound of
    # p ln p for t <= 1/2, plus t (ln d + 1) through m, per entry, and each
    # route's d-term Csiszar sum rounds within (d + 4)(1 + ln d) u
    return d * (t * (1.0 - math.log(t)) + t * math.log(d)) + 2 * (d + 4) * (1 + math.log(d)) * U


def report_slack(d: int, spread: float) -> dict[str, float]:
    """How far two routes to one report may differ when each route's Born
    probabilities p and squared overlaps T are within delta of the exact ones.

    delta = 24 d^2 u covers the global unitary, the loosest relabeling: V rho
    V^H and V x are off by about 8 d^1.5 u in Frobenius norm, moving p by
    16 d^1.5 u and T by as much, and each route's Born and overlap products
    add 4 d u per entry. q = T^T p is then off by 3 delta, as T's columns sum
    to 1. ``spread`` is ||alpha||^2 of alpha = d p - 1.
    """
    delta = 24 * d**2 * U
    i_initial, i_final = entropy_slack(d, delta), entropy_slack(d, 3 * delta)
    # sum |T^2 - T'^2| <= sum (2 T + delta) delta <= 4 d delta, and each route
    # sums d^2 squares
    m_measurement = (4 * d * delta + 2 * d**2 * U) / (d - 1)
    # alpha, beta = T^T alpha in [-1, d - 1] are off by d delta and 3 d delta,
    # so |alpha_j - beta_k| <= d and sum T = d bound the numerator's change;
    # ||alpha||_1 <= 2 (d - 1) bounds the denominator's
    numerator = d**4 * delta + 8 * d**3 * delta + 2 * d**4 * U
    denominator = 5 * d**2 * delta + 2 * d * U * spread
    ratio = (numerator + denominator) / max(spread - denominator, U)
    return dict(
        i_initial=i_initial,
        i_final=i_final,
        i_context=i_initial + i_final,
        m_measurement=m_measurement,
        ratio=ratio,
    )


@PROPERTY_SETTINGS
@given(
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from(CONTEXT_KINDS),
    st.sampled_from(RELABELINGS),
)
def test_report_is_invariant_under_relabelings(d, seed, kind, relabeling):
    rng = np.random.default_rng(seed)
    ctx = kind(d, rng)
    spread = float(ctx._record.rows[0] @ ctx._record.rows[0])
    # ||p - 1/d|| is either rounding, for the zero-information kinds, or far
    # above the 1e-10 rule, so no relabeling can flip ``ratio is None``
    assume(math.sqrt(spread) / d < 1e-13 or math.sqrt(spread) / d > 1e-4)
    report = incompatibility_report(ctx)
    other = incompatibility_report(relabel(ctx, relabeling, rng))
    assert other.classification is report.classification
    assert (other.ratio is None) == (report.ratio is None)
    for field, slack in report_slack(d, spread).items():
        if getattr(report, field) is not None:
            assert abs(getattr(other, field) - getattr(report, field)) <= slack, field


@st.composite
def basis_pairs(draw) -> tuple[ObservableBasis, ObservableBasis]:
    """A Haar basis and a partner at d = 2..16: the basis itself, its Fourier
    transform (unbiased to it) or another Haar basis, each turned by
    exp(i delta H) with delta <= 1e-6, so both ends of M are drawn."""
    d = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = random_observable_basis(d, rng)
    partner = draw(st.sampled_from(["same", "fourier", "haar"]))
    if partner == "same":
        second = first.vectors
    elif partner == "fourier":
        second = first.vectors @ ObservableBasis.fourier(d).vectors
    else:
        second = random_observable_basis(d, rng).vectors
    return first, ObservableBasis(small_rotation(d, draw(st.floats(0.0, 1e-6)), rng) @ second)


@PROPERTY_SETTINGS
@given(basis_pairs())
def test_overlap_residuals_sum_to_the_incompatibility_deficit(pair):
    # sum_jk (T_jk - 1/d)^2 = sum T^2 - (2/d) sum T + 1 = (d - 1)(1 - M)
    # whenever sum T = d, so a root of the residuals is a maximum of M
    first, second = pair
    d = first.dim
    trans = transition_matrix(first, second)
    residuals = float(np.sum((trans - 1.0 / d) ** 2))
    deficit = (d - 1) * (1.0 - measurement_incompatibility(first, second))
    # both sides read the same T: each sums d^2 rounded terms of a total
    # below d + 1, and the unitarity defect of the bases enters through
    # (2/d)(sum T - d)
    slack = 2 * (d**2 + 4) * (d + 1) * U + 2 * abs(float(trans.sum()) - d) / d
    assert abs(residuals - deficit) <= slack


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 60),
    st.floats(-10.0, -3.0),
    st.integers(0, 2**31 - 1),
)
def test_search_invariants(d, fixed_seed, restarts, max_iters, log_tol, seed):
    fixed = random_observable_basis(d, np.random.default_rng(fixed_seed))
    config = SearchConfig(
        dim=d, restarts=restarts, max_iters=max_iters, tol_mub=10.0**log_tol, seed=seed
    )
    result = maximize_incompatibility(fixed, config)

    values = [value for _, value in result.trajectory]
    assert sum(1 for iteration, _ in result.trajectory if iteration == 0) == result.restarts_used
    for (iteration, value), (previous_iteration, previous) in zip(
        result.trajectory[1:], result.trajectory
    ):
        if iteration != 0:
            assert iteration == previous_iteration + 1
            assert value >= previous
    assert result.objective == max(values)
    assert abs(result.objective - measurement_incompatibility(fixed, result.best_basis)) <= 1e-12
    certified, _ = mub_certificate(fixed, result.best_basis, config.tol_mub)
    assert result.certified_mub == certified
