"""Property tests of the (p, T, q) kernel and the Bloch layer at the edges
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
from hypothesis import given, settings
from hypothesis import strategies as st

from qincompat.bloch import (
    basis_to_bloch_frame,
    bloch_to_state,
    build_generators,
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
from qincompat.protocol import stinespring_ledger

U = np.finfo(float).eps / 2

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None)


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
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    vals, vecs = np.linalg.eigh((g + g.conj().T) / 2.0)
    rotation = (vecs * np.exp(1j * rotation_angle * vals)) @ vecs.conj().T
    second = ObservableBasis(rotation @ first.vectors)
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
    value = context_incompatibility(ctx)
    # H(T^T p) >= H(p) for doubly stochastic T; T's rounding (~4 d u per
    # entry) lowers a q_k by at most 4 d u p_k, moving H by 4 d u (p|ln p| + p)
    # per entry, and the d-term entropy sums round within 2 (d + 2) u ln d
    assert value >= -(4 * d**2 + 2 * (d + 2) * math.log(d)) * U
    report = incompatibility_report(ctx)
    # the report forms (ln d - H(p)) - (ln d - H(q)): four roundings of
    # numbers below 2 ln d
    assert abs(report.i_context - value) <= 8 * math.log(d) * U


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
    # Tr(A G_i) with ||A||_F <= 1 and ||G_i||_F = sqrt(2) is a d^2-term sum
    # of complex products, so it is off by at most (d^2 + 4) u sqrt(2)
    return (d**2 + 4) * math.sqrt(2) * U


@PROPERTY_SETTINGS
@given(contexts())
def test_bloch_round_trip_and_frame_identity(ctx):
    d = ctx.dim
    gens = build_generators(d)

    back = bloch_to_state(state_to_bloch(ctx.state, gens), gens)
    # the rebuilt entry (a, b) is (delta_ab + (d/2) sum_i Tr(rho G_i) G_i[a, b]) / d,
    # and sum_i |G_i[a, b]| <= 2 d, so the trace errors move it by at most
    # d * trace_component_error plus as much again for the d^2-term sum over i
    entry_error = 2 * d * trace_component_error(d) + 4 * U
    # DensityMatrix may clip an eigenvalue pushed below zero by that error (at
    # most d * entry_error in spectral norm), renormalize the spectrum (the same
    # again) and rebuild through eigh (backward error within d^2 u)
    slack = (2 * d + 1) * entry_error + d**2 * U
    assert np.max(np.abs(back.entries - ctx.state.entries)) <= slack

    xs = np.stack([x.r for x in basis_to_bloch_frame(ctx.first, gens)])
    ys = np.stack([y.r for y in basis_to_bloch_frame(ctx.second, gens)])
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
