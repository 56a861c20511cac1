"""Property tests of the (p, T, q) kernel at the edges of the range.

Contexts are drawn at d = 2..16 with near-pure states
(1 - delta) |psi><psi| + delta I/d, delta <= 1e-6, and near-commuting pairs,
whose second basis is exp(i delta H) applied to the first. Each slack below
is a forward rounding-error bound, with u the unit roundoff.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qincompat.core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    outcome_probabilities,
    random_observable_basis,
)
from qincompat.errors import ZeroInformationError
from qincompat.measures import (
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
    assert -slack <= forward <= 1.0 + slack
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
