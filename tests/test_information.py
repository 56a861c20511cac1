"""Every information the package returns against the 50-digit route of
``_oracles``, on the six kinds of test context and on contexts whose first
distribution lies from 1e-3 down to 1e-9 of uniform, the sweep of contexts
with little information, and its refusal of subnormal injections.

Each information is compared on the deviations the kernel reads, relatively
and absolutely; a difference of two informations (the context
incompatibility, the geometric and qubit forms) within either tolerance,
since its exact value may be 0.
"""

from functools import cache

import mpmath
import numpy as np
import pytest

from qincompat.bloch import (
    basis_to_bloch_frame,
    geometric_context_incompatibility,
    qubit_measures,
    state_to_bloch,
)
from qincompat.core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    _information,
    information,
    outcome_probabilities,
)
from qincompat.errors import ZeroInformationError
from qincompat.measures import ContextClass, classify_context, incompatibility_report
from qincompat.protocol import (
    apply_noise,
    default_epsilon_grid,
    noise_sweep,
    stinespring_ledger,
)

from _oracles import (
    EXACT_INFORMATION_ABS,
    EXACT_INFORMATION_REL,
    exact_information,
)
from _util import (
    commuting_context,
    eigenstate_context,
    mub_mixture_context,
    qubit_basis,
    random_context,
    zero_information_context,
)

NEAR_UNIFORM_DISTANCES = [1e-3, 1e-5, 1e-7, 1e-9]
RATIO_REL = 1e-12


def near_uniform_context(d: int, rng: np.random.Generator, distance: float) -> Context:
    """A random context whose state is mixed toward I/d until its first
    distribution lies ``distance`` from uniform."""
    ctx = random_context(d, rng)
    dev = outcome_probabilities(ctx.state, ctx.first) - 1.0 / d
    noisy = apply_noise(ctx.state, distance / float(np.linalg.norm(dev)))
    return Context(noisy, ctx.first, ctx.second)


def contexts(d: int) -> list[Context]:
    rng = np.random.default_rng(900 + d)
    return [
        random_context(d, rng),
        random_context(d, rng, pure=True),
        eigenstate_context(d, rng),
        commuting_context(d, rng),
        mub_mixture_context(d, rng),
        zero_information_context(d, rng),
    ] + [near_uniform_context(d, rng, distance) for distance in NEAR_UNIFORM_DISTANCES]


def assert_information(got: float, x: np.ndarray, scale: float = 1.0) -> None:
    """The kernel reads the information of p = (1 + scale x)/d, renormalized,
    only up to a factor 1 + m and m^2/2, for m = sum(scale x) / d."""
    exact = exact_information(x, scale)
    defect = scale * float(np.sum(x)) / len(x)
    error = abs(got - exact) - defect**2 / 2
    assert got >= 0.0
    assert error <= EXACT_INFORMATION_REL * exact, (got, exact)


def assert_difference(got: float, exact: mpmath.mpf) -> None:
    tol = max(EXACT_INFORMATION_REL * abs(exact), EXACT_INFORMATION_ABS)
    assert abs(got - exact) <= tol, (got, exact)


# either side of the series cutoff |x| = 1e-3, far from it, and near underflow
@pytest.mark.parametrize("a", [1e-3 * (1 - 1e-12), 1e-3, 1e-3 * (1 + 1e-12), 0.5, 1e-150])
def test_kernel_across_the_series_cutoff(a):
    for x in (np.array([a, -a]), np.array([2 * a, -a, -a])):
        assert_information(float(_information(x)), x)


@pytest.mark.parametrize("d", range(2, 17))
def test_report_ledger_and_state_information(d):
    for ctx in contexts(d):
        alpha, beta = ctx._record.rows
        report = incompatibility_report(ctx)
        ledger = stinespring_ledger(ctx)
        for got in (report.i_initial, ledger.i_initial):
            assert_information(got, alpha)
        for got in (report.i_final, ledger.i_final):
            assert_information(got, beta)
        assert report.i_context >= 0.0
        exact = exact_information(alpha) - exact_information(beta)
        assert_difference(report.i_context, max(exact, 0))
        assert_information(information(ctx.state), d * ctx.state.eigenvalues() - 1.0)


@pytest.mark.parametrize("d", range(2, 17))
def test_sweep_informations(d):
    drawn = contexts(d)
    informative = [ctx for ctx in drawn if classify_context(ctx) is not ContextClass.FREE_ZERO_INFO]
    # all but the zero-information and MUB-mixture kinds
    assert len(informative) == len(drawn) - 2
    for ctx in informative:
        alpha, beta = ctx._record.rows
        points = noise_sweep(ctx, default_epsilon_grid())
        assert len(points) == 20
        for point in points:
            assert_information(point.i_initial_eps, alpha, point.epsilon)
            assert_information(point.i_final_eps, beta, point.epsilon)


@cache
def commuting_contexts() -> dict[int, list[Context]]:
    """Ten commuting contexts per d = 2..16, drawn in turn from one stream. Here
    I(p) = I(q), and the unclamped gap rounds below 0 on 56 of these 150
    geometric gaps and on 4 of the 10 qubit ones."""
    rng = np.random.default_rng(5)
    return {d: [commuting_context(d, rng) for _ in range(10)] for d in range(2, 17)}


@pytest.mark.parametrize("d", range(2, 17))
def test_geometric_and_qubit_forms(d):
    for ctx in contexts(d) + commuting_contexts()[d]:
        alpha, beta = ctx._record.rows
        exact = exact_information(alpha) - exact_information(beta)
        r = state_to_bloch(ctx.state)
        xs, ys = basis_to_bloch_frame(ctx.first), basis_to_bloch_frame(ctx.second)
        gaps = [geometric_context_incompatibility(r, xs, ys)]
        if d == 2:
            gaps.append(qubit_measures(r.r, xs[0], ys[0])[0])
        for gap in gaps:
            assert gap >= 0.0
            assert_difference(gap, max(exact, 0))


class TestLowInformationSweep:
    """A qubit context a distance delta (max norm) from uniform in its first
    basis sweeps the whole default grid, where eps = 1e-4 injects about
    (2 eps delta)^2 / 2, and its ratios are those of the 50-digit route."""

    @pytest.mark.parametrize("delta", [5e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize(
        "second", [ObservableBasis.fourier(2), qubit_basis(1.0)], ids=["fourier", "tilted"]
    )
    def test_ratios_match_the_exact_route(self, delta, second):
        ctx = Context(
            DensityMatrix([[0.5 + delta, 0.3], [0.3, 0.5 - delta]]),
            ObservableBasis.computational(2),
            second,
        )
        alpha, beta = ctx._record.rows
        points = noise_sweep(ctx, default_epsilon_grid())
        assert len(points) == 20
        for point in points:
            i_p = exact_information(alpha, point.epsilon)
            i_q = exact_information(beta, point.epsilon)
            ratio = (i_p - i_q) / i_p
            assert abs(point.ratio_eps - ratio) <= RATIO_REL * abs(ratio), point


class TestSubnormalSweep:
    """An injected information below the smallest normal double has lost
    precision, so the sweep refuses it rather than print its ratio."""

    @staticmethod
    def context() -> Context:
        return Context(
            DensityMatrix([[0.8, 0.3], [0.3, 0.2]]),
            ObservableBasis.computational(2),
            qubit_basis(1.0),
        )

    @pytest.mark.parametrize("eps", [1e-154, 1e-158, 1e-160])
    def test_refused(self, eps):
        with pytest.raises(ZeroInformationError, match="underflowed"):
            noise_sweep(self.context(), [eps])

    def test_normal_injection_keeps_the_exact_ratio(self):
        ctx = self.context()
        alpha, beta = ctx._record.rows
        (point,) = noise_sweep(ctx, [1e-150])
        i_p = exact_information(alpha, 1e-150)
        ratio = (i_p - exact_information(beta, 1e-150)) / i_p
        assert abs(point.ratio_eps - ratio) <= RATIO_REL * abs(ratio)
