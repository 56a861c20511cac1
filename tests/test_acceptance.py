"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from qincompat.bloch import (
    basis_to_bloch_frame,
    geometric_context_incompatibility,
    geometric_leakage_ratio,
    geometric_measurement_incompatibility,
    star,
    state_to_bloch,
    wedge,
)
from qincompat.core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    dephase,
    information,
    random_density_matrix,
    random_observable_basis,
    transition_matrix,
)
from qincompat.measures import (
    ContextClass,
    classify_context,
    context_incompatibility,
    eigenstate_ratio,
    leakage_ratio,
    measurement_incompatibility,
)
from qincompat.mubsearch import SearchConfig, maximize_incompatibility, mub_certificate
from qincompat.protocol import (
    default_epsilon_grid,
    mass_model_context_incompat,
    noise_sweep,
    stinespring_ledger,
)

from _oracles import algebraic_incompatibility, gell_mann
from _util import (
    commuting_context,
    mub_mixture_context,
    random_context,
)

SEED = 0


def run_criterion(number: int, description: str, budget_seconds: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"runtime {elapsed:.1f}s exceeded the {budget_seconds}s budget"
        )
    except BaseException:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    print(
        f"criterion {number:2d} [{description}]: PASS "
        f"({elapsed:.2f}s < {budget_seconds:.0f}s)"
    )


def test_criterion_01_maximum_context_incompatibility():
    def body():
        for d in (2, 3, 4, 5):
            ctx = Context(
                DensityMatrix.pure(np.eye(d)[0]),
                ObservableBasis.computational(d),
                ObservableBasis.fourier(d),
            )
            assert abs(context_incompatibility(ctx) - math.log(d)) <= 1e-9

    run_criterion(1, "eigenstate + unbiased pair saturates ln d", 1.0, body)


def test_criterion_02_free_context_completeness():
    def body():
        rng = np.random.default_rng(SEED)
        for d in (2, 3):
            contexts = (
                [random_context(d, rng) for _ in range(300)]
                + [commuting_context(d, rng) for _ in range(100)]
                + [mub_mixture_context(d, rng) for _ in range(50)]
                + [
                    Context(
                        DensityMatrix.maximally_mixed(d),
                        random_observable_basis(d, rng),
                        random_observable_basis(d, rng),
                    )
                    for _ in range(50)
                ]
            )
            assert len(contexts) == 500
            for ctx in contexts:
                free = classify_context(ctx) is not ContextClass.RESOURCEFUL
                assert free == (context_incompatibility(ctx) <= 1e-9)

    run_criterion(2, "free classes are exactly the zero-resource contexts", 30.0, body)


def test_criterion_03_triple_formula_agreement():
    def body():
        rng = np.random.default_rng(SEED)
        for d in (2, 3, 4, 5):
            for _ in range(100):
                first = random_observable_basis(d, rng)
                second = random_observable_basis(d, rng)
                averaged = sum(
                    eigenstate_ratio(j, first, second) for j in range(d)
                ) / d
                overlap = measurement_incompatibility(first, second)
                proj_f, proj_s = first.projectors(), second.projectors()
                comm = np.einsum("jab,kbc->jkac", proj_f, proj_s) - np.einsum(
                    "kab,jbc->jkac", proj_s, proj_f
                )
                commutator = float(np.sum(np.abs(comm) ** 2)) / (2 * (d - 1))
                algebraic = algebraic_incompatibility(first, second) / (d - 1)
                forms = (averaged, overlap, commutator, algebraic)
                assert max(forms) - min(forms) <= 1e-10, forms

    run_criterion(3, "four incompatibility formulas agree to 1e-10", 60.0, body)


def test_criterion_04_qubit_closed_forms():
    from qincompat.bloch import qubit_measures

    def body():
        rng = np.random.default_rng(SEED)
        for _ in range(1000):
            ctx = random_context(2, rng)
            r = state_to_bloch(ctx.state)
            x_axis = basis_to_bloch_frame(ctx.first)[0]
            y_axis = basis_to_bloch_frame(ctx.second)[0]
            i_c, m = qubit_measures(r.r, x_axis, y_axis)
            assert abs(i_c - context_incompatibility(ctx)) <= 1e-10
            assert abs(m - measurement_incompatibility(ctx.first, ctx.second)) <= 1e-10
            assert abs(m - leakage_ratio(Context(
                DensityMatrix.pure(ctx.first.vectors[:, 0]), ctx.first, ctx.second
            ))) <= 1e-10

    run_criterion(4, "scalar qubit forms match the d-dimensional pipeline", 10.0, body)


def test_criterion_05_ledger_balance():
    def body():
        rng = np.random.default_rng(SEED)
        for d in (2, 3, 4):
            for _ in range(100):
                ctx = random_context(d, rng)
                ledger = stinespring_ledger(ctx)
                gap = (ledger.i_initial - ledger.i_final) - (
                    ledger.delta_apparatus + ledger.mutual_info
                )
                assert abs(gap) <= 1e-9

    run_criterion(5, "dilated-run information ledger balances", 60.0, body)


def test_criterion_06_small_noise_limit():
    def body():
        rng = np.random.default_rng(SEED)
        eps = 1e-3
        for d in (2, 3, 4):
            for _ in range(50):
                ctx = random_context(d, rng)
                base = leakage_ratio(ctx)
                point = noise_sweep(ctx, np.array([eps]))[0]
                assert abs(point.ratio_eps - base) / base <= 1e-4
                quadratic = eps**2 / 2 * (d * dephase(ctx.state, ctx.first).purity() - 1)
                assert abs(point.i_initial_eps - quadratic) / quadratic <= 0.01

    run_criterion(6, "entropic ratio meets the norm ratio at small noise", 60.0, body)


def test_criterion_07_geometric_equivalence():
    def body():
        rng = np.random.default_rng(SEED)
        for d in (2, 3, 4):
            n = d * d - 1
            gens = gell_mann(d)
            c_d = math.sqrt(d * (d - 1) / 2)
            gram = np.einsum("iab,jba->ij", gens, gens)
            assert np.max(np.abs(gram - 2 * np.eye(n))) <= 1e-10
            for _ in range(100):
                ctx = random_context(d, rng)
                r = state_to_bloch(ctx.state)
                xframe = basis_to_bloch_frame(ctx.first)
                yframe = basis_to_bloch_frame(ctx.second)

                assert abs(
                    geometric_context_incompatibility(r, xframe, yframe)
                    - context_incompatibility(ctx)
                ) <= 1e-9
                assert abs(
                    geometric_leakage_ratio(r, xframe, yframe) - leakage_ratio(ctx)
                ) <= 1e-9
                assert abs(
                    geometric_measurement_incompatibility(xframe, yframe)
                    - measurement_incompatibility(ctx.first, ctx.second)
                ) <= 1e-9

                frame_law = (np.eye(d) * d - 1.0) / (d - 1.0)
                assert np.max(np.abs(xframe @ xframe.T - frame_law)) <= 1e-10
                assert abs(
                    ctx.state.purity() - (1 + (d - 1) * r.norm() ** 2) / d
                ) <= 1e-10

                other = state_to_bloch(random_density_matrix(d, rng))
                left = np.tensordot(r.r, gens, 1) @ np.tensordot(other.r, gens, 1)
                right = (
                    2.0 / d * float(r.r @ other.r) * np.eye(d)
                    + 1j * np.tensordot(wedge(r, other).r, gens, 1)
                    + (d - 2) / c_d * np.tensordot(star(r, other).r, gens, 1)
                )
                assert np.max(np.abs(left - right)) <= 1e-10

    run_criterion(7, "vector-space forms match state-space forms", 120.0, body)


def test_criterion_08_mub_search():
    def body():
        for d, restarts in ((2, 20), (3, 20)):
            config = SearchConfig(dim=d, restarts=restarts, tol_mub=1e-6, seed=SEED)
            result = maximize_incompatibility(ObservableBasis.computational(d), config)
            assert result.objective >= 1.0 - 1e-6
            assert result.restarts_used <= 20
            certified, _ = mub_certificate(
                ObservableBasis.computational(d), result.best_basis, 1e-6
            )
            assert certified

        start = time.perf_counter()
        config = SearchConfig(dim=5, restarts=12, max_iters=1200, seed=SEED)
        result = maximize_incompatibility(ObservableBasis.computational(5), config)
        assert result.objective >= 1.0 - 1e-4
        assert time.perf_counter() - start < 60.0

    run_criterion(8, "optimizer finds unbiased partners at d = 2, 3, 5", 120.0, body)


def test_criterion_09_noise_monotonicity():
    def body():
        rng = np.random.default_rng(SEED)
        grid = default_epsilon_grid()
        for d in (2, 3):
            for _ in range(50):
                ctx = random_context(d, rng)
                i_full = information(dephase(ctx.state, ctx.first))
                i_ctx = context_incompatibility(ctx)
                for point in noise_sweep(ctx, grid):
                    consumed = point.i_initial_eps - point.i_final_eps
                    assert consumed <= point.epsilon * i_ctx + 1e-9
                    assert point.i_initial_eps <= point.epsilon * i_full + 1e-9

    run_criterion(9, "noise never amplifies resource or information", 30.0, body)


def test_criterion_10_weak_measurement_limit():
    def body():
        ctx = Context(
            DensityMatrix.pure([1.0, 0.0]),
            ObservableBasis.computational(2),
            ObservableBasis.fourier(2),
        )
        projective = context_incompatibility(ctx)
        grid = np.linspace(1e-4, 12.0, 30)
        values = [mass_model_context_incompat(ctx, m, "saturating") for m in grid]
        for lighter, heavier in zip(values, values[1:]):
            assert lighter <= heavier + 1e-12
        assert values[0] <= 1e-2
        assert mass_model_context_incompat(ctx, 1e-7, "saturating") <= 1e-5
        assert abs(
            mass_model_context_incompat(ctx, 50.0, "saturating") - projective
        ) <= 1e-9
        assert abs(
            mass_model_context_incompat(ctx, 2.0, "linear") - projective
        ) <= 1e-9

    run_criterion(10, "heavy-pointer limit kills the resource smoothly", 5.0, body)
