"""The closed-form (p, T, q) measures against the operator routes of ``_oracles``."""

import numpy as np
import pytest

from qincompat.core import Context, DensityMatrix, ObservableBasis, sequential_dephase
from qincompat.errors import ZeroInformationError
from qincompat.measures import (
    ZERO_INFO_DENOMINATOR_TOL,
    ContextClass,
    classify_context,
    leakage_ratio,
    measurement_incompatibility,
)
from qincompat.mubsearch import SearchConfig, maximize_incompatibility
from qincompat.protocol import apply_noise, default_epsilon_grid, stinespring_ledger

from _oracles import (
    DILATION_TRACE_TOL,
    FORM_AGREEMENT_TOL,
    NORM_CHECK_FLOOR,
    RATIO_INVARIANCE_TOL,
    commutator_incompatibility,
    dilation_ledger,
    operator_classification,
    operator_leakage,
)
from _util import (
    commuting_context,
    eigenstate_context,
    mub_mixture_context,
    random_context,
    zero_information_context,
)

DIMS = [2, 3, 4, 8, 16]
LEDGER_TOL = 1e-10
LEDGER_FIELDS = ("i_initial", "i_final", "delta_apparatus", "mutual_info")


def contexts(d: int) -> list[Context]:
    """Mixed, pure, commuting, eigenstate, MUB eigenstate (p is a vertex and
    q uniform), MUB mixture (p uniform) and zero information."""
    rng = np.random.default_rng(600 + d)
    return [
        random_context(d, rng),
        random_context(d, rng, pure=True),
        commuting_context(d, rng),
        eigenstate_context(d, rng),
        Context(
            DensityMatrix.pure(np.eye(d)[0]),
            ObservableBasis.computational(d),
            ObservableBasis.fourier(d),
        ),
        mub_mixture_context(d, rng),
        zero_information_context(d, rng),
    ]


@pytest.mark.parametrize("d", DIMS)
def test_commutator_form_matches_overlap_form(d):
    for ctx in contexts(d):
        assert abs(
            measurement_incompatibility(ctx.first, ctx.second)
            - commutator_incompatibility(ctx.first, ctx.second)
        ) <= FORM_AGREEMENT_TOL


@pytest.mark.parametrize("d", DIMS)
def test_operator_ratio_matches_kernel_clean_and_noisy(d):
    # sigma_eps - I/d = eps (sigma - I/d) and tau_eps - sigma_eps = eps (tau - sigma),
    # so every noisy operator ratio equals the clean closed-form ratio
    checked_noisy = 0
    for ctx in contexts(d):
        numerator, denominator = operator_leakage(ctx)
        if denominator <= ZERO_INFO_DENOMINATOR_TOL:
            with pytest.raises(ZeroInformationError):
                leakage_ratio(ctx)
            continue
        ratio = leakage_ratio(ctx)
        assert abs(numerator / denominator - ratio) <= RATIO_INVARIANCE_TOL
        for eps in default_epsilon_grid():
            noisy = Context(apply_noise(ctx.state, eps), ctx.first, ctx.second)
            numerator, denominator = operator_leakage(noisy)
            if denominator > NORM_CHECK_FLOOR:
                assert abs(numerator / denominator - ratio) <= RATIO_INVARIANCE_TOL
                checked_noisy += 1
    assert checked_noisy > 0


@pytest.mark.parametrize("d", DIMS)
def test_dilation_matches_closed_form_ledger(d):
    for ctx in contexts(d):
        entry, system = dilation_ledger(ctx, +1)
        expected = sequential_dephase(ctx.state, ctx.first, ctx.second).entries
        assert np.max(np.abs(system - expected)) <= DILATION_TRACE_TOL
        ledger = stinespring_ledger(ctx)
        for field in LEDGER_FIELDS:
            assert getattr(ledger, field) == pytest.approx(
                getattr(entry, field), abs=LEDGER_TOL
            ), field


@pytest.mark.parametrize("d", DIMS)
def test_zero_information_class_matches_operator_test(d):
    cases = contexts(d)
    classes = [classify_context(ctx) for ctx in cases]
    assert classes == [operator_classification(ctx) for ctx in cases]
    assert ContextClass.FREE_ZERO_INFO in classes


@pytest.mark.parametrize("d", [3, 5])
def test_search_result_passes_the_commutator_form(d):
    fixed = ObservableBasis.computational(d)
    config = SearchConfig(dim=d, restarts=3, max_iters=300, seed=0)
    result = maximize_incompatibility(fixed, config)
    assert abs(
        result.objective - commutator_incompatibility(fixed, result.best_basis)
    ) <= FORM_AGREEMENT_TOL
