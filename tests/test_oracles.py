"""The closed-form (p, T, q) measures and the transfer-matrix channel check
against the operator routes of ``_oracles``."""

import math

import numpy as np
import pytest

from qincompat.core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    random_observable_basis,
    sequential_dephase,
    transition_matrix,
)
from qincompat.errors import ChannelValidationError, ZeroInformationError
from qincompat.measures import (
    ZERO_INFO_NORM_TOL,
    ContextClass,
    _commutation_gaps,
    _commutator_norm,
    _transfer_matrix,
    classify_context,
    context_incompatibility,
    depolarizing_kraus,
    leakage_ratio,
    measurement_incompatibility,
    monotonicity_check,
    validate_free_operation,
)
from qincompat.mubsearch import SearchConfig, maximize_incompatibility
from qincompat.protocol import apply_noise, default_epsilon_grid, stinespring_ledger

from _oracles import (
    DILATION_TRACE_TOL,
    FORM_AGREEMENT_TOL,
    NORM_CHECK_FLOOR,
    RATIO_INVARIANCE_TOL,
    TRANSFER_AGREEMENT_TOL,
    apply_kraus,
    commutator_incompatibility,
    dilation_ledger,
    matrix_unit_gaps,
    matrix_unit_verdict,
    operator_classification,
    operator_leakage,
    projector_commutator_norm,
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
COMMUTATOR_NORM_AGREEMENT = 1e-13
ROTATION_ANGLES = [0.0] + [10.0**k for k in range(-14, 1, 2)]


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
        if math.sqrt(denominator) <= ZERO_INFO_NORM_TOL:
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
def test_commutator_norm_from_t_matches_projector_commutators(d):
    # second basis exp(i theta H) X: exactly commuting at theta = 0, then
    # from below the 1e-10 classifier threshold up to a generic pair
    rng = np.random.default_rng(700 + d)
    first = random_observable_basis(d, rng)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    vals, vecs = np.linalg.eigh((g + g.conj().T) / 2.0)
    for theta in ROTATION_ANGLES:
        rotation = (vecs * np.exp(1j * theta * vals)) @ vecs.conj().T
        second = ObservableBasis(rotation @ first.vectors)
        from_t = _commutator_norm(transition_matrix(first, second))
        from_projectors = projector_commutator_norm(first, second)
        assert abs(from_t - from_projectors) <= COMMUTATOR_NORM_AGREEMENT
    assert _commutator_norm(transition_matrix(first, first)) <= 1e-14


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


def channels(d: int) -> list[tuple[str, list[np.ndarray], ObservableBasis, ObservableBasis]]:
    """(name, Kraus operators, first basis, second basis) of three free
    channels and four that each violate a different condition."""
    rng = np.random.default_rng(700 + d)
    first = random_observable_basis(d, rng)
    second = random_observable_basis(d, rng)
    commuting = commuting_context(d, rng)
    haar = random_observable_basis(d, rng).vectors
    phases = np.exp(2j * np.pi * rng.uniform(size=d))
    gamma = 0.3
    damping = [np.diag([1.0] + [math.sqrt(1 - gamma)] * (d - 1)).astype(complex)]
    for j in range(1, d):
        op = np.zeros((d, d), dtype=complex)
        op[0, j] = math.sqrt(gamma)
        damping.append(op)
    lowering = np.zeros((d, d), dtype=complex)
    lowering[0, 1] = 1.0
    return [
        ("identity", [np.eye(d, dtype=complex)], first, second),
        ("depolarizing", depolarizing_kraus(d, 0.3), first, second),
        ("dephasing", list(commuting.first.projectors()), commuting.first, commuting.second),
        ("random unitary", [haar], first, second),
        ("phase", [(first.vectors * phases) @ first.vectors.conj().T], first, second),
        ("amplitude damping", damping, first, second),
        ("not trace preserving", [lowering, np.diag([0.0] + [1.0] * (d - 1))], first, second),
    ]


def transfer_verdict(kraus, first, second) -> str | None:
    try:
        validate_free_operation(kraus, first, second)
    except ChannelValidationError as err:
        return str(err)
    return None


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_channel_check_matches_matrix_unit_loop(d):
    verdicts = {}
    for name, kraus, first, second in channels(d):
        verdicts[name] = transfer_verdict(kraus, first, second)
        assert verdicts[name] == matrix_unit_verdict(kraus, first, second), name
        gaps = _commutation_gaps(_transfer_matrix(np.array(kraus)), first, second)
        for transfer_gaps, loop_gaps in zip(gaps, matrix_unit_gaps(kraus, first, second)):
            assert np.max(np.abs(transfer_gaps - loop_gaps)) <= TRANSFER_AGREEMENT_TOL, name
    # every verdict the check can reach beyond the shape and finiteness tests
    assert verdicts == {
        "identity": None,
        "depolarizing": None,
        "dephasing": None,
        "random unitary": "channel does not commute with the first dephasing map",
        "phase": "channel does not commute with the sequential dephasing map",
        "amplitude damping": "channel is not unital",
        "not trace preserving": "channel is not trace preserving",
    }


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_transfer_matrix_applies_the_channel(d):
    rho = random_context(d, np.random.default_rng(800 + d)).state.entries
    for name, kraus, _, _ in channels(d):
        mapped = (_transfer_matrix(np.array(kraus)) @ rho.ravel()).reshape(d, d)
        assert np.max(np.abs(mapped - apply_kraus(rho, kraus))) <= TRANSFER_AGREEMENT_TOL, name


@pytest.mark.parametrize("d", [3, 4])
def test_monotonicity_check_maps_the_state_through_the_channel(d):
    # a mixture of cyclic shifts by 0, 1 and 2 is free for the
    # computational-Fourier pair; its unequal weights make its action on the
    # Born distribution differ from that of the transposed transfer matrix
    ctx = random_context(d, np.random.default_rng(900 + d))
    ctx = Context(ctx.state, ObservableBasis.computational(d), ObservableBasis.fourier(d))
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    kraus = [
        math.sqrt(weight) * np.linalg.matrix_power(shift, power)
        for power, weight in enumerate([1 / 2, 1 / 3, 1 / 6])
    ]
    mapped = DensityMatrix(apply_kraus(ctx.state.entries, kraus))
    expected = context_incompatibility(Context(mapped, ctx.first, ctx.second))
    assert monotonicity_check(ctx, kraus)[1] == pytest.approx(expected, abs=1e-12)


def test_depolarizing_channel_passes_at_d16():
    ctx = random_context(16, np.random.default_rng(816))
    before, after = monotonicity_check(ctx, depolarizing_kraus(16, 0.3))
    assert after <= 0.7 * before + 1e-9
