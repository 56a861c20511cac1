"""Context and measurement incompatibility measures, classifier, monotone."""

import math

import numpy as np
import pytest

from qincompat.core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    random_density_matrix,
    random_observable_basis,
    transition_matrix,
)
from qincompat.errors import (
    ChannelValidationError,
    DimensionMismatchError,
    ZeroInformationError,
)
from qincompat.measures import (
    ContextClass,
    algebraic_incompatibility,
    classify_context,
    coherence_form,
    context_incompatibility,
    depolarizing_kraus,
    eigenstate_ratio,
    incompatibility_report,
    leakage_ratio,
    measurement_incompatibility,
    monotonicity_check,
    validate_free_operation,
)

from _oracles import apply_kraus
from _util import (
    commuting_context,
    eigenstate_context,
    mub_mixture_context,
    qubit_basis,
    random_context,
)

H34 = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))  # binary entropy of 3/4


def mub_eigenstate_context(d: int) -> Context:
    return Context(
        DensityMatrix.pure(np.eye(d)[0]),
        ObservableBasis.computational(d),
        ObservableBasis.fourier(d),
    )


class TestContextIncompatibility:
    def test_commuting_contexts_are_free(self):
        rng = np.random.default_rng(101)
        for d in (2, 3, 4):
            ctx = commuting_context(d, rng)
            assert context_incompatibility(ctx) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_mub_eigenstate_reaches_log_d(self, d):
        assert context_incompatibility(mub_eigenstate_context(d)) == pytest.approx(
            math.log(d), abs=1e-12
        )

    def test_qubit_sixty_degrees(self):
        ctx = Context(
            DensityMatrix.pure([1.0, 0.0]),
            ObservableBasis.computational(2),
            qubit_basis(math.pi / 3),
        )
        assert context_incompatibility(ctx) == pytest.approx(H34, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            assert context_incompatibility(random_context(3, rng)) >= -1e-10

    def test_matches_relative_entropy_route(self):
        rng = np.random.default_rng(103)
        for d in (2, 3, 4):
            for _ in range(20):
                ctx = random_context(d, rng)
                assert context_incompatibility(ctx) == pytest.approx(
                    coherence_form(ctx), abs=1e-9
                )


class TestCoherenceForm:
    def test_free_context_vanishes(self):
        rng = np.random.default_rng(104)
        assert coherence_form(commuting_context(3, rng)) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_mub_eigenstate(self, d):
        assert coherence_form(mub_eigenstate_context(d)) == pytest.approx(
            math.log(d), abs=1e-10
        )


class TestLeakageRatio:
    def test_commuting_is_zero(self):
        rng = np.random.default_rng(105)
        assert leakage_ratio(commuting_context(3, rng)) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_eigenstate_angle(self):
        for theta in (0.3, 1.0, 2.2):
            ctx = Context(
                DensityMatrix.pure([1.0, 0.0]),
                ObservableBasis.computational(2),
                qubit_basis(theta),
            )
            assert leakage_ratio(ctx) == pytest.approx(math.sin(theta) ** 2, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_mub_eigenstate_is_one(self, d):
        assert leakage_ratio(mub_eigenstate_context(d)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_information_rejected(self):
        rng = np.random.default_rng(106)
        ctx = Context(
            DensityMatrix.maximally_mixed(3),
            random_observable_basis(3, rng),
            random_observable_basis(3, rng),
        )
        with pytest.raises(ZeroInformationError):
            leakage_ratio(ctx)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            assert 0.0 <= leakage_ratio(random_context(3, rng)) <= 1.0 + 1e-12


class TestEigenstateRatio:
    def test_identical_bases(self):
        rng = np.random.default_rng(108)
        basis = random_observable_basis(4, rng)
        for j in range(4):
            assert eigenstate_ratio(j, basis, basis) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_mub_pair(self, d):
        first = ObservableBasis.computational(d)
        second = ObservableBasis.fourier(d)
        for j in range(d):
            assert eigenstate_ratio(j, first, second) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_angle(self):
        theta = 1.1
        assert eigenstate_ratio(
            0, ObservableBasis.computational(2), qubit_basis(theta)
        ) == pytest.approx(math.sin(theta) ** 2, abs=1e-12)

    def test_matches_leakage_ratio_on_eigenstate_context(self):
        rng = np.random.default_rng(109)
        for d in (2, 3, 4):
            for j in range(d):
                ctx = eigenstate_context(d, rng, index=j)
                assert eigenstate_ratio(j, ctx.first, ctx.second) == pytest.approx(
                    leakage_ratio(ctx), abs=1e-10
                )

    def test_index_out_of_range(self):
        basis = ObservableBasis.computational(3)
        with pytest.raises(IndexError):
            eigenstate_ratio(3, basis, basis)
        with pytest.raises(IndexError):
            eigenstate_ratio(-1, basis, basis)


class TestMeasurementIncompatibility:
    def test_commuting_pairs_vanish(self):
        rng = np.random.default_rng(110)
        basis = random_observable_basis(4, rng)
        relabeled = ObservableBasis(basis.vectors[:, [1, 3, 0, 2]])
        assert measurement_incompatibility(basis, relabeled) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_fourier_pair_is_maximal(self, d):
        value = measurement_incompatibility(
            ObservableBasis.computational(d), ObservableBasis.fourier(d)
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_qubit_angle(self):
        for theta in (0.2, 0.9, 1.7):
            assert measurement_incompatibility(
                ObservableBasis.computational(2), qubit_basis(theta)
            ) == pytest.approx(math.sin(theta) ** 2, abs=1e-12)

    def test_rounding_never_leaves_the_unit_interval(self):
        # unclamped, about a third of these commuting pairs round below zero
        # and the d = 2 Fourier pair rounds to 1 + 4e-16
        rng = np.random.default_rng(110)
        for d in (2, 3, 4):
            for _ in range(30):
                ctx = commuting_context(d, rng)
                assert measurement_incompatibility(ctx.first, ctx.second) >= 0.0
                assert incompatibility_report(ctx).m_measurement >= 0.0
        for d in range(2, 17):
            first, second = ObservableBasis.computational(d), ObservableBasis.fourier(d)
            assert measurement_incompatibility(first, second) <= 1.0
        assert measurement_incompatibility(
            ObservableBasis.computational(2), ObservableBasis.fourier(2)
        ) == 1.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(111)
        for d in (2, 3, 4, 5):
            first = random_observable_basis(d, rng)
            second = random_observable_basis(d, rng)
            forward = measurement_incompatibility(first, second)
            backward = measurement_incompatibility(second, first)
            assert forward == pytest.approx(backward, abs=1e-12)
            assert 0.0 <= forward <= 1.0

    def test_unity_iff_unbiased(self):
        rng = np.random.default_rng(112)
        d = 3
        first = ObservableBasis.computational(d)
        second = ObservableBasis.fourier(d)
        assert measurement_incompatibility(first, second) == pytest.approx(1.0, abs=1e-12)
        trans = transition_matrix(first, second)
        assert np.max(np.abs(trans - 1.0 / d)) <= 1e-8
        # and a biased pair stays strictly below one
        biased = random_observable_basis(d, rng)
        assert measurement_incompatibility(first, biased) < 1.0 - 1e-8

    def test_zero_iff_permutation_overlap(self):
        rng = np.random.default_rng(113)
        d = 4
        basis = random_observable_basis(d, rng)
        relabeled = ObservableBasis(basis.vectors[:, [2, 0, 3, 1]])
        assert measurement_incompatibility(basis, relabeled) == pytest.approx(
            0.0, abs=1e-12
        )
        trans = transition_matrix(basis, relabeled)
        assert np.all((trans > 1 - 1e-8) | (trans < 1e-8))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            measurement_incompatibility(
                ObservableBasis.computational(2), ObservableBasis.computational(3)
            )


class TestAlgebraicIncompatibility:
    def test_identical_bases_zero_deficit(self):
        rng = np.random.default_rng(114)
        basis = random_observable_basis(3, rng)
        assert algebraic_incompatibility(basis, basis) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_mub_pair_deficit(self, d):
        assert algebraic_incompatibility(
            ObservableBasis.computational(d), ObservableBasis.fourier(d)
        ) == pytest.approx(d - 1, abs=1e-12)

    def test_ties_to_measurement_incompatibility(self):
        rng = np.random.default_rng(115)
        for d in (2, 3, 4):
            first = random_observable_basis(d, rng)
            second = random_observable_basis(d, rng)
            deficit = algebraic_incompatibility(first, second)
            assert deficit / (d - 1) == pytest.approx(
                measurement_incompatibility(first, second), abs=1e-12
            )


class TestClassifyContext:
    def test_same_observable_twice(self):
        rng = np.random.default_rng(116)
        basis = random_observable_basis(3, rng)
        ctx = Context(random_density_matrix(3, rng), basis, basis)
        assert classify_context(ctx) is ContextClass.FREE_COMMUTING

    def test_maximally_mixed_state(self):
        rng = np.random.default_rng(117)
        ctx = Context(
            DensityMatrix.maximally_mixed(3),
            random_observable_basis(3, rng),
            random_observable_basis(3, rng),
        )
        assert classify_context(ctx) is ContextClass.FREE_ZERO_INFO

    def test_unbiased_mixture_state(self):
        rng = np.random.default_rng(118)
        for _ in range(10):
            ctx = mub_mixture_context(3, rng)
            assert classify_context(ctx) is ContextClass.FREE_ZERO_INFO

    def test_doubly_free_reports_commuting(self):
        basis = ObservableBasis.computational(3)
        ctx = Context(DensityMatrix.maximally_mixed(3), basis, basis)
        assert classify_context(ctx) is ContextClass.FREE_COMMUTING

    def test_generic_context_is_resourceful(self):
        rng = np.random.default_rng(119)
        ctx = random_context(3, rng)
        assert classify_context(ctx) is ContextClass.RESOURCEFUL

    def test_free_iff_no_resource(self):
        rng = np.random.default_rng(120)
        for d in (2, 3):
            contexts = [random_context(d, rng) for _ in range(40)]
            contexts += [commuting_context(d, rng) for _ in range(20)]
            contexts += [mub_mixture_context(d, rng) for _ in range(20)]
            contexts += [
                Context(
                    DensityMatrix.maximally_mixed(d),
                    random_observable_basis(d, rng),
                    random_observable_basis(d, rng),
                )
                for _ in range(10)
            ]
            for ctx in contexts:
                free = classify_context(ctx) is not ContextClass.RESOURCEFUL
                assert free == (context_incompatibility(ctx) <= 1e-9)

    def test_near_degenerate_unbiased_pair_is_resourceful(self):
        # eigenvalue-weighted matrices with spectrum {1, 1 + 2e-9} commute to
        # ~1e-18, but the eigenprojectors are mutually unbiased
        spectrum = [1.0, 1.0 + 2e-9]
        first = ObservableBasis(np.eye(2), spectrum)
        second = ObservableBasis(ObservableBasis.fourier(2).vectors, spectrum)
        ctx = Context(DensityMatrix.pure(np.eye(2)[0]), first, second)
        assert classify_context(ctx) is ContextClass.RESOURCEFUL
        assert context_incompatibility(ctx) == pytest.approx(math.log(2), abs=1e-12)
        report = incompatibility_report(ctx)
        assert report.classification is ContextClass.RESOURCEFUL
        assert report.m_measurement == 1.0

    def test_tiny_rotation_with_wide_spectrum_is_commuting(self):
        # a 1e-13 rotation moves the projectors by ~1e-13 while the spectrum
        # {0, 1e6} would blow the matrix commutator up to ~1e-7
        rotation = qubit_basis(2e-13).vectors
        first = ObservableBasis(np.eye(2), [0.0, 1e6])
        second = ObservableBasis(rotation, [0.0, 1e6])
        ctx = Context(DensityMatrix.pure(np.eye(2)[0]), first, second)
        assert classify_context(ctx) is ContextClass.FREE_COMMUTING
        assert context_incompatibility(ctx) <= 1e-9
        report = incompatibility_report(ctx)
        assert report.classification is ContextClass.FREE_COMMUTING
        assert report.m_measurement == 0.0


class TestMonotonicity:
    def test_identity_channel_is_equality(self):
        rng = np.random.default_rng(121)
        ctx = random_context(3, rng)
        before, after = monotonicity_check(ctx, [np.eye(3, dtype=complex)])
        assert after == pytest.approx(before, abs=1e-12)

    def test_depolarizing_obeys_linear_bound(self):
        rng = np.random.default_rng(122)
        for d in (2, 3):
            ctx = random_context(d, rng)
            for weight in (0.2, 0.5, 0.9):
                before, after = monotonicity_check(ctx, depolarizing_kraus(d, weight))
                assert after <= (1 - weight) * before + 1e-9

    def test_dephasing_channel_on_commuting_context(self):
        rng = np.random.default_rng(123)
        ctx = commuting_context(3, rng)
        kraus = [p for p in ctx.first.projectors()]
        before, after = monotonicity_check(ctx, kraus)
        assert after == pytest.approx(before, abs=1e-12)

    def test_rejects_non_unital(self):
        gamma = 0.4
        kraus = [
            np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex),
            np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex),
        ]
        rng = np.random.default_rng(124)
        ctx = random_context(2, rng)
        with pytest.raises(ChannelValidationError, match="unital"):
            monotonicity_check(ctx, kraus)

    def test_rejects_non_trace_preserving(self):
        rng = np.random.default_rng(125)
        ctx = random_context(2, rng)
        kraus = [
            np.array([[0, 1], [0, 0]], dtype=complex),
            np.array([[0, 0], [0, 1]], dtype=complex),
        ]
        with pytest.raises(ChannelValidationError, match="trace"):
            monotonicity_check(ctx, kraus)

    def test_rejects_non_commuting_channel(self):
        rng = np.random.default_rng(126)
        ctx = random_context(2, rng)
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        with pytest.raises(ChannelValidationError, match="commute"):
            monotonicity_check(ctx, [hadamard])

    def test_depolarizing_kraus_is_a_channel(self):
        for d in (2, 3, 4):
            kraus = depolarizing_kraus(d, 0.3)
            ident = np.eye(d)
            np.testing.assert_allclose(
                sum(k @ k.conj().T for k in kraus), ident, atol=1e-12
            )
            np.testing.assert_allclose(
                sum(k.conj().T @ k for k in kraus), ident, atol=1e-12
            )
            rho = np.diag(np.arange(1.0, d + 1))
            rho /= rho.trace()
            np.testing.assert_allclose(
                apply_kraus(rho, kraus),
                0.7 * rho + 0.3 * ident / d,
                atol=1e-12,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_kraus_operators(self, bad):
        kraus = [np.array([[bad, 0], [0, 1]], dtype=complex)]
        first, second = ObservableBasis.computational(2), ObservableBasis.fourier(2)
        with pytest.raises(ChannelValidationError, match="non-finite"):
            validate_free_operation(kraus, first, second)
        ctx = Context(DensityMatrix.maximally_mixed(2), first, second)
        with pytest.raises(ChannelValidationError, match="non-finite"):
            monotonicity_check(ctx, kraus)

    def test_empty_kraus_list_is_not_unital(self):
        first, second = ObservableBasis.computational(3), ObservableBasis.fourier(3)
        with pytest.raises(ChannelValidationError, match="channel is not unital"):
            validate_free_operation([], first, second)

    def test_wrong_shape_is_checked_before_finiteness(self):
        first, second = ObservableBasis.computational(2), ObservableBasis.fourier(2)
        kraus = [np.full((3, 3), math.nan, dtype=complex)]
        with pytest.raises(ChannelValidationError, match="wrong shape"):
            validate_free_operation(kraus, first, second)

    def test_bases_of_different_dimension_are_rejected_first(self):
        first, second = ObservableBasis.computational(2), ObservableBasis.computational(3)
        for kraus in ([np.eye(2, dtype=complex)], [np.eye(3, dtype=complex)], []):
            with pytest.raises(DimensionMismatchError):
                validate_free_operation(kraus, first, second)


class TestReport:
    def test_fields_cohere(self):
        rng = np.random.default_rng(127)
        for _ in range(20):
            ctx = random_context(3, rng)
            report = incompatibility_report(ctx)
            assert report.i_context == pytest.approx(
                report.i_initial - report.i_final, abs=1e-10
            )
            assert 0.0 <= report.i_initial <= math.log(3) + 1e-10
            assert 0.0 <= report.i_final <= math.log(3) + 1e-10
            assert report.ratio is not None
            assert -1e-9 <= report.ratio <= 1.0 + 1e-9
            assert 0.0 <= report.m_measurement <= 1.0
            assert report.classification is ContextClass.RESOURCEFUL

    def test_ratio_is_none_without_information(self):
        rng = np.random.default_rng(128)
        ctx = Context(
            DensityMatrix.maximally_mixed(2),
            random_observable_basis(2, rng),
            random_observable_basis(2, rng),
        )
        report = incompatibility_report(ctx)
        assert report.ratio is None
        assert report.classification is ContextClass.FREE_ZERO_INFO

    def test_class_and_ratio_share_the_zero_information_rule(self):
        first, second = ObservableBasis.computational(2), ObservableBasis.fourier(2)
        # ||p - 1/d|| = 1.4e-8: above the 1e-10 rule, so the ratio is defined
        informative = Context(
            DensityMatrix([[0.5 + 1e-8, 0.3], [0.3, 0.5 - 1e-8]]), first, second
        )
        report = incompatibility_report(informative)
        assert report.classification is ContextClass.RESOURCEFUL
        assert report.ratio == pytest.approx(1.0, abs=1e-6)
        # ||p - 1/d|| = 5e-11: below it, so the context is free and the ratio undefined
        offset = 5e-11 / math.sqrt(2)
        silent = Context(
            DensityMatrix([[0.5 + offset, 0.3], [0.3, 0.5 - offset]]), first, second
        )
        report = incompatibility_report(silent)
        assert report.classification is ContextClass.FREE_ZERO_INFO
        assert report.ratio is None
        with pytest.raises(ZeroInformationError):
            leakage_ratio(silent)
