"""Core types, entropies, and dephasing channels."""

import math
import warnings

import numpy as np
import pytest

from qincompat.core import (
    EPS,
    Context,
    DensityMatrix,
    ObservableBasis,
    _information,
    dephase,
    information,
    outcome_probabilities,
    probability_vector,
    random_density_matrix,
    random_observable_basis,
    shannon_entropy,
    transition_matrix,
    von_neumann_entropy,
)
from qincompat.errors import DimensionMismatchError, InvariantViolationError
from qincompat.measures import incompatibility_report
from qincompat.protocol import mass_model_context_incompat, weak_measure

from _oracles import direct_information, relative_entropy, sequential_dephase
from _util import qubit_basis

LN2 = math.log(2.0)


def entropy_brute_force(eigenvalues) -> float:
    """Scalar reference: -sum of lambda ln lambda with 0 ln 0 = 0."""
    total = 0.0
    for lam in eigenvalues:
        if lam > 0.0:
            total -= lam * math.log(lam)
    return total


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolationError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_wrong_trace(self):
        # a plain number in the message, not a numpy repr such as np.float64(1.4)
        with pytest.raises(InvariantViolationError, match=r"^state trace 1\.4 is not 1$"):
            DensityMatrix(np.array([[0.7, 0.0], [0.0, 0.7]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolationError, match="negative eigenvalue"):
            DensityMatrix(np.array([[1.1, 0.0], [0.0, -0.1]]))

    def test_clips_eigenvalue_dust(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
        vals = rho.eigenvalues()
        assert vals[0] >= 0.0
        assert abs(vals.sum() - 1.0) < 1e-12

    def test_clip_boundary(self):
        # -1e-10 is still dust, anything further down is an error
        DensityMatrix(np.diag([1.0 + 1e-10, -1e-10]))
        with pytest.raises(InvariantViolationError):
            DensityMatrix(np.diag([1.0 + 3e-10, -3e-10]))

    @pytest.mark.parametrize(
        "entry", [math.nan, math.inf, -math.inf, complex(0.1, math.nan)]
    )
    def test_rejects_non_finite_entries(self, entry):
        mat = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        mat[0, 1] = entry
        mat[1, 0] = np.conj(entry)
        with pytest.raises(InvariantViolationError, match="non-finite"):
            DensityMatrix(mat)

    @pytest.mark.parametrize("shape", [(0, 0), (0,), (2, 3)])
    def test_rejects_empty_or_non_square(self, shape):
        # the empty matrix used to escape as numpy's zero-size reduction ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                InvariantViolationError, match="^state matrix must be square and non-empty$"
            ):
                DensityMatrix(np.zeros(shape))

    def test_entries_are_frozen(self):
        rho = DensityMatrix.maximally_mixed(3)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0

    def test_pure_projector(self):
        rho = DensityMatrix.pure([3.0, 4.0j])
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        assert rho.entries[0, 0] == pytest.approx(9 / 25)

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda mat: calls.append(mat) or eigh(mat))
        return calls

    def test_pure_states_take_one_eigendecomposition(self, eigh_calls):
        # eigenvalues in (-d eps, 0) are the eigensolver's rounding: no eigh, no rebuild
        rng = np.random.default_rng(290)
        for d in range(2, 17):
            for _ in range(20):
                ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                ket /= np.linalg.norm(ket)
                mat = np.outer(ket, ket.conj())
                assert (DensityMatrix(mat).entries == mat).all()
        assert not eigh_calls

    def test_rebuilds_dust_beyond_the_eigensolver_rounding(self, eigh_calls):
        rng = np.random.default_rng(291)
        vecs = random_observable_basis(16, rng).vectors
        vals = np.full(16, (1.0 + 1e-12) / 15)
        vals[0] = -1e-12
        rho = DensityMatrix((vecs * vals) @ vecs.conj().T)
        assert len(eigh_calls) == 1
        assert rho.eigenvalues()[0] > -16 * EPS

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_pure_rejects_non_finite_kets(self, bad):
        # vec / norm used to warn (inf / inf) instead of refusing the ket
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolationError, match="non-finite"):
                DensityMatrix.pure([bad, 1.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_pure_normalizes_extreme_magnitudes(self, scale):
        # the norm used to overflow to inf (a "state trace 0.0" refusal) or
        # underflow to 0 ("cannot normalize the zero vector")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = DensityMatrix.pure([scale, scale])
        assert (rho.entries == DensityMatrix.pure([1.0, 1.0]).entries).all()


class TestObservableBasis:
    def test_rejects_non_orthonormal(self):
        cols = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvariantViolationError, match="orthonormal"):
            ObservableBasis(cols)

    def test_rejects_degenerate_eigenvalues(self):
        with pytest.raises(InvariantViolationError, match="degenerate"):
            ObservableBasis(np.eye(3), eigenvalues=np.array([1.0, 1.0, 2.0]))

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite_vectors(self, entry):
        cols = np.eye(2)
        cols[1, 0] = entry
        with pytest.raises(InvariantViolationError, match="non-finite"):
            ObservableBasis(cols)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_eigenvalues(self, entry):
        with pytest.raises(InvariantViolationError, match="finite"):
            ObservableBasis(np.eye(2), eigenvalues=np.array([entry, 2.0]))

    def test_rejects_one_outcome(self):
        with pytest.raises(InvariantViolationError, match="two outcomes"):
            ObservableBasis(np.eye(1))

    def test_default_eigenvalues(self):
        basis = ObservableBasis.computational(4)
        np.testing.assert_array_equal(basis.eigenvalues, [1.0, 2.0, 3.0, 4.0])

    def test_projectors_resolve_identity(self):
        rng = np.random.default_rng(5)
        basis = random_observable_basis(4, rng)
        np.testing.assert_allclose(
            basis.projectors().sum(axis=0), np.eye(4), atol=1e-12
        )

    def test_fourier_is_unbiased(self):
        for d in (2, 3, 5):
            trans = transition_matrix(
                ObservableBasis.computational(d), ObservableBasis.fourier(d)
            )
            np.testing.assert_allclose(trans, np.full((d, d), 1.0 / d), atol=1e-12)

    @pytest.mark.parametrize("eigenvalues", [None, [-2.5, 0.0, 1e-3, 7.0]])
    def test_matrix_has_the_basis_as_eigenvectors(self, eigenvalues):
        basis = random_observable_basis(4, np.random.default_rng(8), eigenvalues)
        mat = basis.matrix()
        np.testing.assert_allclose(mat, mat.conj().T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            mat @ basis.vectors, basis.vectors * basis.eigenvalues, rtol=0, atol=1e-12
        )

    def test_hadamard_typed_to_eleven_digits_serves_every_check(self):
        # Gram deviation 1.9e-11 passes the 1e-10 check; kept as given, the
        # dephased |0> would have trace 1 - 3.7e-11 and fail the 1e-12 check
        h = 0.70710678118
        basis = ObservableBasis([[h, h], [h, -h]])
        gram = basis.vectors.conj().T @ basis.vectors
        np.testing.assert_allclose(gram, np.eye(2), rtol=0, atol=4 * EPS)
        state = DensityMatrix.pure([1, 0])
        assert dephase(state, basis).entries.trace().real == pytest.approx(1.0, abs=1e-15)
        assert weak_measure(state, basis, 0.5).dim == 2
        ctx = Context(state, ObservableBasis.computational(2), basis)
        assert mass_model_context_incompat(ctx, 1.0) >= 0.0

    def test_skewed_d16_basis_serves_every_check(self):
        # X = U (I + 0.95e-10 J)^(1/2), J all ones: Gram deviation 9.5e-11, and
        # kept as given the top eigenvector of X X^dagger has Born sum 1 + 1.5e-9
        d = 16
        unitary = random_observable_basis(d, np.random.default_rng(0)).vectors
        vals, vecs = np.linalg.eigh(np.eye(d) + 0.95e-10 * np.ones((d, d)))
        skewed = unitary @ (vecs * np.sqrt(vals)) @ vecs.conj().T
        basis = ObservableBasis(skewed)
        state = DensityMatrix.pure(np.linalg.eigh(skewed @ skewed.conj().T)[1][:, -1])
        assert outcome_probabilities(state, basis).sum() == pytest.approx(1.0, abs=1e-14)
        incompatibility_report(Context(state, basis, ObservableBasis.fourier(d)))
        # the stored basis is the polar factor of X, within rounding
        np.testing.assert_allclose(basis.vectors, unitary, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 7, 16])
    def test_rounding_level_bases_are_kept_as_given(self, d):
        cols = random_observable_basis(d, np.random.default_rng(d)).vectors.copy()
        np.testing.assert_array_equal(ObservableBasis(cols).vectors, cols)
        fourier = ObservableBasis.fourier(d).vectors
        np.testing.assert_array_equal(ObservableBasis(fourier.copy()).vectors, fourier)


class TestContext:
    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Context(
                DensityMatrix.maximally_mixed(2),
                ObservableBasis.computational(2),
                ObservableBasis.computational(3),
            )


class TestInformation:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_maximally_mixed_has_none(self, d):
        assert information(DensityMatrix.maximally_mixed(d)) == pytest.approx(0.0, abs=1e-12)

    def test_pure_qubit_has_ln2(self):
        assert information(DensityMatrix.pure([1, 1j])) == pytest.approx(LN2, abs=1e-12)

    def test_diagonal_three_quarters(self):
        # oracle: direct scalar evaluation of the eigenvalue entropy
        expected = LN2 - entropy_brute_force([0.75, 0.25])
        assert expected == pytest.approx(0.130812, abs=1e-6)
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        assert information(rho) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            for _ in range(50):
                value = information(random_density_matrix(d, rng))
                assert -1e-10 <= value <= math.log(d) + 1e-10

    def test_matches_brute_force_entropy(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = random_density_matrix(3, rng)
            assert von_neumann_entropy(rho) == pytest.approx(
                entropy_brute_force(rho.eigenvalues()), abs=1e-12
            )


class TestInformationKernel:
    """``_information`` of the deviations d p - 1 against ln d - H(p)."""

    @staticmethod
    def distributions(d: int, rng: np.random.Generator) -> list[np.ndarray]:
        haar = np.abs(random_observable_basis(d, rng).vectors[:, 0]) ** 2
        pure = np.eye(d)[rng.integers(d)]
        tilt = rng.standard_normal(d)
        tilt -= tilt.mean()
        near_uniform = 1.0 / d + 1e-8 * tilt / np.linalg.norm(tilt)
        zero_entry = haar.copy()
        zero_entry[rng.choice(d, size=d // 2, replace=False)] = 0.0
        zero_entry /= zero_entry.sum()
        return [haar, pure, near_uniform, zero_entry]

    @pytest.mark.parametrize("d", range(2, 17))
    def test_matches_the_direct_form(self, d):
        rng = np.random.default_rng(20 + d)
        for _ in range(5):
            for p in self.distributions(d, rng):
                assert _information(d * p - 1.0) == pytest.approx(
                    direct_information(p), abs=1e-14
                )

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_a_stack_equals_its_rows(self, d):
        rng = np.random.default_rng(40 + d)
        rows = np.array([d * p - 1.0 for p in self.distributions(d, rng)])
        stack = _information(rows.reshape(2, 2, d))
        assert stack.shape == (2, 2)
        assert stack.ravel().tolist() == [_information(x) for x in rows]

    @pytest.mark.parametrize("d", [2, 3, 7, 16])
    def test_uniform_has_exactly_none(self, d):
        assert _information(np.zeros(d)) == 0.0


class TestDephase:
    def test_fixes_diagonal_states(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        out = dephase(rho, ObservableBasis.computational(3))
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-14)

    def test_plus_state_to_maximally_mixed(self):
        rho = DensityMatrix.pure([1.0, 1.0])
        out = dephase(rho, ObservableBasis.computational(2))
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_mub_eigenstate_flattens(self, d):
        rho = DensityMatrix.pure(np.eye(d)[1])
        out = dephase(rho, ObservableBasis.fourier(d))
        np.testing.assert_allclose(out.entries, np.eye(d) / d, atol=1e-12)
        assert out.purity() == pytest.approx(1.0 / d, abs=1e-12)

    def test_idempotent_and_unital(self):
        rng = np.random.default_rng(21)
        for d in (2, 3, 4):
            basis = random_observable_basis(d, rng)
            rho = random_density_matrix(d, rng)
            once = dephase(rho, basis)
            twice = dephase(once, basis)
            np.testing.assert_allclose(twice.entries, once.entries, atol=1e-12)
            mixed = dephase(DensityMatrix.maximally_mixed(d), basis)
            np.testing.assert_allclose(mixed.entries, np.eye(d) / d, atol=1e-12)

    def test_never_increases_information(self):
        rng = np.random.default_rng(22)
        for d in (2, 3, 4):
            for _ in range(30):
                rho = random_density_matrix(d, rng)
                basis = random_observable_basis(d, rng)
                assert information(dephase(rho, basis)) <= information(rho) + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dephase(DensityMatrix.maximally_mixed(2), ObservableBasis.computational(3))


class TestSequentialDephase:
    def test_same_basis_is_single(self):
        rng = np.random.default_rng(31)
        rho = random_density_matrix(3, rng)
        basis = random_observable_basis(3, rng)
        np.testing.assert_allclose(
            sequential_dephase(rho, basis, basis).entries,
            dephase(rho, basis).entries,
            atol=1e-13,
        )

    def test_commuting_bases_collapse_to_first(self):
        rng = np.random.default_rng(32)
        rho = random_density_matrix(3, rng)
        basis = random_observable_basis(3, rng)
        relabeled = ObservableBasis(
            basis.vectors[:, [2, 0, 1]], eigenvalues=np.array([5.0, 7.0, 6.0])
        )
        np.testing.assert_allclose(
            sequential_dephase(rho, basis, relabeled).entries,
            dephase(rho, basis).entries,
            atol=1e-13,
        )

    def test_qubit_zero_through_x_basis(self):
        rho = DensityMatrix.pure([1.0, 0.0])
        out = sequential_dephase(
            rho, ObservableBasis.computational(2), qubit_basis(math.pi / 2)
        )
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-14)

    def test_eigenvalues_compose_distribution(self):
        rng = np.random.default_rng(33)
        rho = random_density_matrix(4, rng)
        first = random_observable_basis(4, rng)
        second = random_observable_basis(4, rng)
        out = sequential_dephase(rho, first, second)
        composed = transition_matrix(first, second).T @ outcome_probabilities(rho, first)
        np.testing.assert_allclose(
            np.sort(out.eigenvalues()), np.sort(composed), atol=1e-12
        )


class TestTransitionMatrix:
    def test_identical_bases_identity(self):
        rng = np.random.default_rng(41)
        basis = random_observable_basis(4, rng)
        np.testing.assert_allclose(transition_matrix(basis, basis), np.eye(4), atol=1e-12)

    def test_qubit_angle(self):
        theta = 0.7
        trans = transition_matrix(ObservableBasis.computational(2), qubit_basis(theta))
        c2, s2 = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
        np.testing.assert_allclose(trans, [[c2, s2], [s2, c2]], atol=1e-12)

    def test_doubly_stochastic(self):
        rng = np.random.default_rng(42)
        for d in (2, 3, 5):
            trans = transition_matrix(
                random_observable_basis(d, rng), random_observable_basis(d, rng)
            )
            np.testing.assert_allclose(trans.sum(axis=0), np.ones(d), atol=1e-10)
            np.testing.assert_allclose(trans.sum(axis=1), np.ones(d), atol=1e-10)
            probability_vector(trans[0])


class TestRelativeEntropy:
    def test_zero_on_equal_states(self):
        rng = np.random.default_rng(51)
        rho = random_density_matrix(3, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pure_against_mixed(self, d):
        rng = np.random.default_rng(52)
        sigma = random_density_matrix(d, rng, pure=True)
        assert relative_entropy(sigma, DensityMatrix.maximally_mixed(d)) == pytest.approx(
            math.log(d), abs=1e-10
        )

    def test_disjoint_support_is_infinite(self):
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        varrho = DensityMatrix(np.diag([0.0, 1.0]))
        assert relative_entropy(sigma, varrho) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            value = relative_entropy(
                random_density_matrix(3, rng), random_density_matrix(3, rng)
            )
            assert value >= -1e-10

    def test_matches_matrix_logarithm_route(self):
        # independent oracle: assemble ln(sigma) and ln(varrho) as full
        # matrices and take the trace, instead of working with spectra
        rng = np.random.default_rng(55)

        def matrix_log(rho):
            vals, vecs = np.linalg.eigh(rho.entries)
            return (vecs * np.log(vals)) @ vecs.conj().T

        for d in (2, 3, 4):
            for _ in range(10):
                sigma = random_density_matrix(d, rng)
                varrho = random_density_matrix(d, rng)
                oracle = np.trace(
                    sigma.entries @ (matrix_log(sigma) - matrix_log(varrho))
                ).real
                assert relative_entropy(sigma, varrho) == pytest.approx(
                    oracle, abs=1e-10
                )

    def test_dephasing_identity(self):
        # S(sigma || dephased sigma) equals the entropy the dephasing adds
        rng = np.random.default_rng(54)
        for d in (2, 3, 4):
            for _ in range(20):
                sigma = random_density_matrix(d, rng)
                basis = random_observable_basis(d, rng)
                tau = dephase(sigma, basis)
                lhs = relative_entropy(sigma, tau)
                rhs = von_neumann_entropy(tau) - von_neumann_entropy(sigma)
                assert lhs == pytest.approx(rhs, abs=1e-9)


class TestProbabilityVector:
    def test_clips_dust(self):
        probs = probability_vector(np.array([1.0 + 5e-13, -5e-13]))
        assert probs[1] == 0.0

    def test_rejects_negative(self):
        with pytest.raises(InvariantViolationError, match="negative"):
            probability_vector(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvariantViolationError, match=r"^probabilities sum to 1\.2, not 1$"):
            probability_vector(np.array([0.6, 0.6]))

    def test_shannon_entropy_handles_zeros(self):
        assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
        assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(LN2, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvariantViolationError, match="non-finite"):
            probability_vector(np.array([bad, 1.0]))

    @pytest.mark.parametrize("empty", [np.array([]), [], np.zeros((0, 2))])
    def test_rejects_empty(self, empty):
        # an empty vector used to escape as numpy's zero-size reduction ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolationError, match="^probabilities are empty$"):
                probability_vector(empty)

    @pytest.mark.parametrize("bad", [[-0.5, 1.5], [0.5, 0.7], [2.0]])
    def test_shannon_entropy_rejects_non_distributions(self, bad):
        # the 0 ln 0 filter used to drop negative entries and skip the sum check,
        # returning -0.608, 0.596 and -1.386 for these
        with pytest.raises(InvariantViolationError, match="negative|sum to"):
            shannon_entropy(np.array(bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_shannon_entropy_rejects_non_finite(self, bad):
        # the 0 ln 0 filter keeps only p > 0, which would drop a NaN unseen
        with pytest.raises(InvariantViolationError, match="non-finite"):
            shannon_entropy(np.array([bad, 1.0]))
