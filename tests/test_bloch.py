"""Generalized Bloch representation and the geometric measure forms."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from qincompat.bloch import (
    BlochVector,
    basis_to_bloch_frame,
    bloch_to_state,
    geometric_context_incompatibility,
    geometric_leakage_ratio,
    geometric_maps,
    geometric_measurement_incompatibility,
    qubit_measures,
    star,
    state_to_bloch,
    wedge,
)
from qincompat.cli import main
from qincompat.core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    dephase,
    outcome_probabilities,
    random_density_matrix,
    random_observable_basis,
)
from qincompat.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    ZeroInformationError,
)
from qincompat.measures import (
    ZERO_INFO_NORM_TOL,
    context_incompatibility,
    leakage_ratio,
    measurement_incompatibility,
)

from _oracles import gell_mann, structure_tensors
from _util import bloch_axis, qubit_basis, random_context, write_document

PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}

GELL_MANN = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.diag([1, 1, -2]).astype(complex) / math.sqrt(3),
]

# the oracle's coordinates agree with those read off the entries to about
# 1e-16; this leaves two orders of magnitude
COORDINATE_TOL = 1e-14


def radius(d):
    return math.sqrt(d * (d - 1) / 2)


def dense_components(mat, d):
    """Tr(G_i M) by contraction with the oracle's dense generator stack."""
    return np.einsum("iab,...ba->...i", gell_mann(d), mat)


def frames_of(ctx):
    return (
        state_to_bloch(ctx.state),
        basis_to_bloch_frame(ctx.first),
        basis_to_bloch_frame(ctx.second),
    )


class TestBuildGenerators:
    """The dense generator construction of the test oracles."""

    def test_qubit_generators_are_paulis_in_order(self):
        gens = gell_mann(2)
        for i in (1, 2, 3):
            np.testing.assert_allclose(gens[i - 1], PAULI[i], atol=1e-15)

    def test_qubit_structure_constants(self):
        f, dsym = structure_tensors(2)
        assert f[0, 1, 2] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(dsym).max() == pytest.approx(0.0, abs=1e-14)

    def test_qutrit_generators_match_the_standard_eight(self):
        gens = gell_mann(3)
        assert gens.shape == (8, 3, 3)
        for lam in GELL_MANN:
            assert any(
                np.allclose(g, lam, atol=1e-12) for g in gens
            ), f"missing generator\n{lam}"

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_orthogonality_tracelessness_hermiticity(self, d):
        gens = gell_mann(d)
        n = d * d - 1
        gram = np.einsum("iab,jba->ij", gens, gens)
        np.testing.assert_allclose(gram, 2 * np.eye(n), atol=1e-10)
        for g in gens:
            assert abs(np.trace(g)) <= 1e-12
            np.testing.assert_allclose(g, g.conj().T, atol=1e-14)

    def test_tensor_symmetries_on_sampled_triples(self):
        rng = np.random.default_rng(61)
        f, dsym = structure_tensors(4)
        n = 15
        for _ in range(200):
            i, j, k = rng.integers(n, size=3)
            assert f[i, j, k] == pytest.approx(-f[j, i, k], abs=1e-10)
            assert f[i, j, k] == pytest.approx(f[j, k, i], abs=1e-10)
            assert dsym[i, j, k] == pytest.approx(dsym[j, i, k], abs=1e-10)
            assert dsym[i, j, k] == pytest.approx(dsym[k, j, i], abs=1e-10)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            gell_mann(1)

    @pytest.mark.parametrize("d", [2, 5])
    def test_generators_are_read_only(self, d):
        gens = gell_mann(d)
        assert not gens.flags.writeable
        with pytest.raises(ValueError):
            gens[0, 0, 0] = 1.0


class TestGellMannCoordinates:
    """Coordinates read off the matrix entries against the contraction with
    the dense generators, over the whole documented range."""

    @pytest.mark.parametrize("d", range(2, 17))
    def test_states_and_frames_match_the_dense_contraction(self, d):
        rng = np.random.default_rng(200 + d)
        scale = d / (2 * radius(d))
        for _ in range(3):
            rho = random_density_matrix(d, rng)
            basis = random_observable_basis(d, rng)
            r = state_to_bloch(rho)
            np.testing.assert_allclose(
                r.r,
                scale * np.real(dense_components(rho.entries, d)),
                rtol=0,
                atol=COORDINATE_TOL,
            )
            np.testing.assert_allclose(
                basis_to_bloch_frame(basis),
                scale * np.real(dense_components(basis.projectors(), d)),
                rtol=0,
                atol=COORDINATE_TOL,
            )
            np.testing.assert_allclose(
                bloch_to_state(r).entries,
                (np.eye(d) + radius(d) * np.tensordot(r.r, gell_mann(d), 1)) / d,
                rtol=0,
                atol=COORDINATE_TOL,
            )

    @pytest.mark.parametrize("d", range(2, 17))
    def test_products_match_the_dense_operator_forms(self, d):
        rng = np.random.default_rng(220 + d)
        gens = gell_mann(d)
        coeff = 0.0 if d == 2 else radius(d) / (d - 2)
        for _ in range(3):
            u = state_to_bloch(random_density_matrix(d, rng))
            v = state_to_bloch(random_density_matrix(d, rng))
            big_u, big_v = np.tensordot(u.r, gens, 1), np.tensordot(v.r, gens, 1)
            np.testing.assert_allclose(
                wedge(u, v).r,
                np.real(dense_components(big_u @ big_v - big_v @ big_u, d) / 4j),
                rtol=0,
                atol=COORDINATE_TOL,
            )
            np.testing.assert_allclose(
                star(u, v).r,
                coeff * np.real(dense_components(big_u @ big_v + big_v @ big_u, d)) / 4,
                rtol=0,
                atol=COORDINATE_TOL,
            )

    def test_dimension_mismatch_in_products(self):
        u = BlochVector(2, [0.0, 0.0, 0.5])
        v = BlochVector(3, np.zeros(8))
        for product in (wedge, star):
            with pytest.raises(DimensionMismatchError):
                product(u, v)
            with pytest.raises(DimensionMismatchError):
                product(v, u)


class TestStarWedge:
    def test_wedge_self_vanishes(self):
        rng = np.random.default_rng(62)
        u = state_to_bloch(random_density_matrix(3, rng))
        np.testing.assert_allclose(wedge(u, u).r, np.zeros(8), atol=1e-12)

    def test_qubit_wedge_is_cross_product(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            a = rng.uniform(-0.5, 0.5, 3)
            b = rng.uniform(-0.5, 0.5, 3)
            out = wedge(BlochVector(2, a), BlochVector(2, b))
            np.testing.assert_allclose(out.r, np.cross(a, b), atol=1e-12)

    def test_qubit_star_is_zero(self):
        u = BlochVector(2, [0.3, 0.1, 0.2])
        np.testing.assert_array_equal(star(u, u).r, np.zeros(3))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_operator_product_identity(self, d):
        rng = np.random.default_rng(64)
        gens = gell_mann(d)
        identity = np.eye(d)
        for _ in range(20):
            u = state_to_bloch(random_density_matrix(d, rng))
            v = state_to_bloch(random_density_matrix(d, rng))
            left = np.tensordot(u.r, gens, 1) @ np.tensordot(v.r, gens, 1)
            right = (
                2.0 / d * float(u.r @ v.r) * identity
                + 1j * np.tensordot(wedge(u, v).r, gens, 1)
                + (d - 2) / radius(d) * np.tensordot(star(u, v).r, gens, 1)
            )
            np.testing.assert_allclose(left, right, atol=1e-10)

    # the dense tensors take about 1 GiB at d = 16; the dense operator forms
    # in TestGellMannCoordinates cover the range above 8
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_matches_structure_constant_forms(self, d):
        rng = np.random.default_rng(69)
        f, dsym = structure_tensors(d)
        coeff = 0.0 if d == 2 else radius(d) / (d - 2)
        for _ in range(20):
            u = state_to_bloch(random_density_matrix(d, rng))
            v = state_to_bloch(random_density_matrix(d, rng))
            np.testing.assert_allclose(
                wedge(u, v).r,
                np.einsum("ijk,j,k->i", f, u.r, v.r),
                rtol=0,
                atol=COORDINATE_TOL,
            )
            np.testing.assert_allclose(
                star(u, v).r,
                coeff * np.einsum("ijk,j,k->i", dsym, u.r, v.r),
                rtol=0,
                atol=COORDINATE_TOL,
            )

    def test_trace_inner_product_rule(self):
        rng = np.random.default_rng(65)
        for d in (2, 3, 4, 5):
            gens = gell_mann(d)
            u = state_to_bloch(random_density_matrix(d, rng))
            v = state_to_bloch(random_density_matrix(d, rng))
            lhs = np.trace(np.tensordot(u.r, gens, 1) @ np.tensordot(v.r, gens, 1)).real
            assert lhs == pytest.approx(2 * float(u.r @ v.r), abs=1e-10)


class TestStateConversion:
    def test_zero_vector_is_maximally_mixed(self):
        out = bloch_to_state(BlochVector(3, np.zeros(8)))
        np.testing.assert_allclose(out.entries, np.eye(3) / 3, atol=1e-14)

    def test_qubit_north_pole(self):
        out = bloch_to_state(BlochVector(2, [0.0, 0.0, 1.0]))
        np.testing.assert_allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_round_trip(self, d):
        rng = np.random.default_rng(66)
        for _ in range(20):
            rho = random_density_matrix(d, rng)
            back = bloch_to_state(state_to_bloch(rho))
            np.testing.assert_allclose(back.entries, rho.entries, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pure_states_sit_on_the_sphere(self, d):
        rng = np.random.default_rng(67)
        for _ in range(10):
            rho = random_density_matrix(d, rng, pure=True)
            assert state_to_bloch(rho).norm() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_purity_law(self, d):
        rng = np.random.default_rng(68)
        for _ in range(20):
            rho = random_density_matrix(d, rng)
            r = state_to_bloch(rho)
            assert rho.purity() == pytest.approx(
                (1 + (d - 1) * r.norm() ** 2) / d, abs=1e-10
            )

    def test_unphysical_ball_point_rejected(self):
        # opposite of a pure-state direction leaves the physical region for d > 2
        frame = basis_to_bloch_frame(ObservableBasis.computational(3))
        with pytest.raises(InvariantViolationError, match="negative eigenvalue"):
            bloch_to_state(BlochVector(3, -frame[0]))

    def test_ball_membership_enforced(self):
        with pytest.raises(InvariantViolationError, match=r"^vector norm 1\.2 is outside the Bloch ball$"):
            BlochVector(2, [1.2, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(InvariantViolationError, match="non-finite"):
            BlochVector(2, [bad, 0.0, 0.0])

    @pytest.mark.parametrize("d", [0, 1])
    def test_vector_below_dimension_two_rejected(self, d):
        with pytest.raises(DimensionMismatchError, match="d >= 2"):
            BlochVector(d, np.zeros(max(d * d - 1, 0)))

    def test_state_below_dimension_two_rejected(self):
        with pytest.raises(DimensionMismatchError, match="d >= 2"):
            state_to_bloch(DensityMatrix([[1.0]]))


class TestBlochFrames:
    def test_qubit_computational_frame(self):
        frame = basis_to_bloch_frame(ObservableBasis.computational(2))
        np.testing.assert_allclose(frame[0], [0, 0, 1], atol=1e-14)
        np.testing.assert_allclose(frame[1], [0, 0, -1], atol=1e-14)

    def test_frame_is_a_read_only_array(self):
        frame = basis_to_bloch_frame(ObservableBasis.fourier(3))
        assert frame.shape == (3, 8)
        assert frame.dtype == np.float64
        with pytest.raises(ValueError):
            frame[0, 0] = 1.0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_frame_dot_law_and_zero_sum(self, d):
        rng = np.random.default_rng(71)
        rows = basis_to_bloch_frame(random_observable_basis(d, rng))
        expected = (np.eye(d) * d - 1.0) / (d - 1.0)
        np.testing.assert_allclose(rows @ rows.T, expected, atol=1e-10)
        np.testing.assert_allclose(rows.sum(axis=0), np.zeros(d * d - 1), atol=1e-10)

    def test_qutrit_computational_uses_diagonal_coordinates(self):
        frame = basis_to_bloch_frame(ObservableBasis.computational(3))
        for x in frame:
            np.testing.assert_allclose(x[:6], np.zeros(6), atol=1e-14)
            assert np.linalg.norm(x[6:]) == pytest.approx(1.0, abs=1e-12)

    def test_projector_reconstruction(self):
        rng = np.random.default_rng(72)
        basis = random_observable_basis(4, rng)
        frame = basis_to_bloch_frame(basis)
        for j, x in enumerate(frame):
            rebuilt = (np.eye(4) + radius(4) * np.tensordot(x, gell_mann(4), 1)) / 4
            np.testing.assert_allclose(rebuilt, basis.projectors()[j], atol=1e-12)

    def test_born_rule_in_frame_coordinates(self):
        rng = np.random.default_rng(73)
        for d in (2, 3, 4):
            rho = random_density_matrix(d, rng)
            basis = random_observable_basis(d, rng)
            r = state_to_bloch(rho)
            frame = basis_to_bloch_frame(basis)
            probs = outcome_probabilities(rho, basis)
            for j, x in enumerate(frame):
                assert probs[j] == pytest.approx(
                    (1 + (d - 1) * float(x @ r.r)) / d, abs=1e-10
                )


class TestGeometricMaps:
    def test_eigenstate_is_fixed_point(self):
        rng = np.random.default_rng(81)
        basis = random_observable_basis(3, rng)
        frame = basis_to_bloch_frame(basis)
        other = basis_to_bloch_frame(random_observable_basis(3, rng))
        u, _ = geometric_maps(BlochVector(3, frame[1]), frame, other)
        np.testing.assert_allclose(u.r, frame[1], atol=1e-10)

    def test_center_is_fixed(self):
        frame = basis_to_bloch_frame(ObservableBasis.computational(2))
        other = basis_to_bloch_frame(qubit_basis(1.0))
        u, v = geometric_maps(BlochVector(2, np.zeros(3)), frame, other)
        np.testing.assert_allclose(u.r, np.zeros(3), atol=1e-14)
        np.testing.assert_allclose(v.r, np.zeros(3), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_state_space_dephasing(self, d):
        rng = np.random.default_rng(82)
        for _ in range(10):
            ctx = random_context(d, rng)
            r, xframe, yframe = frames_of(ctx)
            u, v = geometric_maps(r, xframe, yframe)
            np.testing.assert_allclose(
                u.r, state_to_bloch(dephase(ctx.state, ctx.first)).r, atol=1e-10
            )
            np.testing.assert_allclose(
                v.r,
                state_to_bloch(
                    dephase(dephase(ctx.state, ctx.first), ctx.second)
                ).r,
                atol=1e-10,
            )

    def test_contraction(self):
        rng = np.random.default_rng(83)
        for d in (2, 3, 4):
            for _ in range(10):
                ctx = random_context(d, rng)
                r, xframe, yframe = frames_of(ctx)
                u, v = geometric_maps(r, xframe, yframe)
                assert u.norm() <= r.norm() + 1e-10
                assert v.norm() <= u.norm() + 1e-10


class TestGeometricMeasures:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_context_incompatibility_matches(self, d):
        rng = np.random.default_rng(84)
        for _ in range(15):
            ctx = random_context(d, rng)
            r, xframe, yframe = frames_of(ctx)
            assert geometric_context_incompatibility(
                r, xframe, yframe
            ) == pytest.approx(context_incompatibility(ctx), abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_leakage_ratio_matches(self, d):
        rng = np.random.default_rng(85)
        for _ in range(15):
            ctx = random_context(d, rng)
            r, xframe, yframe = frames_of(ctx)
            assert geometric_leakage_ratio(r, xframe, yframe) == pytest.approx(
                leakage_ratio(ctx), abs=1e-10
            )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_measurement_incompatibility_matches(self, d):
        rng = np.random.default_rng(86)
        for _ in range(15):
            ctx = random_context(d, rng)
            _, xframe, yframe = frames_of(ctx)
            assert geometric_measurement_incompatibility(
                xframe, yframe
            ) == pytest.approx(
                measurement_incompatibility(ctx.first, ctx.second), abs=1e-10
            )

    def test_zero_information_raises(self):
        xframe = basis_to_bloch_frame(ObservableBasis.computational(2))
        yframe = basis_to_bloch_frame(qubit_basis(0.8))
        with pytest.raises(ZeroInformationError):
            geometric_leakage_ratio(BlochVector(2, np.zeros(3)), xframe, yframe)

    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_image_norm_is_the_dephased_spread(self, d):
        # |u|^2 = d/(d-1) ||p - 1/d||^2, which puts the geometric ratio under
        # the zero-information rule of the state-space forms
        rng = np.random.default_rng(90 + d)
        for _ in range(5):
            ctx = random_context(d, rng)
            r, xframe, yframe = frames_of(ctx)
            u, _ = geometric_maps(r, xframe, yframe)
            p = outcome_probabilities(ctx.state, ctx.first)
            spread = math.sqrt(float(np.sum((p - 1.0 / d) ** 2)))
            assert math.sqrt((d - 1) / d) * u.norm() == pytest.approx(spread, rel=1e-12)

    def test_zero_information_rule_matches_the_state_space_ratio(self):
        first, second = ObservableBasis.computational(2), ObservableBasis.fourier(2)
        # ||p - 1/d|| = 1.4e-8: informative for both routes
        informative = Context(
            DensityMatrix([[0.5 + 1e-8, 0.3], [0.3, 0.5 - 1e-8]]), first, second
        )
        r, xframe, yframe = frames_of(informative)
        assert geometric_leakage_ratio(r, xframe, yframe) == pytest.approx(
            leakage_ratio(informative), abs=1e-6
        )
        assert leakage_ratio(informative) == pytest.approx(1.0, abs=1e-6)
        # ||p - 1/d|| just below the rule: both routes refuse
        offset = 0.5 * ZERO_INFO_NORM_TOL / math.sqrt(2)
        silent = Context(
            DensityMatrix([[0.5 + offset, 0.3], [0.3, 0.5 - offset]]), first, second
        )
        r, xframe, yframe = frames_of(silent)
        with pytest.raises(ZeroInformationError):
            geometric_leakage_ratio(r, xframe, yframe)
        with pytest.raises(ZeroInformationError):
            leakage_ratio(silent)

    @pytest.mark.parametrize(
        "measure",
        [
            lambda r, x, y: geometric_maps(r, x, y),
            geometric_context_incompatibility,
            geometric_leakage_ratio,
            lambda r, x, y: geometric_measurement_incompatibility(x, y),
        ],
        ids=["maps", "context", "leakage", "measurement"],
    )
    def test_frames_are_checked(self, measure):
        r = BlochVector(2, [0.0, 0.0, 0.5])
        good = basis_to_bloch_frame(ObservableBasis.computational(2))
        qutrit = basis_to_bloch_frame(ObservableBasis.computational(3))
        scalar = np.float64(1.0)
        for wrong in (qutrit, good[:1], good.T, good.ravel(), good.tolist()[:1], scalar):
            with pytest.raises(DimensionMismatchError):
                measure(r, good, wrong)
            with pytest.raises(DimensionMismatchError):
                measure(r, wrong, good)
        nan = np.array(good)
        nan[1, 0] = math.nan
        with pytest.raises(InvariantViolationError, match="non-finite"):
            measure(r, good, nan)
        with pytest.raises(InvariantViolationError, match="non-finite"):
            measure(r, nan, good)


class TestQubitMeasures:
    def test_orthogonal_axes_at_eigenstate(self):
        x = bloch_axis(0.0)
        y = bloch_axis(math.pi / 2)
        i_c, m = qubit_measures(x, x, y)
        assert i_c == pytest.approx(math.log(2), abs=1e-12)
        assert m == pytest.approx(1.0, abs=1e-12)

    def test_parallel_axes_are_free(self):
        x = bloch_axis(0.3)
        i_c, m = qubit_measures(np.array([0.1, 0.2, 0.3]), x, x)
        assert i_c == pytest.approx(0.0, abs=1e-12)
        assert m == pytest.approx(0.0, abs=1e-12)

    def test_sixty_degree_axes(self):
        # frozen scalar value: binary entropy of 3/4 in nats
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert expected == pytest.approx(0.562335, abs=1e-6)
        x = bloch_axis(0.0)
        y = bloch_axis(math.pi / 3)
        i_c, m = qubit_measures(x, x, y)
        assert i_c == pytest.approx(expected, abs=1e-12)
        assert m == pytest.approx(0.75, abs=1e-12)

    def test_matches_full_pipeline(self):
        rng = np.random.default_rng(87)
        for _ in range(25):
            ctx = random_context(2, rng)
            r, xframe, yframe = frames_of(ctx)
            i_c, m = qubit_measures(r.r, xframe[0], yframe[0])
            assert i_c == pytest.approx(context_incompatibility(ctx), abs=1e-10)
            assert m == pytest.approx(
                measurement_incompatibility(ctx.first, ctx.second), abs=1e-10
            )

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_input(self, position, bad):
        vectors = [np.array([0.0, 0.0, 0.5]), np.array([1.0, 0, 0]), np.array([0, 0, 1.0])]
        vectors[position] = np.array([bad, 0.0, 0.0])
        with pytest.raises(InvariantViolationError, match="non-finite"):
            qubit_measures(*vectors)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize(
        "bad", [np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0, 0.0]), np.float64(0.5)],
        ids=["two", "four", "scalar"],
    )
    def test_rejects_wrong_shapes(self, position, bad):
        vectors = [np.array([0.0, 0.0, 0.5]), np.array([1.0, 0, 0]), np.array([0, 0, 1.0])]
        vectors[position] = bad
        with pytest.raises(DimensionMismatchError, match=r"not \(3,\)"):
            qubit_measures(*vectors)

    def test_rejects_norm_violations(self):
        with pytest.raises(InvariantViolationError, match="unit"):
            qubit_measures(np.zeros(3), np.array([0.5, 0, 0]), np.array([1.0, 0, 0]))
        with pytest.raises(InvariantViolationError, match="ball"):
            qubit_measures(np.array([1.5, 0, 0]), np.array([1.0, 0, 0]), np.array([0, 0, 1.0]))


class TestBlochCommandAtSixteen:
    DIM = 16

    @pytest.fixture
    def doc(self, tmp_path):
        ctx = random_context(self.DIM, np.random.default_rng(91))
        path = write_document(
            tmp_path / "ctx16.json",
            self.DIM,
            ctx.state.entries,
            ctx.first.vectors,
            ctx.second.vectors,
        )
        return path, ctx

    def test_memory_peak_is_bounded(self, doc, capsys):
        tracemalloc.start()
        try:
            assert main(["bloch", doc[0]]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 64 * 1024 * 1024

    def test_cross_frame_dots_follow_the_transition_matrix(self, doc, capsys):
        path, ctx = doc
        assert main(["bloch", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        d = self.DIM
        overlaps = np.abs(ctx.first.vectors.conj().T @ ctx.second.vectors) ** 2
        np.testing.assert_allclose(
            np.array(payload["xy_dots"]), (d * overlaps - 1) / (d - 1), rtol=0, atol=2e-12
        )
