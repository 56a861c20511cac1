"""Unbiased-partner search: certificate, optimizer, seeded restarts."""

import math
import sys

import numpy as np
import pytest

from qincompat.core import ObservableBasis, random_observable_basis
from qincompat.measures import measurement_incompatibility
from qincompat.mubsearch import (
    SearchConfig,
    _riemannian_gradient,
    maximize_incompatibility,
    mub_certificate,
)

from _util import qubit_basis


class TestMubCertificate:
    def test_fourier_pair_certifies(self):
        ok, deviation = mub_certificate(
            ObservableBasis.computational(5), ObservableBasis.fourier(5), 1e-8
        )
        assert ok
        assert deviation <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_identical_bases_deviation(self, d):
        basis = ObservableBasis.computational(d)
        ok, deviation = mub_certificate(basis, basis, 1e-8)
        assert not ok
        assert deviation == pytest.approx(1.0 - 1.0 / d, abs=1e-12)

    def test_qubit_sixty_degree_deviation(self):
        _, deviation = mub_certificate(
            ObservableBasis.computational(2), qubit_basis(math.pi / 3), 1e-8
        )
        assert deviation == pytest.approx(0.25, abs=1e-12)


class TestMaximizeIncompatibility:
    def test_qubit_search_certifies_at_default_tolerance(self):
        config = SearchConfig(dim=2, restarts=10, seed=7)
        result = maximize_incompatibility(ObservableBasis.computational(2), config)
        assert result.objective >= 1.0 - 1e-8
        assert result.certified_mub

    def test_qutrit_search_reaches_unbiased_partner(self):
        config = SearchConfig(dim=3, restarts=20, tol_mub=1e-6, seed=7)
        result = maximize_incompatibility(ObservableBasis.computational(3), config)
        assert result.objective >= 1.0 - 1e-6
        assert result.certified_mub

    def test_escapes_the_global_minimum_start(self):
        # the first start is the fixed basis itself, where the objective is
        # zero with a vanishing gradient; the restart machinery must escape
        config = SearchConfig(dim=4, restarts=3, max_iters=60, seed=3)
        result = maximize_incompatibility(ObservableBasis.computational(4), config)
        assert result.trajectory[0][1] == pytest.approx(0.0, abs=1e-12)
        assert result.objective > 0.5
        assert result.restarts_used >= 2

    def test_deterministic_given_seed(self):
        config = SearchConfig(dim=3, restarts=4, max_iters=40, seed=42)
        first = maximize_incompatibility(ObservableBasis.computational(3), config)
        second = maximize_incompatibility(ObservableBasis.computational(3), config)
        assert first.trajectory == second.trajectory
        assert first.objective == second.objective
        np.testing.assert_array_equal(first.best_basis.vectors, second.best_basis.vectors)

    def test_trajectory_monotone_within_each_restart(self):
        config = SearchConfig(dim=3, restarts=3, max_iters=50, seed=5)
        result = maximize_incompatibility(ObservableBasis.computational(3), config)
        previous = None
        for iteration, objective in result.trajectory:
            if iteration > 0:
                assert objective >= previous - 1e-15
            previous = objective

    def test_objective_goes_through_the_measure(self):
        rng = np.random.default_rng(302)
        fixed = random_observable_basis(3, rng)
        config = SearchConfig(dim=3, restarts=2, max_iters=30, seed=1)
        result = maximize_incompatibility(fixed, config)
        assert result.objective == pytest.approx(
            measurement_incompatibility(fixed, result.best_basis), abs=1e-12
        )

    def test_objective_invariant_under_phases_and_permutations(self):
        rng = np.random.default_rng(303)
        fixed = random_observable_basis(3, rng)
        candidate = random_observable_basis(3, rng)
        value = measurement_incompatibility(fixed, candidate)
        phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
        permuted = candidate.vectors[:, [2, 0, 1]] @ phases
        relabeled = ObservableBasis(permuted)
        assert measurement_incompatibility(fixed, relabeled) == pytest.approx(
            value, abs=1e-10
        )

    def test_certificate_consistent_with_maximal_objective(self):
        config = SearchConfig(dim=2, restarts=5, seed=11)
        result = maximize_incompatibility(ObservableBasis.computational(2), config)
        ok, deviation = mub_certificate(
            ObservableBasis.computational(2), result.best_basis, config.tol_mub
        )
        assert result.certified_mub == ok
        assert (result.objective >= 1.0 - 1e-8) == (deviation <= config.tol_mub)

    def test_dimension_six_pairwise_search_still_works(self):
        # no complete unbiased set is known at d = 6, but pairs exist
        # (the Fourier basis is one), so the pairwise search must converge
        config = SearchConfig(dim=6, restarts=4, max_iters=800, seed=0)
        result = maximize_incompatibility(ObservableBasis.computational(6), config)
        assert result.objective >= 1.0 - 1e-5
        _, deviation = mub_certificate(
            ObservableBasis.computational(6), result.best_basis, 1e-4
        )
        assert deviation <= 5e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(dim=1)
        with pytest.raises(ValueError):
            SearchConfig(dim=2, restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(dim=2, tol_mub=1e-12)


class TestRiemannianAscent:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_slope_along_the_geodesic_is_the_squared_gradient_norm(self, d):
        rng = np.random.default_rng(304 + d)
        fixed = random_observable_basis(d, rng)
        step = 1e-6
        for _ in range(5):
            unitary = random_observable_basis(d, rng).vectors
            gradient = _riemannian_gradient(fixed.vectors, unitary)
            np.testing.assert_array_equal(gradient, -gradient.conj().T)
            lam, vecs = np.linalg.eigh(1j * gradient)

            def along(mu):
                moved = (vecs * np.exp(-1j * mu * lam)) @ vecs.conj().T @ unitary
                return measurement_incompatibility(fixed, ObservableBasis(moved))

            slope = (along(step) - along(-step)) / (2 * step)
            squared_norm = float(np.sum(np.abs(gradient) ** 2))
            assert slope == pytest.approx(squared_norm, rel=1e-6)

    def test_restarts_start_from_the_seeded_draws(self):
        # restart k >= 1 starts at the k-th Haar draw of default_rng(seed)
        d, seed = 4, 17
        config = SearchConfig(dim=d, restarts=4, max_iters=5, seed=seed)
        fixed = ObservableBasis.computational(d)
        result = maximize_incompatibility(fixed, config)
        starts = [value for iteration, value in result.trajectory if iteration == 0]
        assert len(starts) == result.restarts_used == 4
        rng = np.random.default_rng(seed)
        for value in starts[1:]:
            draw = random_observable_basis(d, rng)
            assert value == measurement_incompatibility(fixed, draw)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_search_never_builds_the_generator_set(self, d, monkeypatch):
        def refuse(dim):
            raise AssertionError("the search must not build SU(d) generators")

        # replace every binding of the name, so that a module holding its
        # own reference from a from-import is caught too
        for name, module in list(sys.modules.items()):
            if name.startswith("qincompat") and hasattr(module, "build_generators"):
                monkeypatch.setattr(module, "build_generators", refuse)
        config = SearchConfig(dim=d, restarts=3, max_iters=50, seed=d)
        result = maximize_incompatibility(ObservableBasis.computational(d), config)
        assert result.restarts_used >= 2
        assert result.objective > 0.5

    @pytest.mark.parametrize(
        "d, restarts, max_iters",
        [(5, 12, 1200), (6, 4, 800)],
        ids=["criterion-8", "dimension-six"],
    )
    def test_converges_to_machine_precision(self, d, restarts, max_iters):
        config = SearchConfig(dim=d, restarts=restarts, max_iters=max_iters, seed=0)
        result = maximize_incompatibility(ObservableBasis.computational(d), config)
        assert 1.0 - result.objective < 1e-10
