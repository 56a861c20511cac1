"""Unbiased-partner search: certificate, optimizer, seeded restarts."""

import math
import warnings

import numpy as np
import pytest

import qincompat.mubsearch as mubsearch
from qincompat.core import ObservableBasis, random_observable_basis
from qincompat.measures import measurement_incompatibility
from qincompat.mubsearch import (
    SearchConfig,
    _riemannian_gradient,
    maximize_incompatibility,
    mub_certificate,
)

from _oracles import GRADIENT_FRAME_TOL, unitary_frame_gradient, unpruned_search
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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8, "x", None, "1e-8", True, [1e-8]])
    def test_rejects_a_negative_or_non_finite_tolerance(self, tol):
        # a NaN tolerance used to return (False, deviation) without a word, and
        # strings and None escaped as numpy's TypeError from isfinite
        basis = ObservableBasis.computational(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^tol must be a finite real number >= 0, got "):
                mub_certificate(basis, ObservableBasis.fourier(2), tol)


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
        # a random fixed basis keeps F out of the identity, so the returned
        # basis F W must carry the objective the search scored on W
        for d in range(2, 9):
            fixed = random_observable_basis(d, np.random.default_rng(299 + d))
            config = SearchConfig(dim=d, restarts=2, max_iters=30, seed=1)
            result = maximize_incompatibility(fixed, config)
            assert result.objective == pytest.approx(
                measurement_incompatibility(fixed, result.best_basis), abs=1e-12
            ), f"d = {d}"

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

    @pytest.mark.parametrize(
        "fields",
        [
            # tol_mub = inf certified the computational basis as unbiased to itself
            dict(dim=2, tol_mub=math.inf),
            dict(dim=2, tol_mub=math.nan),
            # at 1/d a zero overlap would pass the certificate
            dict(dim=4, tol_mub=0.25),
            dict(dim=2.5),
            dict(dim=True),
            dict(dim=2, restarts=True),
            dict(dim=2, restarts=2.5),
            dict(dim=2, max_iters=False),
            dict(dim=2, max_iters=30.0),
            # default_rng(True) would run as seed 1
            dict(dim=2, seed=True),
            dict(dim=2, seed=2.5),
            dict(dim=2, seed=-1),
        ],
        ids=[
            "tol_mub-inf",
            "tol_mub-nan",
            "tol_mub-one-over-d",
            "dim-float",
            "dim-bool",
            "restarts-bool",
            "restarts-float",
            "max_iters-bool",
            "max_iters-float",
            "seed-bool",
            "seed-float",
            "seed-negative",
        ],
    )
    def test_config_fails_closed(self, fields):
        with pytest.raises(ValueError):
            SearchConfig(**fields)

    def test_config_accepts_numpy_integers(self):
        config = SearchConfig(dim=np.int64(3), restarts=np.int32(2), max_iters=np.int64(5))
        result = maximize_incompatibility(ObservableBasis.computational(3), config)
        assert result.restarts_used >= 1


class TestRiemannianAscent:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_slope_along_the_geodesic_is_the_squared_gradient_norm(self, d):
        rng = np.random.default_rng(304 + d)
        fixed = random_observable_basis(d, rng)
        step = 1e-6
        for _ in range(5):
            overlaps = fixed.vectors.conj().T @ random_observable_basis(d, rng).vectors
            gradient = _riemannian_gradient(overlaps, np.abs(overlaps) ** 2)
            np.testing.assert_array_equal(gradient, -gradient.conj().T)
            lam, vecs = np.linalg.eigh(1j * gradient)

            def along(mu):
                moved = (vecs * np.exp(-1j * mu * lam)) @ vecs.conj().T @ overlaps
                return measurement_incompatibility(fixed, ObservableBasis(fixed.vectors @ moved))

            slope = (along(step) - along(-step)) / (2 * step)
            squared_norm = float(np.sum(np.abs(gradient) ** 2))
            assert slope == pytest.approx(squared_norm, rel=1e-6)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_gradient_is_conjugate_to_the_unitary_frame_gradient(self, d):
        # G_U = F G_W F^H, so a step on W = F^H U is the step on U seen from F
        rng = np.random.default_rng(320 + d)
        fixed = random_observable_basis(d, rng).vectors
        for _ in range(3):
            unitary = random_observable_basis(d, rng).vectors
            overlaps = fixed.conj().T @ unitary
            gradient = _riemannian_gradient(overlaps, np.abs(overlaps) ** 2)
            reference = fixed.conj().T @ unitary_frame_gradient(fixed, unitary) @ fixed
            np.testing.assert_allclose(gradient, reference, rtol=0, atol=GRADIENT_FRAME_TOL)
            # against the computational basis every product with F is exact
            np.testing.assert_array_equal(
                _riemannian_gradient(unitary, np.abs(unitary) ** 2),
                unitary_frame_gradient(np.eye(d, dtype=complex), unitary),
            )

    def test_restarts_start_from_the_seeded_draws(self):
        # the first start is the computational basis and restart k >= 1 the
        # k-th Haar draw of default_rng(seed), each seen from the fixed basis
        d, seed = 4, 17
        config = SearchConfig(dim=d, restarts=4, max_iters=5, seed=seed)
        computational = ObservableBasis.computational(d)
        for fixed in (computational, random_observable_basis(d, np.random.default_rng(330))):
            result = maximize_incompatibility(fixed, config)
            starts = [value for iteration, value in result.trajectory if iteration == 0]
            assert len(starts) == result.restarts_used == 4
            assert starts[0] == measurement_incompatibility(fixed, computational)
            rng = np.random.default_rng(seed)
            for value in starts[1:]:
                draw = random_observable_basis(d, rng)
                assert value == measurement_incompatibility(fixed, draw)

    @pytest.mark.parametrize(
        "d, restarts, max_iters",
        [(5, 12, 1200), (6, 4, 800)],
        ids=["criterion-8", "dimension-six"],
    )
    def test_converges_to_machine_precision(self, d, restarts, max_iters):
        config = SearchConfig(dim=d, restarts=restarts, max_iters=max_iters, seed=0)
        result = maximize_incompatibility(ObservableBasis.computational(d), config)
        assert 1.0 - result.objective < 1e-10


class TestNoDeadWork:
    def test_criterion_8_skips_restarts(self):
        # every restart used to stall just above 1 - M = 1e-12, so the skip
        # rule never fired and all 12 restarts ran
        config = SearchConfig(dim=5, restarts=12, max_iters=1200, seed=0)
        result = maximize_incompatibility(ObservableBasis.computational(5), config)
        assert result.restarts_used < 12
        assert 1.0 - result.objective <= mubsearch.OBJECTIVE_TOL

    @staticmethod
    def _record_scores_and_draws(monkeypatch):
        """Call log of the search: each score's value, and "draw" per Haar draw."""
        calls = []
        score = mubsearch._overlap_form
        draw = mubsearch.random_observable_basis

        def counting_score(trans):
            value = score(trans)
            calls.append(value)
            return value

        def counting_draw(dim, rng):
            calls.append("draw")
            return draw(dim, rng)

        monkeypatch.setattr(mubsearch, "_overlap_form", counting_score)
        monkeypatch.setattr(mubsearch, "random_observable_basis", counting_draw)
        return calls

    def test_critical_start_scores_no_trial(self, monkeypatch):
        # the computational start against the computational basis has G = 0;
        # it used to back off 39 halvings on each of ten iterations
        calls = self._record_scores_and_draws(monkeypatch)
        config = SearchConfig(dim=2, restarts=20, tol_mub=1e-6, seed=3)
        result = maximize_incompatibility(ObservableBasis.computational(2), config)
        assert result.restarts_used >= 2
        # the start's own score and nothing else before the first Haar draw
        assert calls.index("draw") == 1
        # and its restart records the start alone
        assert result.trajectory[0] == (0, 0.0)
        assert result.trajectory[1][0] == 0

    # seeds whose search reaches M = 1.0 exactly; seeds 3 and 4 stop a few
    # ulps below it, inside the skip margin
    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_no_trial_is_scored_after_the_ceiling(self, seed, monkeypatch):
        # at M = 1.0 no step can pass the Armijo test; the line search used to
        # score some 40 of them, from 0.5 halved down to the floor
        calls = self._record_scores_and_draws(monkeypatch)
        config = SearchConfig(dim=2, restarts=20, tol_mub=1e-6, seed=seed)
        result = maximize_incompatibility(ObservableBasis.computational(2), config)
        assert result.objective == 1.0
        after = calls[calls.index(1.0) + 1 :]
        # nothing is scored between reaching the ceiling and the next Haar draw
        until_draw = after[: after.index("draw")] if "draw" in after else after
        assert until_draw == []

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_restarts_end_without_repeated_searches(self, d, seed):
        # a failed line search leaves the iterate and the step seed as they
        # were, so the restart ends there instead of repeating it
        fixed = random_observable_basis(d, np.random.default_rng(400 + seed))
        config = SearchConfig(dim=d, restarts=4, max_iters=300, seed=seed)
        result = maximize_incompatibility(fixed, config)
        restarts = []
        for iteration, value in result.trajectory:
            if iteration == 0:
                restarts.append([])
            restarts[-1].append(value)
        assert len(restarts) == result.restarts_used
        for values in restarts:
            repeats = sum(1 for a, b in zip(values, values[1:]) if a == b)
            assert repeats <= 1
            if repeats:
                assert values[-1] == values[-2]


def _assert_equal_searches(fixed, config):
    result = maximize_incompatibility(fixed, config)
    reference = unpruned_search(fixed, config)
    assert result.trajectory == reference.trajectory
    assert result.objective == reference.objective
    assert result.certified_mub == reference.certified_mub
    assert result.restarts_used == reference.restarts_used
    assert np.array_equal(result.best_basis.vectors, reference.best_basis.vectors)


class TestCeilingPruning:
    """The search skips line-search steps that the ceiling M <= 1 rules out
    without scoring them; it must return what scoring every step returns."""

    # the default config, then the mub-search benchmark's configs
    CONFIGS = [
        {},
        dict(restarts=20, tol_mub=1e-6),
        dict(restarts=6, max_iters=300),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_equals_the_unpruned_search(self, d, seed, config):
        config = SearchConfig(dim=d, seed=seed, **config)
        _assert_equal_searches(ObservableBasis.computational(d), config)

    def test_criterion_8_equals_the_unpruned_search(self):
        config = SearchConfig(dim=5, restarts=12, max_iters=1200, seed=0)
        _assert_equal_searches(ObservableBasis.computational(5), config)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_equals_the_unpruned_search_from_random_fixed_bases(self, d, seed):
        # against a random basis the computational start is no critical point,
        # so the first restart ascends too
        fixed = random_observable_basis(d, np.random.default_rng(700 + seed))
        _assert_equal_searches(fixed, SearchConfig(dim=d, restarts=4, seed=seed))
