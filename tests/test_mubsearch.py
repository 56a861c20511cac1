"""Unbiased-partner search: certificate, Levenberg-Marquardt steps, seeded restarts."""

import math
import warnings

import numpy as np
import pytest

import qincompat.mubsearch as mubsearch
from qincompat.core import ObservableBasis, random_observable_basis, transition_matrix
from qincompat.measures import measurement_incompatibility
from qincompat.mubsearch import (
    SearchConfig,
    _directions,
    _normal_equations,
    maximize_incompatibility,
    mub_certificate,
)

from _oracles import (
    SEARCH_AGREEMENT_TOL,
    SEARCH_RESOLVED_GAP,
    reference_search,
    riemannian_gradient,
)
from _util import qubit_basis


def _start_cost(fixed: ObservableBasis, start: ObservableBasis) -> float:
    """||r||^2 of the residuals r = T - 1/d at a start, as the search forms it."""
    residual = transition_matrix(fixed, start) - 1.0 / fixed.dim
    return np.vdot(residual, residual)


def _start_score(fixed: ObservableBasis, start: ObservableBasis) -> float:
    """The objective the search records for a start: M read off ||r||^2."""
    return mubsearch._score(_start_cost(fixed, start), fixed.dim)


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
        # basis F W must carry the objective the search read off ||r||^2 on
        # W; the two forms differ by 2 (sum T - d) / (d (d - 1)), and the
        # iterates are unitary only to ~1e-14
        for d in range(2, 17):
            fixed = random_observable_basis(d, np.random.default_rng(299 + d))
            config = SearchConfig(dim=d, restarts=2, max_iters=30, seed=1)
            result = maximize_incompatibility(fixed, config)
            assert result.objective == pytest.approx(
                measurement_incompatibility(fixed, result.best_basis), abs=1e-14
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
            # these used to escape as TypeError from the range comparison
            dict(dim=2, tol_mub="x"),
            dict(dim=2, tol_mub=None),
            dict(dim=2, tol_mub=[1e-8]),
            dict(dim=2, tol_mub=True),
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
            "tol_mub-string",
            "tol_mub-none",
            "tol_mub-list",
            "tol_mub-bool",
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
    def test_restarts_start_from_the_seeded_draws(self):
        # the first start is the computational basis and restart k >= 1 the
        # k-th Haar draw of default_rng(seed), each seen from the fixed basis;
        # one step from a Haar start certifies no restart, so all four run
        d, seed = 4, 17
        config = SearchConfig(dim=d, restarts=4, max_iters=1, seed=seed)
        computational = ObservableBasis.computational(d)
        for fixed in (computational, random_observable_basis(d, np.random.default_rng(330))):
            result = maximize_incompatibility(fixed, config)
            starts = [value for iteration, value in result.trajectory if iteration == 0]
            assert len(starts) == result.restarts_used == 4
            assert starts[0] == _start_score(fixed, computational)
            rng = np.random.default_rng(seed)
            for value in starts[1:]:
                draw = random_observable_basis(d, rng)
                assert value == _start_score(fixed, draw)

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
        assert result.certified_mub
        assert 1.0 - result.objective <= 1e-12
        # the critical start and 8 trials: damping from ||r||^2 rejects none
        # of them (damping from 1e-3 took 14 trials, 5 of them rejected)
        assert len(result.trajectory) <= 10

    @staticmethod
    def _record_calls(monkeypatch):
        """Call log of the search: "solve" per linear solve, "trial" per
        trial step (its one eigh) and "draw" per Haar draw."""
        calls = []
        draw = mubsearch.random_observable_basis
        solve = np.linalg.solve
        eigh = np.linalg.eigh

        def counting_draw(dim, rng):
            calls.append("draw")
            return draw(dim, rng)

        def counting_solve(a, b):
            calls.append("solve")
            return solve(a, b)

        def counting_eigh(a, UPLO="L"):
            calls.append("trial")
            return eigh(a, UPLO=UPLO)

        monkeypatch.setattr(mubsearch, "random_observable_basis", counting_draw)
        monkeypatch.setattr(mubsearch.np.linalg, "solve", counting_solve)
        monkeypatch.setattr(mubsearch.np.linalg, "eigh", counting_eigh)
        return calls

    def test_critical_start_scores_no_trial(self, monkeypatch):
        # the computational start against the computational basis has J = 0;
        # the ascent used to back off 39 halvings on each of ten iterations
        calls = self._record_calls(monkeypatch)
        config = SearchConfig(dim=2, restarts=20, tol_mub=1e-6, seed=3)
        result = maximize_incompatibility(ObservableBasis.computational(2), config)
        assert result.restarts_used >= 2
        # no solve and no trial before the first Haar draw
        assert calls.index("draw") == 0
        # and its restart records the start alone
        assert result.trajectory[0] == (0, 0.0)
        assert result.trajectory[1][0] == 0

    def test_critical_start_performs_no_solve(self, monkeypatch):
        # J^T r = 0 exactly ends the restart before any linear solve
        calls = self._record_calls(monkeypatch)
        config = SearchConfig(dim=3, restarts=2, seed=0)
        maximize_incompatibility(ObservableBasis.computational(3), config)
        first_draw = calls.index("draw")
        assert "solve" not in calls[:first_draw]
        assert "solve" in calls[first_draw:]

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_no_trial_is_solved_after_the_rounding_level(self, seed, monkeypatch):
        # the restart ends at the first iterate whose residuals are all at
        # rounding level: its trial is the last thing scored, and no further
        # solve or Haar draw follows it
        calls = self._record_calls(monkeypatch)
        config = SearchConfig(dim=2, restarts=20, tol_mub=1e-6, seed=seed)
        fixed = ObservableBasis.computational(2)
        result = maximize_incompatibility(fixed, config)
        assert calls[-2:] == ["solve", "trial"]
        assert result.trajectory[-1][1] == result.objective
        assert "draw" not in calls[calls.index("solve") :]
        assert mub_certificate(fixed, result.best_basis, mubsearch.RESIDUAL_TOL)[0]

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_restarts_end_at_the_rounding_level(self, d, seed, monkeypatch):
        # no normal equations are formed at rounding level, and the first
        # restart that reaches it certifies and skips the rest
        deviations = []
        formed = mubsearch._normal_equations

        def recording(overlaps, residual, directions):
            deviations.append(float(np.abs(residual).max()))
            return formed(overlaps, residual, directions)

        monkeypatch.setattr(mubsearch, "_normal_equations", recording)
        fixed = random_observable_basis(d, np.random.default_rng(400 + seed))
        config = SearchConfig(dim=d, restarts=4, max_iters=300, seed=seed)
        result = maximize_incompatibility(fixed, config)
        assert deviations
        assert min(deviations) > mubsearch.RESIDUAL_TOL
        assert result.restarts_used == 1
        assert result.certified_mub
        assert mub_certificate(fixed, result.best_basis, 1e-13)[0]
        values = [value for _, value in result.trajectory]
        assert all(later >= earlier for earlier, later in zip(values, values[1:]))


def _numeric_jacobian(overlaps: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central differences of r = |W|^2 - 1/d along W <- exp(iH) W, one
    column per direction E_ab + E_ba, i(E_ab - E_ba), pairs in triu order."""
    d = overlaps.shape[0]
    columns = []
    for a, b in zip(*np.triu_indices(d, 1)):
        for phase in (1.0, 1j):
            h = np.zeros((d, d), dtype=complex)
            h[a, b], h[b, a] = phase, np.conj(phase)
            lam, vecs = np.linalg.eigh(h)

            def moved(t):
                rotation = (vecs * np.exp(1j * t * lam)) @ vecs.conj().T
                return np.abs(rotation @ overlaps).ravel() ** 2

            columns.append((moved(step) - moved(-step)) / (2 * step))
    return np.array(columns).T


class TestLevenbergMarquardt:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_normal_equations_match_central_differences(self, d):
        rng = np.random.default_rng(340 + d)
        directions = _directions(d)
        for _ in range(3):
            overlaps = random_observable_basis(d, rng).vectors
            residual = np.abs(overlaps) ** 2 - 1.0 / d
            jacobian = _numeric_jacobian(overlaps)
            gram, descent = _normal_equations(overlaps, residual, directions)
            np.testing.assert_allclose(gram, jacobian.T @ jacobian, rtol=0, atol=1e-8)
            np.testing.assert_allclose(descent, -jacobian.T @ residual.ravel(), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_descent_is_the_oracle_gradient(self, d):
        # M = 1 - ||r||^2 / (d - 1) on unitary W, so along direction H_p the
        # gradient's rate Re tr(G^H iH_p) is -2 (J^T r)_p / (d - 1)
        rng = np.random.default_rng(360 + d)
        fixed = random_observable_basis(d, rng).vectors
        overlaps = fixed.conj().T @ random_observable_basis(d, rng).vectors
        gradient = riemannian_gradient(overlaps)
        rates = []
        for a, b in zip(*np.triu_indices(d, 1)):
            for phase in (1.0, 1j):
                rates.append(2.0 * (phase * gradient[b, a]).imag)
        _, descent = _normal_equations(overlaps, np.abs(overlaps) ** 2 - 1.0 / d, _directions(d))
        np.testing.assert_allclose(2.0 * descent / (d - 1), rates, rtol=0, atol=1e-13)

    def test_stalled_start_stops_at_the_damping_ceiling(self, monkeypatch):
        # steps along +J^T r raise ||r||^2 and are all rejected, so each
        # restart multiplies lambda by 10 from ||r_0||^2 until it passes 1e8
        formed = mubsearch._normal_equations

        def ascent(overlaps, residual, directions):
            gram, descent = formed(overlaps, residual, directions)
            return gram, -descent

        monkeypatch.setattr(mubsearch, "_normal_equations", ascent)
        d = 3
        fixed = random_observable_basis(d, np.random.default_rng(370))
        result = maximize_incompatibility(fixed, SearchConfig(dim=d, restarts=3, seed=0))
        restarts = []
        for iteration, value in result.trajectory:
            if iteration == 0:
                restarts.append([])
            restarts[-1].append(value)
        rng = np.random.default_rng(0)
        starts = [ObservableBasis.computational(d)] + [random_observable_basis(d, rng) for _ in range(2)]
        expected = []
        for start in starts:
            damping, trials = max(_start_cost(fixed, start), mubsearch.DAMPING_FLOOR), 0
            while damping <= mubsearch.DAMPING_CEILING:
                damping, trials = damping * 10.0, trials + 1
            # the ceiling, not the stall stop, ends these restarts
            assert trials < mubsearch.STALL_WINDOW
            expected.append(1 + trials)
        # no trial was accepted: each restart repeats its start value
        assert [len(values) for values in restarts] == expected
        assert all(len(set(values)) == 1 for values in restarts)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_every_accepted_step_lowers_the_residual(self, d, monkeypatch):
        # the normal equations are formed at each start and after each
        # accepted step but the last, so the residuals they see fall
        seen = []
        formed = mubsearch._normal_equations
        draw = mubsearch.random_observable_basis

        def recording(overlaps, residual, directions):
            seen[-1].append(float(np.linalg.norm(residual)))
            return formed(overlaps, residual, directions)

        def recording_draw(dim, rng):
            seen.append([])
            return draw(dim, rng)

        seen.append([])
        monkeypatch.setattr(mubsearch, "_normal_equations", recording)
        monkeypatch.setattr(mubsearch, "random_observable_basis", recording_draw)
        fixed = random_observable_basis(d, np.random.default_rng(380 + d))
        result = maximize_incompatibility(fixed, SearchConfig(dim=d, restarts=4, seed=1))
        assert result.certified_mub
        assert sum(len(norms) for norms in seen) > 3
        for norms in seen:
            assert all(later < earlier for earlier, later in zip(norms, norms[1:]))

    @pytest.mark.parametrize("d", [3, 4, 5, 8])
    def test_damping_follows_the_residual(self, d, monkeypatch):
        # lambda starts at ||r_0||^2 and stays at or below ||r||^2 after each
        # accepted step; it is read back off the solved matrix J^T J + lambda I
        # at its smallest diagonal entry, to the rounding of that entry
        formed = mubsearch._normal_equations
        solve = np.linalg.solve
        draw = mubsearch.random_observable_basis
        starting = [True]
        # the normal equations formed last, until their first solve
        pending = []
        # per such solve: lambda, ||r||^2, whether it is a restart's first, rounding
        damped = []

        def recording(overlaps, residual, directions):
            gram, descent = formed(overlaps, residual, directions)
            pending[:] = [(gram, np.vdot(residual, residual), starting[0])]
            starting[0] = False
            return gram, descent

        def recording_solve(a, b):
            if pending:
                gram, cost, start = pending.pop()
                i = np.argmin(np.diagonal(gram))
                damped.append((a[i, i] - gram[i, i], cost, start, np.spacing(a[i, i])))
            return solve(a, b)

        def recording_draw(dim, rng):
            starting[0] = True
            return draw(dim, rng)

        monkeypatch.setattr(mubsearch, "_normal_equations", recording)
        monkeypatch.setattr(mubsearch.np.linalg, "solve", recording_solve)
        monkeypatch.setattr(mubsearch, "random_observable_basis", recording_draw)
        fixed = random_observable_basis(d, np.random.default_rng(390 + d))
        result = maximize_incompatibility(fixed, SearchConfig(dim=d, restarts=4, seed=2))
        assert result.certified_mub
        assert sum(start for _, _, start, _ in damped) == result.restarts_used
        assert len(damped) > 2 * result.restarts_used
        for damping, cost, start, rounding in damped:
            assert damping >= mubsearch.DAMPING_FLOOR - rounding
            if start:
                assert abs(damping - cost) <= rounding
            else:
                assert damping <= max(cost, mubsearch.DAMPING_FLOOR) + rounding

    def test_stalled_restarts_end_early(self):
        # against this fixed basis most restarts stall at max|r| ~ 1e-4, where
        # tiny accepted gains kept lambda low for 150-230 trials a restart
        fixed = random_observable_basis(16, np.random.default_rng(1272))
        result = maximize_incompatibility(fixed, SearchConfig(dim=16, seed=0))
        assert result.certified_mub
        starts = [i for i, (iteration, _) in enumerate(result.trajectory) if iteration == 0]
        lengths = np.diff(starts + [len(result.trajectory)]) - 1
        assert len(lengths) == result.restarts_used
        assert max(lengths) <= 100

    @pytest.mark.parametrize("d", range(2, 17))
    def test_certifies_at_the_default_tolerance(self, d):
        # the ascent certified 7 of these 15: M cannot see a residual below ~1e-8
        fixed = ObservableBasis.computational(d)
        result = maximize_incompatibility(fixed, SearchConfig(dim=d, seed=0))
        assert result.certified_mub
        assert mub_certificate(fixed, result.best_basis, 1e-11)[0]


def _assert_follows_the_reference(fixed, config):
    # the two searches take the same steps while M still resolves the
    # residuals, and end on the same verdict; past that, rounding decides
    # which trials pass, and both end on unbiased bases of M = 1 to rounding
    result = maximize_incompatibility(fixed, config)
    reference = reference_search(fixed, config)
    assert result.restarts_used == reference.restarts_used
    assert result.certified_mub == reference.certified_mub
    assert result.objective == pytest.approx(reference.objective, rel=0, abs=1e-13)
    resolved = [
        [(iteration, value) for iteration, value in search.trajectory if value < 1.0 - SEARCH_RESOLVED_GAP]
        for search in (result, reference)
    ]
    assert [iteration for iteration, _ in resolved[0]] == [iteration for iteration, _ in resolved[1]]
    assert len(resolved[0]) >= result.restarts_used
    np.testing.assert_allclose(
        [value for _, value in resolved[0]],
        [value for _, value in resolved[1]],
        rtol=0,
        atol=SEARCH_AGREEMENT_TOL,
    )


class TestReferenceSearch:
    """The search forms J^T J and J^T r from the pair incidences without J;
    it must step as the search with the dense Jacobian does."""

    # the default config, then the mub-search benchmark's configs
    CONFIGS = [
        {},
        dict(restarts=20, tol_mub=1e-6),
        dict(restarts=6, max_iters=300),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_follows_the_dense_jacobian_search(self, d, seed, config):
        config = SearchConfig(dim=d, seed=seed, **config)
        _assert_follows_the_reference(ObservableBasis.computational(d), config)

    def test_criterion_8_follows_the_dense_jacobian_search(self):
        config = SearchConfig(dim=5, restarts=12, max_iters=1200, seed=0)
        _assert_follows_the_reference(ObservableBasis.computational(5), config)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_follows_the_dense_jacobian_search_from_random_fixed_bases(self, d, seed):
        # against a random basis the computational start is no critical point,
        # so the first restart steps too
        fixed = random_observable_basis(d, np.random.default_rng(700 + seed))
        _assert_follows_the_reference(fixed, SearchConfig(dim=d, restarts=4, seed=seed))
