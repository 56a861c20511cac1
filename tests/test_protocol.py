"""Dilated interception ledger, noise sweeps, weak measurements."""

import dataclasses
import math

import numpy as np
import pytest

from qincompat import core, measures, protocol
from qincompat.core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    dephase,
    information,
    random_density_matrix,
    random_observable_basis,
    shannon_entropy,
    von_neumann_entropy,
)
from qincompat.errors import CrossCheckError, ZeroInformationError
from qincompat.measures import (
    ContextClass,
    classify_context,
    context_incompatibility,
    incompatibility_report,
    leakage_ratio,
)
from qincompat.protocol import (
    LedgerEntry,
    apply_noise,
    default_epsilon_grid,
    mass_model_context_incompat,
    noise_sweep,
    small_eps_expansion,
    stinespring_ledger,
    weak_measure,
)

from _oracles import dilation_ledger, hs_norm_sq, sequential_dephase
from _util import (
    commuting_context,
    eigenstate_context,
    qubit_basis,
    random_context,
    zero_information_context,
)

LN2 = math.log(2.0)


def mub_qubit_eigenstate() -> Context:
    return Context(
        DensityMatrix.pure([1.0, 0.0]),
        ObservableBasis.computational(2),
        ObservableBasis.fourier(2),
    )


class TestStinespringLedger:
    def test_free_context_consumes_nothing(self):
        rng = np.random.default_rng(201)
        ledger = stinespring_ledger(commuting_context(3, rng))
        assert ledger.i_initial == pytest.approx(ledger.i_final, abs=1e-10)
        assert ledger.delta_apparatus + ledger.mutual_info == pytest.approx(0.0, abs=1e-9)

    def test_qubit_mub_eigenstate_against_explicit_joint_state(self):
        ctx = mub_qubit_eigenstate()
        ledger = stinespring_ledger(ctx)
        assert ledger.i_initial == pytest.approx(LN2, abs=1e-12)
        assert ledger.i_final == pytest.approx(0.0, abs=1e-12)
        assert ledger.delta_apparatus + ledger.mutual_info == pytest.approx(
            LN2, abs=1e-9
        )
        # oracle: the joint output is the maximally entangled two-qubit state
        # sum_k <y_k|0> |y_k, k>, so both reduced states are I/2 while the
        # joint state stays pure
        cols = ctx.second.vectors
        ket = (
            np.kron(cols[:, 0], np.eye(2)[0]) * cols[0, 0].conj()
            + np.kron(cols[:, 1], np.eye(2)[1]) * cols[0, 1].conj()
        )
        joint = np.outer(ket, ket.conj())
        assert abs(np.trace(joint) - 1.0) < 1e-12
        joint_entropy = shannon_entropy(np.linalg.eigvalsh(joint))
        assert joint_entropy == pytest.approx(0.0, abs=1e-10)
        assert ledger.mutual_info == pytest.approx(2 * LN2, abs=1e-9)
        assert ledger.delta_apparatus == pytest.approx(-LN2, abs=1e-9)

    def test_maximally_mixed_input_gives_zero_consumption(self):
        # only the sum of the two right-hand ledger fields is dilation
        # independent; the controlled-shift dilation still records which
        # outcome occurred, so the individual fields are nonzero here
        rng = np.random.default_rng(202)
        ctx = Context(
            DensityMatrix.maximally_mixed(3),
            random_observable_basis(3, rng),
            random_observable_basis(3, rng),
        )
        ledger = stinespring_ledger(ctx)
        assert ledger.i_initial == pytest.approx(0.0, abs=1e-10)
        assert ledger.i_final == pytest.approx(0.0, abs=1e-10)
        assert ledger.delta_apparatus + ledger.mutual_info == pytest.approx(
            0.0, abs=1e-9
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_balance_and_consumed_resource(self, d):
        rng = np.random.default_rng(203)
        for _ in range(20):
            ctx = random_context(d, rng)
            ledger = stinespring_ledger(ctx)
            consumed = ledger.i_initial - ledger.i_final
            assert consumed == pytest.approx(
                ledger.delta_apparatus + ledger.mutual_info, abs=1e-9
            )
            assert consumed == pytest.approx(context_incompatibility(ctx), abs=1e-9)
            assert ledger.mutual_info >= -1e-10


class TestApplyNoise:
    def test_endpoints(self):
        rng = np.random.default_rng(204)
        rho = random_density_matrix(3, rng)
        np.testing.assert_allclose(apply_noise(rho, 1.0).entries, rho.entries, atol=1e-14)
        np.testing.assert_allclose(
            apply_noise(rho, 0.0).entries, np.eye(3) / 3, atol=1e-14
        )

    def test_half_mix(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(
            apply_noise(rho, 0.5).entries, np.diag([0.75, 0.25]), atol=1e-14
        )

    def test_range_check(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            apply_noise(rho, 1.2)
        with pytest.raises(ValueError):
            apply_noise(rho, -0.1)


class TestNormIdentity:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_difference_norm_equals_purity_gap(self, d):
        rng = np.random.default_rng(205)
        for _ in range(20):
            ctx = random_context(d, rng)
            sigma = dephase(ctx.state, ctx.first)
            tau = sequential_dephase(ctx.state, ctx.first, ctx.second)
            assert hs_norm_sq(tau.entries - sigma.entries) == pytest.approx(
                sigma.purity() - tau.purity(), abs=1e-10
            )


class TestNoiseSweep:
    def test_qubit_mub_eigenstate_ratio_is_one(self):
        ctx = Context(
            DensityMatrix.pure([1.0, 0.0]),
            ObservableBasis.computational(2),
            qubit_basis(math.pi / 2),
        )
        point = noise_sweep(ctx, np.array([0.01]))[0]
        assert point.ratio_eps == pytest.approx(1.0, abs=1e-9)

    def test_commuting_pair_never_leaks(self):
        rng = np.random.default_rng(206)
        ctx = commuting_context(3, rng)
        for point in noise_sweep(ctx, default_epsilon_grid()):
            assert point.ratio_eps == pytest.approx(0.0, abs=1e-9)

    def test_eigenstate_injection_scale(self):
        # at strength eps the injected information approaches eps^2 (d-1)/2
        rng = np.random.default_rng(207)
        ctx = eigenstate_context(3, rng)
        point = noise_sweep(ctx, np.array([1e-3]))[0]
        expected = 1e-6 * (3 - 1) / 2
        assert point.i_initial_eps == pytest.approx(expected, rel=0.01)

    def test_entropic_ratio_approaches_norm_ratio(self):
        rng = np.random.default_rng(208)
        for d in (2, 3, 4):
            ctx = random_context(d, rng)
            base = leakage_ratio(ctx)
            point = noise_sweep(ctx, np.array([1e-3]))[0]
            assert point.ratio_eps == pytest.approx(base, rel=1e-3)

    def test_rejects_zero_information_context(self):
        rng = np.random.default_rng(209)
        ctx = Context(
            DensityMatrix.maximally_mixed(2),
            random_observable_basis(2, rng),
            random_observable_basis(2, rng),
        )
        with pytest.raises(ZeroInformationError):
            noise_sweep(ctx, np.array([0.5]))

    def test_rejects_out_of_range_strengths(self):
        rng = np.random.default_rng(210)
        ctx = random_context(2, rng)
        with pytest.raises(ValueError):
            noise_sweep(ctx, np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            noise_sweep(ctx, np.array([1.5]))
        # a NaN strength is out of range, not an underflowed injection
        with pytest.raises(ValueError):
            noise_sweep(ctx, np.array([math.nan]))
        # the grid must be one-dimensional: a scalar and a row matrix are not
        with pytest.raises(ValueError, match="one-dimensional"):
            noise_sweep(ctx, 0.5)
        with pytest.raises(ValueError, match="one-dimensional"):
            noise_sweep(ctx, [[0.1, 0.2]])
        assert noise_sweep(ctx, np.array([])) == []

    def test_concavity_bounds_hold_on_grid(self):
        rng = np.random.default_rng(211)
        grid = default_epsilon_grid()
        for d in (2, 3):
            for _ in range(10):
                ctx = random_context(d, rng)
                i_full = information(dephase(ctx.state, ctx.first))
                i_ctx = context_incompatibility(ctx)
                for point in noise_sweep(ctx, grid):
                    assert point.i_initial_eps <= point.epsilon * i_full + 1e-9
                    gap = point.i_initial_eps - point.i_final_eps
                    assert gap <= point.epsilon * i_ctx + 1e-9

    # d = 3: at eps = 1e-3 the flat floor 5e-3 is the slack, at eps = 0.1
    # the first-order bound (2/3)(d - 1) eps = 2/15
    @pytest.mark.parametrize("eps, slack", [(1e-3, 5e-3), (0.1, 2.0 / 15.0)])
    def test_drift_slack_is_tight(self, eps, slack, monkeypatch):
        ctx = random_context(3, np.random.default_rng(212))
        ratio = noise_sweep(ctx, [eps])[0].ratio_eps
        monkeypatch.setattr(protocol, "leakage_ratio", lambda _: ratio + 0.99 * slack)
        noise_sweep(ctx, [eps])
        monkeypatch.setattr(protocol, "leakage_ratio", lambda _: ratio + 1.01 * slack)
        with pytest.raises(CrossCheckError, match="drifted"):
            noise_sweep(ctx, [eps])

    def test_default_grid_shape(self):
        grid = default_epsilon_grid()
        assert len(grid) == 20
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1.0)


class TestOneInformationRoute:
    """The report, the ledger and the sweep read every information off the
    same deviation rows, so the quantities they share are equal, not close."""

    @pytest.mark.parametrize("d", range(2, 17))
    def test_shared_informations_are_identical(self, d):
        rng = np.random.default_rng(400 + d)
        for pure in (False, True, False, True):
            ctx = random_context(d, rng, pure=pure)
            report = incompatibility_report(ctx)
            point = noise_sweep(ctx, [1.0])[0]
            ledger = stinespring_ledger(ctx)
            assert point.i_initial_eps == report.i_initial
            assert point.i_final_eps == report.i_final
            assert context_incompatibility(ctx) == report.i_context
            assert ledger.i_initial == report.i_initial
            assert ledger.i_final == report.i_final


class TestContextRecord:
    """A context computes T, the deviation rows and its informations once, on
    first use, and every measure reads that record."""

    def test_measures_share_one_evaluation(self, monkeypatch):
        calls = []
        for name in ("outcome_probabilities", "transition_matrix"):
            original = getattr(core, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            for module in (core, measures, protocol):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        ctx = random_context(4, np.random.default_rng(420))
        incompatibility_report(ctx)
        stinespring_ledger(ctx)
        noise_sweep(ctx, default_epsilon_grid())
        classify_context(ctx)
        leakage_ratio(ctx)
        context_incompatibility(ctx)
        assert sorted(calls) == ["outcome_probabilities", "transition_matrix"]

    @staticmethod
    def _values(ctx, grid):
        values = [
            incompatibility_report(ctx),
            stinespring_ledger(ctx),
            classify_context(ctx),
            context_incompatibility(ctx),
        ]
        for measure in (leakage_ratio, lambda c: noise_sweep(c, grid)):
            try:
                values.append(measure(ctx))
            except ZeroInformationError as exc:
                values.append(str(exc))
        return values

    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_reused_context_equals_fresh_one(self, d):
        rng = np.random.default_rng(430 + d)
        grid = default_epsilon_grid()
        contexts = [
            random_context(d, rng),
            random_context(d, rng, pure=True),
            eigenstate_context(d, rng),
            commuting_context(d, rng),
            zero_information_context(d, rng),
        ]
        for ctx in contexts:
            reused = [self._values(ctx, grid) for _ in range(2)]
            fresh = self._values(Context(ctx.state, ctx.first, ctx.second), grid)
            assert reused[0] == fresh
            assert reused[1] == fresh

    def test_zero_information_errors_leave_the_record_intact(self):
        rng = np.random.default_rng(440)
        ctx = zero_information_context(3, rng)
        with pytest.raises(ZeroInformationError):
            leakage_ratio(ctx)
        with pytest.raises(ZeroInformationError):
            noise_sweep(ctx, default_epsilon_grid())
        fresh = Context(ctx.state, ctx.first, ctx.second)
        assert incompatibility_report(ctx) == incompatibility_report(fresh)
        assert stinespring_ledger(ctx) == stinespring_ledger(fresh)
        assert classify_context(ctx) is ContextClass.FREE_ZERO_INFO
        # a sweep that stops part-way through its grid leaves it intact too:
        # at eps = 1e-300 the injected information underflows to 0
        ctx = Context(
            DensityMatrix([[0.5 + 1e-6, 0.3], [0.3, 0.5 - 1e-6]]),
            ObservableBasis.computational(2),
            ObservableBasis.fourier(2),
        )
        with pytest.raises(ZeroInformationError, match="underflowed"):
            noise_sweep(ctx, [1.0, 1e-300])
        fresh = Context(ctx.state, ctx.first, ctx.second)
        assert noise_sweep(ctx, [1.0]) == noise_sweep(fresh, [1.0])
        assert incompatibility_report(ctx) == incompatibility_report(fresh)


class TestSmallEpsExpansion:
    def test_qubit_mub_eigenstate_values(self):
        ctx = mub_qubit_eigenstate()
        i_initial, i_final, i_context = small_eps_expansion(ctx, 1e-3)
        assert i_initial == pytest.approx(5e-7, abs=1e-12)
        assert i_final == pytest.approx(0.0, abs=1e-12)
        assert i_context == pytest.approx(5e-7, abs=1e-12)

    def test_commuting_pair_has_no_context_term(self):
        rng = np.random.default_rng(212)
        ctx = commuting_context(3, rng)
        _, _, i_context = small_eps_expansion(ctx, 1e-3)
        assert i_context == pytest.approx(0.0, abs=1e-12)

    def test_random_d4_relative_accuracy(self):
        rng = np.random.default_rng(213)
        for _ in range(10):
            ctx = random_context(4, rng)
            i_initial, i_final, i_context = small_eps_expansion(ctx, 1e-3)
            exact = noise_sweep(ctx, np.array([1e-3]))[0]
            assert i_initial == pytest.approx(exact.i_initial_eps, rel=0.01)
            assert i_final == pytest.approx(exact.i_final_eps, rel=0.01)
            assert i_context == pytest.approx(
                exact.i_initial_eps - exact.i_final_eps, rel=0.01
            )

    def test_rejects_strength_outside_domain(self):
        ctx = mub_qubit_eigenstate()
        with pytest.raises(ValueError):
            small_eps_expansion(ctx, 0.2)


class TestWeakMeasure:
    def test_full_strength_is_dephasing(self):
        rng = np.random.default_rng(214)
        rho = random_density_matrix(3, rng)
        basis = random_observable_basis(3, rng)
        np.testing.assert_allclose(
            weak_measure(rho, basis, 1.0).entries, dephase(rho, basis).entries, atol=1e-14
        )

    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(215)
        rho = random_density_matrix(3, rng)
        basis = random_observable_basis(3, rng)
        np.testing.assert_allclose(weak_measure(rho, basis, 0.0).entries, rho.entries)

    def test_half_strength_halves_coherences(self):
        rho = DensityMatrix.pure([1.0, 1.0])
        out = weak_measure(rho, ObservableBasis.computational(2), 0.5)
        assert out.entries[0, 1] == pytest.approx(0.25, abs=1e-14)
        assert out.entries[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_range_check(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            weak_measure(rho, ObservableBasis.computational(2), 1.1)


class TestMassModel:
    def test_zero_mass_ratio_is_classical(self):
        ctx = mub_qubit_eigenstate()
        for model in ("linear", "saturating"):
            assert mass_model_context_incompat(ctx, 0.0, model) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_saturation_recovers_projective_value(self):
        ctx = mub_qubit_eigenstate()
        projective = context_incompatibility(ctx)
        assert mass_model_context_incompat(ctx, 50.0, "saturating") == pytest.approx(
            projective, abs=1e-9
        )
        assert mass_model_context_incompat(ctx, 1.0, "linear") == pytest.approx(
            projective, abs=1e-12
        )

    def test_monotone_decay_toward_zero(self):
        # decay is strength * ln(1/strength) near zero, not linear
        ctx = mub_qubit_eigenstate()
        grid = np.linspace(1e-3, 8.0, 30)
        values = [mass_model_context_incompat(ctx, m, "saturating") for m in grid]
        assert all(a < b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] < 1e-2
        assert mass_model_context_incompat(ctx, 1e-6, "saturating") < 1e-4

    def test_weak_map_never_creates_negative_gap(self):
        rng = np.random.default_rng(216)
        for _ in range(10):
            ctx = random_context(3, rng)
            assert mass_model_context_incompat(ctx, rng.uniform(0, 5)) >= -1e-10

    def test_rejects_bad_arguments(self):
        ctx = mub_qubit_eigenstate()
        with pytest.raises(ValueError):
            mass_model_context_incompat(ctx, -1.0)
        with pytest.raises(ValueError):
            mass_model_context_incompat(ctx, 1.0, "quadratic")

    def test_rejects_a_nan_mass_ratio(self):
        # NaN used to pass the sign check and fail on the measurement strength
        with pytest.raises(ValueError, match="^mass ratio must be nonnegative, got nan$"):
            mass_model_context_incompat(mub_qubit_eigenstate(), math.nan)


class TestDilationConsistency:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_partial_trace_reproduces_sequential_dephasing(self, d):
        # the closed-form ledger against the sequentially dephased state
        rng = np.random.default_rng(217)
        ctx = random_context(d, rng)
        ledger = stinespring_ledger(ctx)
        tau = sequential_dephase(ctx.state, ctx.first, ctx.second)
        assert ledger.i_final == pytest.approx(information(tau), abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ledger_sum_is_dilation_invariant(self, d):
        # rebuild the run with a reverse-shift coupling: the split between
        # the pointer change and the correlations may move, the sum may not
        rng = np.random.default_rng(218)
        ctx = random_context(d, rng)
        ledger = stinespring_ledger(ctx)
        other, _ = dilation_ledger(ctx, -1)
        other_sum = other.delta_apparatus + other.mutual_info
        assert other_sum == pytest.approx(
            ledger.delta_apparatus + ledger.mutual_info, abs=1e-9
        )


class TestCrossChecks:
    """Each cross-check refuses a residual beyond its tolerance, naming the
    check, and a NaN residual as well; the closed forms are patched to fail."""

    def test_ledger_balance(self):
        LedgerEntry(1.0, 0.5, 0.0, 0.5 - 0.5e-9)
        with pytest.raises(
            CrossCheckError, match=r"^information ledger balance: residual .* tolerance 1e-09$"
        ):
            LedgerEntry(1.0, 0.5, 0.0, 0.5 - 2e-9)

    def test_mutual_information_floor(self):
        LedgerEntry(0.0, 0.0, 0.5e-10, -0.5e-10)
        with pytest.raises(
            CrossCheckError,
            match=r"^mutual information floor: residual 2e-10 is not within tolerance 1e-10$",
        ):
            LedgerEntry(0.0, 0.0, 2e-10, -2e-10)

    def test_concavity(self, monkeypatch):
        ctx = mub_qubit_eigenstate()
        monkeypatch.setattr(protocol, "_information", lambda rows: 2.0 * core._information(rows))
        with pytest.raises(CrossCheckError, match=r"^concavity at eps=1\.0: "):
            noise_sweep(ctx, [1.0])

    # shifts of the exact i_initial and i_final, in units of the 10 eps^3 budget;
    # (0.9, -0.9) keeps both within it and moves their difference by 1.8
    @pytest.mark.parametrize(
        "name, shifts", [("i_initial", (2.0, 0.0)), ("i_final", (0.0, 2.0)), ("i_context", (0.9, -0.9))]
    )
    def test_expansion_budget(self, name, shifts, monkeypatch):
        ctx = random_context(3, np.random.default_rng(219))
        eps = 0.01
        exact = noise_sweep(ctx, [eps])[0]
        moved = dataclasses.replace(
            exact,
            i_initial_eps=exact.i_initial_eps + shifts[0] * 10.0 * eps**3,
            i_final_eps=exact.i_final_eps + shifts[1] * 10.0 * eps**3,
        )
        monkeypatch.setattr(protocol, "noise_sweep", lambda ctx, grid: [moved])
        with pytest.raises(CrossCheckError, match=rf"^{name} expansion at eps=0\.01: "):
            small_eps_expansion(ctx, eps)

    def test_monotonicity_slack(self, monkeypatch):
        ctx = random_context(3, np.random.default_rng(220))
        values = iter([0.25, 0.25 + 2e-9])
        monkeypatch.setattr(measures, "context_incompatibility", lambda ctx: next(values))
        with pytest.raises(CrossCheckError, match=r"^free operation monotonicity: residual "):
            measures.monotonicity_check(ctx, [np.eye(3, dtype=complex)])

    def test_nan_residual_fails(self, monkeypatch):
        # abs(nan) > tol is False, so a check written that way lets NaN through
        with pytest.raises(CrossCheckError, match="^information ledger balance: residual nan "):
            LedgerEntry(math.nan, 0.0, 0.0, 0.0)
        monkeypatch.setattr(protocol, "leakage_ratio", lambda _: math.nan)
        with pytest.raises(CrossCheckError, match="drifted.*residual nan"):
            noise_sweep(random_context(3, np.random.default_rng(221)), [1e-3])
