"""Newton PSS solver: exactness on linear systems, convergence traits, residuals."""

import dataclasses

import numpy as np
import pytest

import ltpkit.solver
from conftest import conjugate_defect, diverging_after
from ltpkit import (
    DivergedTrajectory,
    HssMatrices,
    MaxIterationsExceeded,
    SingularIterationMatrix,
    SolverConfig,
    SolverError,
    UsageError,
    build_case1,
    build_case2,
    pss_residual,
    solve_pss,
)
from ltpkit.model import linear_model
from ltpkit.solver import initial_guess, newton_step, residual_norm
from ltpkit.spectral import MAX_SAMPLES, spectrum_to_samples

OM1 = 2.0 * np.pi * 50.0


def forced_lti(lam=-40.0, amp=1.0):
    """ẋ = λ(x − u), u(t) = amp·e^{jω₁t}: PSS known in closed form."""
    a = np.array([[lam]], dtype=complex)
    b = np.array([[-lam]], dtype=complex)

    def drive(t):
        t = np.asarray(t, dtype=float)
        return amp * np.exp(1j * OM1 * t)[..., None]

    return linear_model(a, omega1=OM1, b=b, input_fn=drive)


class TestSolverConfig:
    def test_invalid_settings_rejected(self):
        with pytest.raises(UsageError):
            SolverConfig(n_harmonics=0)
        with pytest.raises(UsageError):
            SolverConfig(tolerance=-1.0)
        with pytest.raises(UsageError):
            SolverConfig(max_iterations=0)

    def test_nan_tolerance_rejected(self):
        # no step norm is <= NaN: the solve would run every iteration and
        # report a configuration error as MaxIterationsExceeded
        with pytest.raises(UsageError, match="tolerance must be positive"):
            SolverConfig(tolerance=float("nan"))

    def test_cond_limit_below_one_rejected(self):
        # LAPACK's reciprocal condition estimate is at most 1, so the
        # condition estimate is at least 1: a lower limit refuses every matrix
        for limit in (-5.0, 0.0, 0.999, float("nan")):
            with pytest.raises(UsageError, match="cond_limit must be >= 1"):
                SolverConfig(cond_limit=limit)
        SolverConfig(cond_limit=1.0)

    def test_grid_refuses_unresolvable_harmonics(self):
        # refused where the grid is built, before any spectrum is allocated
        model = build_case1()["closed_loop"]
        with pytest.raises(UsageError, match="cannot resolve harmonics"):
            SolverConfig(n_harmonics=10**30).grid(model)

    def test_400_samples_resolve_49_harmonics(self):
        # the HSS expands the Jacobians to order 2N: 2(4·49+1) = 394 samples
        result = solve_pss(build_case1()["closed_loop"], SolverConfig(n_harmonics=49))
        assert result.spectrum.shape == (99, 6)

    @pytest.mark.parametrize("step", [1e-12, 0.02 / (MAX_SAMPLES + 1), 1e-320],
                             ids=["tiny", "cap_plus_1", "overflow"])
    def test_grid_refuses_oversized_sample_count(self, step):
        # refused before any sample is allocated (the times are built on read)
        model = build_case1()["closed_loop"]
        with pytest.raises(UsageError, match="exceed the limit"):
            SolverConfig(step=step).grid(model)

    def test_grid_matches_benchmark(self):
        model = build_case1()["closed_loop"]
        g = SolverConfig().grid(model)
        assert g.n_samples == 400
        assert g.period == model.period
        assert model.omega1 == pytest.approx(OM1)


class TestResidualNorm:
    def test_zeros(self):
        assert residual_norm(np.zeros((9, 3), dtype=complex)) == 0.0

    def test_single_entry(self):
        v = np.zeros((9, 3), dtype=complex)
        v[2, 1] = 0.5 + 0.0j
        assert residual_norm(v) == pytest.approx(0.5)

    def test_matches_exhaustive_scan(self, rng):
        coeffs = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        brute = max(abs(coeffs[i, j]) for i in range(9) for j in range(4))
        assert residual_norm(coeffs) == pytest.approx(brute)


class TestInitialGuess:
    def test_case1_current_references_at_fundamental(self):
        model = build_case1()["closed_loop"]
        guess = initial_guess(model, SolverConfig())
        labels = list(model.state_labels)
        ic, icc = labels.index("i_c"), labels.index("i_c_conj")
        n = SolverConfig().n_harmonics
        assert guess.shape == (2 * n + 1, model.n_states)
        assert guess[n + 1, ic] == pytest.approx(1.0)
        assert guess[n - 1, icc] == pytest.approx(1.0)
        # seeded guesses must already be conjugate-consistent
        assert conjugate_defect(guess, model.conjugate_pairs) < 1e-14

    def test_case2_power_reference_seeding(self):
        model = build_case2()["closed_loop"]
        guess = initial_guess(model, SolverConfig())
        labels = list(model.state_labels)
        ic = labels.index("i_c")
        # P+jQ = 0.5: positive-sequence current reference magnitude 0.5 p.u.
        n = SolverConfig().n_harmonics
        assert abs(guess[n + 1, ic]) == pytest.approx(0.5, rel=1e-6)
        assert conjugate_defect(guess, model.conjugate_pairs) < 1e-14

    @pytest.mark.parametrize("builder, seeds", [(build_case1, (3, 3)),
                                                (build_case2, (8, 7))])
    def test_one_seed_per_pair_writes_the_partner(self, builder, seeds):
        models = builder()
        config = SolverConfig(n_harmonics=2)
        n = config.n_harmonics
        for model, count in zip((models["closed_loop"], models["open_loop"]), seeds):
            assert len(model.spectral_seeds) == count
            guess = initial_guess(model, config)
            assert conjugate_defect(guess, model.conjugate_pairs) == 0.0
            named = np.zeros(guess.shape, dtype=bool)
            for state, k, value in model.spectral_seeds:
                assert guess[n + k, state] == value
                assert guess[n - k, model.partner[state]] == np.conj(value)
                named[n + k, state] = named[n - k, model.partner[state]] = True
            # every entry the seeds do not name or mirror stays zero
            assert not np.any(guess[~named])

    def test_unpaired_state_mirrors_onto_itself(self):
        # an unpaired state is real: its harmonic −k is conj of harmonic k
        model = dataclasses.replace(linear_model(np.array([[-3.0]])),
                                    spectral_seeds=((0, 1, 0.5 + 2j),))
        guess = initial_guess(model, SolverConfig(n_harmonics=2))
        assert guess[3, 0] == 0.5 + 2j
        assert guess[1, 0] == 0.5 - 2j

    def test_seed_writing_an_entry_twice_refused(self):
        model = build_case1()["closed_loop"]
        ic, icc = 0, 1
        value = model.spectral_seeds[0][2]
        assert model.spectral_seeds[0][:2] == (ic, +1)
        # the partner's seed, as models listed it before: the guess writes it
        for extra in ((icc, -1, np.conj(value)), (ic, +1, value)):
            twice = dataclasses.replace(
                model, spectral_seeds=model.spectral_seeds + (extra,))
            with pytest.raises(UsageError, match="twice"):
                initial_guess(twice, SolverConfig())

    def test_no_seeds_gives_zeros(self):
        model = forced_lti()
        guess = initial_guess(model, SolverConfig())
        assert np.max(np.abs(guess)) == 0.0


class TestWarmStart:
    @pytest.mark.parametrize("shape", [(7, 6), (9, 5), (54,)],
                             ids=["wrong_N", "wrong_n", "flat"])
    def test_wrong_shape_is_usage_error(self, shape):
        model = build_case1()["closed_loop"]
        with pytest.raises(UsageError, match="does not match"):
            solve_pss(model, SolverConfig(), initial=np.zeros(shape, dtype=complex))

    def test_caller_array_is_read_only(self, case1_balanced):
        model, cold = case1_balanced
        initial = cold.spectrum.copy()
        warm = solve_pss(model, SolverConfig(), initial=initial)
        assert np.array_equal(initial, cold.spectrum)
        assert np.max(np.abs(warm.spectrum - cold.spectrum)) < 1e-6


class TestLinearExactness:
    def test_forced_lti_solves_in_one_step(self):
        model = forced_lti(lam=-40.0, amp=2.0)
        result = solve_pss(model)
        assert len(result.residual_history) <= 2
        # closed form: X_{+1} = λ·(-λ + jω₁)⁻¹·... → x(t) tracks the drive
        lam = -40.0
        expect = -lam / (1j * OM1 - lam) * 2.0
        assert result.spectrum[4 + 1, 0] == pytest.approx(expect, abs=1e-9)
        mask = np.ones(9, dtype=bool)
        mask[4 + 1] = False
        assert np.max(np.abs(result.spectrum[mask, 0])) < 1e-9

    def test_fundamental_comes_from_model(self):
        # a 40 Hz model under the default config: the grid spans the model's
        # own period, so the drive lands exactly on harmonic +1
        om1 = 2.0 * np.pi * 40.0
        a = np.array([[-30.0, 5.0], [-2.0, -60.0]], dtype=complex)
        b = np.array([[1.0], [0.5]], dtype=complex)

        def drive(t):
            return np.exp(1j * om1 * np.asarray(t, dtype=float))[..., None]

        model = linear_model(a, omega1=om1, b=b, input_fn=drive)
        result = solve_pss(model)
        assert result.grid.period == model.period
        expect = np.linalg.solve(1j * om1 * np.eye(2) - a, b[:, 0])
        first = result.spectrum[result.spectrum.shape[0] // 2 + 1]
        assert np.max(np.abs(first - expect)) < 1e-9

    def test_unforced_harmonics_stay_zero(self):
        result = solve_pss(forced_lti())
        c = result.spectrum[:, 0]
        assert abs(c[4]) < 1e-12          # DC
        assert abs(c[4 + 2]) < 1e-12      # second harmonic


class TestIterationMatrix:
    def test_newton_factors_negated_hss_matrix(self, monkeypatch):
        # at 60 Hz, 2π/(2π/ω₁) misses ω₁ by 5.7e-14, so an N_blk built from
        # any fundamental other than model.omega1 shows in the last bits
        om1 = 2.0 * np.pi * 60.0
        a = np.array([[-30.0, 5.0], [-2.0, -60.0]], dtype=complex)

        def forcing(t):
            t = np.asarray(t, dtype=float)
            return np.stack([np.exp(1j * om1 * t), np.cos(2 * om1 * t)], axis=-1)

        model = linear_model(a, omega1=om1, input_fn=forcing)
        config = SolverConfig(step=model.period / 400)
        grid = config.grid(model)
        u = np.asarray(model.input_fn(grid.times), dtype=complex)
        x = initial_guess(model, config)
        x[config.n_harmonics + 1] = [1.0, 0.5j]
        x[config.n_harmonics - 2] = [0.25, -0.125]

        factored = []
        lu_factor = ltpkit.solver.lu_factor

        def capture(matrix, **kwargs):
            factored.append(matrix.copy())
            return lu_factor(matrix, **kwargs)

        monkeypatch.setattr(ltpkit.solver, "lu_factor", capture)
        newton_step(model, x, grid, config, u)
        x_t = spectrum_to_samples(x, grid.n_samples)
        hss = HssMatrices(model, grid.times, x_t, u, config.n_harmonics)
        assert len(factored) == 1
        assert factored[0].tobytes() == (-hss.stability_matrix()).tobytes()


class TestBenchmarkConvergence:
    def test_case1_balanced_monotone_after_first(self, case1_balanced):
        _, result = case1_balanced
        hist = result.residual_history
        assert all(b < a for a, b in zip(hist[1:], hist[2:]))

    def test_superlinear_final_step(self, case1_balanced, case2_default):
        for _, result in (case1_balanced, case2_default):
            hist = result.residual_history
            assert len(hist) >= 2
            assert hist[-1] / hist[-2] < 0.5

    def test_fixed_point_residual_small(self, case1_unbalanced, case2_unbalanced):
        for model, result in (case1_unbalanced, case2_unbalanced):
            defect, nx = pss_residual(model, result.spectrum, result.grid)
            assert defect <= 1e-3 * (1.0 + nx)

    def test_conjugate_structure_preserved(self, case1_unbalanced, case2_unbalanced):
        for model, result in (case1_unbalanced, case2_unbalanced):
            assert conjugate_defect(result.spectrum, model.conjugate_pairs) < 1e-10

    def test_waveforms_match_spectrum(self, case1_balanced):
        _, result = case1_balanced
        rebuilt = spectrum_to_samples(result.spectrum, result.grid.n_samples)
        assert np.max(np.abs(rebuilt - result.waveforms)) < 1e-12


class TestFailureModes:
    def test_iteration_cap_raises_with_history(self):
        model = build_case2({"u_gbeta_mag": 0.5, "u_gbeta_deg": -90.0})["closed_loop"]
        with pytest.raises(MaxIterationsExceeded) as err:
            solve_pss(model, SolverConfig(max_iterations=1, tolerance=1e-12))
        assert len(err.value.residual_history) == 1
        # the first step over the budget
        assert err.value.iteration == 2

    def test_singular_matrix_carries_history(self):
        model = build_case1()["closed_loop"]
        with pytest.raises(SingularIterationMatrix) as err:
            solve_pss(model, SolverConfig(cond_limit=1.0))
        assert err.value.iteration == 1
        assert err.value.residual_history == []
        assert "at iteration 1" in str(err.value)

    def test_exactly_singular_matrix_raises_singular(self):
        # an exact zero pivot (getrf's info > 0) is reported as singular,
        # with no warning (an error under this suite's warning filter)
        model = build_case1({"alpha_pll": 1e-300})["closed_loop"]
        with pytest.raises(SingularIterationMatrix) as err:
            solve_pss(model)
        assert err.value.cond == np.inf
        assert err.value.iteration == 1

    def test_divergence_carries_completed_steps(self):
        model = diverging_after(build_case2()["closed_loop"], 3)
        with pytest.raises(DivergedTrajectory) as err:
            solve_pss(model, SolverConfig(tolerance=1e-13))
        assert len(err.value.residual_history) == 3
        assert all(np.isfinite(err.value.residual_history))
        assert err.value.iteration == 4
        assert err.value.elapsed_s > 0.0

    def test_one_base_class(self):
        for kind in (MaxIterationsExceeded, SingularIterationMatrix, DivergedTrajectory):
            assert issubclass(kind, SolverError)
        assert issubclass(SolverError, RuntimeError)

    def test_unstable_point_still_converges(self):
        # frequency-domain iteration reaches the PSS even where time marching
        # cannot settle
        model = build_case2({"alpha_c": 150.0, "k_sym_g": 2.8})["closed_loop"]
        result = solve_pss(model)
        defect, nx = pss_residual(model, result.spectrum, result.grid)
        assert defect <= 1e-3 * (1.0 + nx)
