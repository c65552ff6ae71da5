"""Newton PSS solver: exactness on linear systems, convergence traits, residuals."""

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
    UsageError,
    build_case1,
    build_case2,
    initial_guess,
    linear_model,
    newton_step,
    pss_residual,
    solve_pss,
    spectrum_to_samples,
)
from ltpkit.solver import residual_norm

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

    def test_grid_matches_benchmark(self):
        model = build_case1()["closed_loop"]
        g = SolverConfig().grid(model)
        assert g.n_samples == 400
        assert g.period == model.period
        assert model.omega1 == pytest.approx(OM1)


class TestResidualNorm:
    def test_zeros(self):
        assert residual_norm(np.zeros((9, 3), dtype=complex), np.ones(3)) == 0.0

    def test_single_entry(self):
        v = np.zeros((9, 3), dtype=complex)
        v[2, 1] = 0.5 + 0.0j
        assert residual_norm(v, np.ones(3)) == pytest.approx(0.5)

    def test_matches_exhaustive_scan(self, rng):
        coeffs = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        brute = max(abs(coeffs[i, j]) for i in range(9) for j in range(4))
        assert residual_norm(coeffs, np.ones(4)) == pytest.approx(brute)

    def test_scales_divide_states(self):
        v = np.zeros((3, 2), dtype=complex)
        v[0, 0] = 1.0
        v[2, 1] = 1.0
        assert residual_norm(v, scales=np.array([10.0, 1.0])) == pytest.approx(1.0)
        assert residual_norm(v, scales=np.array([10.0, 0.1])) == pytest.approx(10.0)


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

        model = linear_model(a, forcing, omega1=om1)
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
        from ltpkit import spectrum_to_samples
        _, result = case1_balanced
        rebuilt = spectrum_to_samples(result.spectrum, result.grid.n_samples)
        assert np.max(np.abs(rebuilt - result.waveforms)) < 1e-12


class TestFailureModes:
    def test_iteration_cap_raises_with_history(self):
        model = build_case2({"u_gbeta_mag": 0.5, "u_gbeta_deg": -90.0})["closed_loop"]
        with pytest.raises(MaxIterationsExceeded) as err:
            solve_pss(model, SolverConfig(max_iterations=1, tolerance=1e-12))
        assert len(err.value.residual_history) >= 1

    def test_singular_matrix_carries_history(self):
        model = build_case1()["closed_loop"]
        with pytest.raises(SingularIterationMatrix) as err:
            solve_pss(model, SolverConfig(cond_limit=1.0))
        assert err.value.iteration == 1
        assert err.value.residual_history == []
        assert "at iteration 1" in str(err.value)

    def test_divergence_carries_completed_steps(self):
        model = diverging_after(build_case2()["closed_loop"], 3)
        with pytest.raises(DivergedTrajectory) as err:
            solve_pss(model, SolverConfig(tolerance=1e-13))
        assert len(err.value.residual_history) == 3
        assert all(np.isfinite(err.value.residual_history))

    def test_unstable_point_still_converges(self):
        # frequency-domain iteration reaches the PSS even where time marching
        # cannot settle
        model = build_case2({"alpha_c": 150.0, "k_sym_g": 2.8})["closed_loop"]
        result = solve_pss(model)
        defect, nx = pss_residual(model, result.spectrum, result.grid)
        assert defect <= 1e-3 * (1.0 + nx)
