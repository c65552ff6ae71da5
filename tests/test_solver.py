"""Newton PSS solver: exactness on linear systems, convergence traits, residuals."""

import numpy as np
import pytest

from conftest import diverging_after
from ltpkit import (
    DivergedTrajectory,
    MaxIterationsExceeded,
    SingularIterationMatrix,
    SolverConfig,
    SpectralVector,
    UsageError,
    build_case1,
    build_case2,
    initial_guess,
    linear_model,
    pss_residual,
    solve_pss,
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
        with pytest.raises(UsageError):
            SolverConfig(damping=0.0)

    def test_grid_matches_benchmark(self):
        g = SolverConfig().grid()
        assert g.n_samples == 400
        assert g.omega1 == pytest.approx(OM1)


class TestResidualNorm:
    def test_zeros(self):
        assert residual_norm(SpectralVector.zeros(4, 3)) == 0.0

    def test_single_entry(self):
        v = SpectralVector.zeros(4, 3)
        v.coeffs[2, 1] = 0.5 + 0.0j
        assert residual_norm(v) == pytest.approx(0.5)

    def test_matches_exhaustive_scan(self, rng):
        coeffs = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        v = SpectralVector(coeffs, 4)
        brute = max(abs(coeffs[i, j]) for i in range(9) for j in range(4))
        assert residual_norm(v) == pytest.approx(brute)

    def test_scales_divide_states(self):
        v = SpectralVector.zeros(1, 2)
        v.coeffs[0, 0] = 1.0
        v.coeffs[2, 1] = 1.0
        assert residual_norm(v, scales=np.array([10.0, 1.0])) == pytest.approx(1.0)
        assert residual_norm(v, scales=np.array([10.0, 0.1])) == pytest.approx(10.0)


class TestInitialGuess:
    def test_case1_current_references_at_fundamental(self):
        model = build_case1()["closed_loop"]
        guess = initial_guess(model, SolverConfig())
        labels = list(model.state_labels)
        ic, icc = labels.index("i_c"), labels.index("i_c_conj")
        assert guess.coeff(1)[ic] == pytest.approx(1.0)
        assert guess.coeff(-1)[icc] == pytest.approx(1.0)
        # seeded guesses must already be conjugate-consistent
        assert guess.conjugate_defect(model.conjugate_pairs) < 1e-14

    def test_case2_power_reference_seeding(self):
        model = build_case2()["closed_loop"]
        guess = initial_guess(model, SolverConfig())
        labels = list(model.state_labels)
        ic = labels.index("i_c")
        # P+jQ = 0.5: positive-sequence current reference magnitude 0.5 p.u.
        assert abs(guess.coeff(1)[ic]) == pytest.approx(0.5, rel=1e-6)
        assert guess.conjugate_defect(model.conjugate_pairs) < 1e-14

    def test_no_seeds_gives_zeros(self):
        model = forced_lti()
        guess = initial_guess(model, SolverConfig())
        assert np.max(np.abs(guess.coeffs)) == 0.0


class TestLinearExactness:
    def test_forced_lti_solves_in_one_step(self):
        model = forced_lti(lam=-40.0, amp=2.0)
        result = solve_pss(model)
        assert result.converged
        assert result.iterations <= 2
        # closed form: X_{+1} = λ·(-λ + jω₁)⁻¹·... → x(t) tracks the drive
        lam = -40.0
        expect = -lam / (1j * OM1 - lam) * 2.0
        assert result.spectrum.coeff(1)[0] == pytest.approx(expect, abs=1e-9)
        mask = np.ones(9, dtype=bool)
        mask[4 + 1] = False
        assert np.max(np.abs(result.spectrum.coeffs[mask, 0])) < 1e-9

    def test_unforced_harmonics_stay_zero(self):
        result = solve_pss(forced_lti())
        c = result.spectrum.coeffs[:, 0]
        assert abs(c[4]) < 1e-12          # DC
        assert abs(c[4 + 2]) < 1e-12      # second harmonic


class TestBenchmarkConvergence:
    def test_case1_balanced_monotone_after_first(self, case1_balanced):
        _, result = case1_balanced
        assert result.converged
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
            assert result.spectrum.conjugate_defect(model.conjugate_pairs) < 1e-10

    def test_waveforms_match_spectrum(self, case1_balanced):
        from ltpkit import spectrum_to_samples
        _, result = case1_balanced
        rebuilt = spectrum_to_samples(result.spectrum.coeffs, result.grid.n_samples)
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
        assert result.converged
        defect, nx = pss_residual(model, result.spectrum, result.grid)
        assert defect <= 1e-3 * (1.0 + nx)
