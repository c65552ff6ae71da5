"""Frequency-domain Newton solver for periodic steady states.

Each iteration reconstructs the trajectory from the current truncated
spectrum, evaluates dynamics and state Jacobian pointwise on the one-period
grid, converts both to Fourier coefficients, and solves the linear update

    (N_blk - A_toeplitz) dX = F - N_blk X

where N_blk is the harmonic frequency-shift operator and A_toeplitz the
block-Toeplitz expansion of the time-periodic Jacobian.  No time stepping is
involved; the input waveform is sampled once and held fixed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, lu_factor, lu_solve

from .analysis import HssMatrices
from .errors import (
    DivergedTrajectory,
    MaxIterationsExceeded,
    SingularIterationMatrix,
    UsageError,
)
from .model import SystemModel
from .spectral import (
    HarmonicGrid,
    SpectralVector,
    build_nblk,
    build_toeplitz,
    samples_to_spectrum,
    spectrum_to_samples,
)


@dataclass(frozen=True)
class SolverConfig:
    """Newton/PSS solver settings (defaults are the benchmark values)."""

    n_harmonics: int = 4
    period: float = 0.02
    step: float = 50e-6
    tolerance: float = 1e-3
    max_iterations: int = 50
    damping: float = 1.0
    cond_limit: float = 1e12

    def __post_init__(self):
        if self.n_harmonics < 1:
            raise UsageError("n_harmonics must be >= 1")
        if not (0.0 < self.damping <= 1.0):
            raise UsageError("damping must lie in (0, 1]")
        if self.tolerance <= 0 or self.max_iterations < 1:
            raise UsageError("tolerance must be positive, max_iterations >= 1")

    def grid(self) -> HarmonicGrid:
        return HarmonicGrid(self.period, self.step)


@dataclass
class SolverResult:
    spectrum: SpectralVector
    waveforms: np.ndarray          # (M, n) reconstructed states over one period
    times: np.ndarray
    iterations: int
    residual_history: list
    converged: bool
    hss: HssMatrices
    grid: HarmonicGrid
    elapsed_s: float = 0.0


def residual_norm(delta: SpectralVector, scales: np.ndarray | None = None) -> float:
    """∞-norm of a spectral update, states divided by their per-unit scales."""
    coeffs = delta.coeffs
    if scales is not None:
        coeffs = coeffs / scales
    return float(np.max(np.abs(coeffs)))


def initial_guess(model: SystemModel, config: SolverConfig) -> SpectralVector:
    """Materialize the model's reference seeds into a starting spectrum.

    Current-type rotating-frame states carry their setpoints at harmonic +1
    (conjugate partners at -1); controller and synchronization states start
    at zero.  The seed triples are attached by the case builders.
    """
    guess = SpectralVector.zeros(config.n_harmonics, model.n_states)
    for state, harmonic, value in model.spectral_seeds:
        if abs(harmonic) > config.n_harmonics:
            raise UsageError(
                f"seed harmonic {harmonic} outside truncation N={config.n_harmonics}"
            )
        guess.coeffs[harmonic + config.n_harmonics, state] = value
    return guess


def _evaluate(model, grid, x_spec, u_samples):
    t = grid.times
    x_t = spectrum_to_samples(x_spec.coeffs, grid.n_samples)
    f_t = model.dynamics(t, x_t, u_samples)
    if not np.all(np.isfinite(f_t)):
        raise DivergedTrajectory("non-finite dynamics along reconstructed trajectory")
    return x_t, f_t


def newton_step(
    model: SystemModel,
    x_spec: SpectralVector,
    grid: HarmonicGrid,
    config: SolverConfig,
    u_samples: np.ndarray,
):
    """One Newton update with the input sampled on ``grid`` as ``u_samples``.

    Returns ``(delta, step_norm)`` where ``delta`` solves
    (N_blk - A) delta = F - N_blk X at the supplied iterate.
    """
    n = model.n_states
    big_n = x_spec.n_harmonics

    x_t, f_t = _evaluate(model, grid, x_spec, u_samples)
    f_spec = samples_to_spectrum(f_t, big_n)
    a_op = build_toeplitz(model.jac_state(grid.times, x_t, u_samples), big_n)

    nvec = build_nblk(n, big_n, grid.omega1)
    lhs = -a_op.full()
    idx = np.arange(lhs.shape[0])
    lhs[idx, idx] += nvec
    rhs = f_spec.reshape(-1) - nvec * x_spec.stacked()

    lu, piv = lu_factor(lhs, check_finite=False)
    anorm = float(np.max(np.abs(lhs).sum(axis=0)))
    rcond, info = lapack.zgecon(lu, anorm, norm="1")
    cond_est = np.inf if rcond == 0.0 else 1.0 / float(rcond)
    if not np.isfinite(cond_est) or cond_est > config.cond_limit:
        raise SingularIterationMatrix(cond_est)

    delta_vec = lu_solve((lu, piv), rhs, check_finite=False)
    delta = SpectralVector.from_stacked(delta_vec, big_n, n)
    return delta, residual_norm(delta, model.state_scales)


def solve_pss(
    model: SystemModel,
    config: SolverConfig | None = None,
    initial: SpectralVector | None = None,
    u_samples: np.ndarray | None = None,
) -> SolverResult:
    """Newton iteration to the periodic steady state.

    Parameters
    ----------
    model : system to solve, with input drive attached.
    config : solver settings; defaults to the benchmark configuration.
    initial : warm-start spectrum; defaults to the model's seeded guess.
    u_samples : pre-sampled input waveform (M, m); sampled from
        ``model.input_fn`` when omitted.

    Raises
    ------
    MaxIterationsExceeded
        carrying the recorded step norms, when tolerance is not met.
    SingularIterationMatrix, DivergedTrajectory
        on numerical breakdown, carrying the step norms recorded before it
        (``residual_history``).

    Notes
    -----
    Convergence is declared when the ∞-norm of the per-unit-scaled update
    drops to ``config.tolerance``; the final small update is applied.  When a
    step norm increases, the step is retried at half the damping (at most
    four halvings) and the best candidate is kept — with default damping 1.0
    and monotone convergence this is plain Newton.
    """
    t0 = time.perf_counter()
    if config is None:
        config = SolverConfig()
    grid = config.grid()
    if u_samples is None:
        u_samples = np.asarray(model.input_fn(grid.times), dtype=complex)
    if u_samples.shape != (grid.n_samples, model.n_inputs):
        raise UsageError(
            f"input samples shape {u_samples.shape} does not match "
            f"({grid.n_samples}, {model.n_inputs})"
        )
    x = initial.copy() if initial is not None else initial_guess(model, config)
    if x.n_harmonics != config.n_harmonics or x.n_states != model.n_states:
        raise UsageError("initial spectrum shape does not match model/config")

    history = []
    try:
        delta, norm = newton_step(model, x, grid, config, u_samples)
        history.append(norm)
        converged = norm <= config.tolerance

        while not converged and len(history) < config.max_iterations:
            lam = config.damping
            halvings = 0
            while True:
                trial = SpectralVector(x.coeffs + lam * delta.coeffs, x.n_harmonics)
                delta_t, norm_t = newton_step(model, trial, grid, config, u_samples)
                if norm_t <= history[-1] or halvings >= 4:
                    break
                lam *= 0.5
                halvings += 1
            x, delta, norm = trial, delta_t, norm_t
            history.append(norm)
            converged = norm <= config.tolerance
    except (SingularIterationMatrix, DivergedTrajectory) as exc:
        exc.residual_history = list(history)
        if isinstance(exc, SingularIterationMatrix):
            exc.iteration = len(history) + 1
        raise

    if not converged:
        raise MaxIterationsExceeded(history, config.tolerance, last_spectrum=x)

    # apply the final (sub-tolerance) correction; the HSS linearizes there
    x = SpectralVector(x.coeffs + delta.coeffs, x.n_harmonics)
    waveforms = spectrum_to_samples(x.coeffs, grid.n_samples)
    return SolverResult(
        spectrum=x,
        waveforms=waveforms,
        times=grid.times,
        iterations=len(history),
        residual_history=history,
        converged=True,
        hss=HssMatrices(model, grid.times, waveforms, u_samples,
                        config.n_harmonics, grid.omega1),
        grid=grid,
        elapsed_s=time.perf_counter() - t0,
    )


def pss_residual(
    model: SystemModel,
    x_spec: SpectralVector,
    grid: HarmonicGrid,
    u_samples: np.ndarray | None = None,
):
    """Frequency-domain fixed-point defect at a spectrum.

    Returns ``(defect_norm, nx_norm)`` with defect = ‖N_blk·X − F(X)‖∞ and
    nx_norm = ‖N_blk·X‖∞; the solver's fixed points satisfy
    defect ≤ tol·(1 + nx_norm).
    """
    if u_samples is None:
        u_samples = np.asarray(model.input_fn(grid.times), dtype=complex)
    _, f_t = _evaluate(model, grid, x_spec, u_samples)
    f_spec = samples_to_spectrum(f_t, x_spec.n_harmonics)
    nx = build_nblk(model.n_states, x_spec.n_harmonics, grid.omega1) * x_spec.stacked()
    defect = float(np.max(np.abs(nx - f_spec.reshape(-1))))
    return defect, float(np.max(np.abs(nx)))
