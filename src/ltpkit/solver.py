"""Frequency-domain Newton solver for periodic steady states.

Each iteration reconstructs the trajectory from the current truncated
spectrum, evaluates the dynamics on the one-period grid, builds the harmonic
state-space of that iterate and solves the linear update

    (N_blk - A_toeplitz) dX = F - N_blk X

where N_blk - A_toeplitz is the negated HSS stability matrix of the iterate
(:meth:`HssMatrices.stability_matrix`).  No time stepping is involved; the
input waveform is sampled once and held fixed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, lu_factor, lu_solve

from .analysis import HssMatrices
from .errors import (
    SOLVER_ERRORS,
    DivergedTrajectory,
    MaxIterationsExceeded,
    SingularIterationMatrix,
    UsageError,
)
from .model import SystemModel
from .spectral import (
    HarmonicGrid,
    build_nblk,
    build_toeplitz,  # noqa: F401  uncalled here; bench/tracing.py wraps this name
    samples_to_spectrum,
    spectrum_to_samples,
)


@dataclass(frozen=True)
class SolverConfig:
    """Newton/PSS solver settings (defaults are the benchmark values)."""

    n_harmonics: int = 4
    step: float = 50e-6
    tolerance: float = 1e-3
    max_iterations: int = 50
    cond_limit: float = 1e12

    def __post_init__(self):
        if self.n_harmonics < 1:
            raise UsageError("n_harmonics must be >= 1")
        if self.tolerance <= 0 or self.max_iterations < 1:
            raise UsageError("tolerance must be positive, max_iterations >= 1")

    def grid(self, model: SystemModel) -> HarmonicGrid:
        """One fundamental period of ``model``, sampled every ``step``."""
        return HarmonicGrid(model.period, self.step)


@dataclass
class SolverResult:
    spectrum: np.ndarray           # (2N+1, n); row k+N holds harmonic k
    waveforms: np.ndarray          # (M, n) reconstructed states over one period
    residual_history: list         # one step norm per Newton iteration
    hss: HssMatrices
    grid: HarmonicGrid
    elapsed_s: float = 0.0


def residual_norm(delta: np.ndarray, scales: np.ndarray) -> float:
    """∞-norm of a spectral update, states divided by their per-unit scales."""
    return float(np.max(np.abs(delta / scales)))


def initial_guess(model: SystemModel, config: SolverConfig) -> np.ndarray:
    """Materialize the model's reference seeds into a starting spectrum.

    Current-type rotating-frame states carry their setpoints at harmonic +1
    (conjugate partners at -1); controller and synchronization states start
    at zero.  The seed triples are attached by the case builders.
    """
    guess = np.zeros((2 * config.n_harmonics + 1, model.n_states), dtype=complex)
    for state, harmonic, value in model.spectral_seeds:
        if abs(harmonic) > config.n_harmonics:
            raise UsageError(
                f"seed harmonic {harmonic} outside truncation N={config.n_harmonics}"
            )
        guess[harmonic + config.n_harmonics, state] = value
    return guess


def _evaluate(model, grid, x_spec, u_samples):
    t = grid.times
    x_t = spectrum_to_samples(x_spec, grid.n_samples)
    f_t = model.dynamics(t, x_t, u_samples)
    if not np.all(np.isfinite(f_t)):
        raise DivergedTrajectory("non-finite dynamics along reconstructed trajectory")
    return x_t, f_t


def newton_step(
    model: SystemModel,
    x_spec: np.ndarray,
    grid: HarmonicGrid,
    config: SolverConfig,
    u_samples: np.ndarray,
):
    """One Newton update with the input sampled on ``grid`` as ``u_samples``.

    Returns ``(delta, step_norm)`` where ``delta`` solves
    (N_blk - A) delta = F - N_blk X at the supplied iterate.
    """
    big_n = x_spec.shape[0] // 2

    x_t, f_t = _evaluate(model, grid, x_spec, u_samples)
    hss = HssMatrices(model, grid.times, x_t, u_samples, big_n)
    rhs = samples_to_spectrum(f_t, big_n).reshape(-1) - hss.nblk * x_spec.reshape(-1)
    lhs = -hss.stability_matrix()
    del hss  # frees H, so only -H and its LU are alive across the factorization

    lu, piv = lu_factor(lhs, check_finite=False)
    anorm = float(np.max(np.abs(lhs).sum(axis=0)))
    rcond, info = lapack.zgecon(lu, anorm, norm="1")
    cond_est = np.inf if rcond == 0.0 else 1.0 / float(rcond)
    if not np.isfinite(cond_est) or cond_est > config.cond_limit:
        raise SingularIterationMatrix(cond_est)

    delta = lu_solve((lu, piv), rhs, check_finite=False).reshape(x_spec.shape)
    return delta, residual_norm(delta, model.state_scales)


def solve_pss(
    model: SystemModel,
    config: SolverConfig | None = None,
    initial: np.ndarray | None = None,
    u_samples: np.ndarray | None = None,
) -> SolverResult:
    """Newton iteration to the periodic steady state.

    Parameters
    ----------
    model : system to solve, with input drive attached.
    config : solver settings; defaults to the benchmark configuration.
    initial : warm-start spectrum of shape (2N+1, n), read and never
        written; defaults to the model's seeded guess.
    u_samples : pre-sampled input waveform (M, m); sampled from
        ``model.input_fn`` when omitted.

    Raises
    ------
    MaxIterationsExceeded
        carrying the recorded step norms, when tolerance is not met.
    SingularIterationMatrix, DivergedTrajectory
        on numerical breakdown, carrying the step norms recorded before it
        (``residual_history``).

    Every one of these failures also carries ``elapsed_s``, the seconds
    spent in this call up to the failure.

    Notes
    -----
    Convergence is declared when the ∞-norm of the per-unit-scaled update
    drops to ``config.tolerance``; the final small update is applied.  When a
    step norm exceeds the previous one, the step is retried at half its
    length, at most four times; the fourth halving (a sixteenth of the full
    step) is taken whatever its norm.  With monotone convergence this is
    plain Newton.
    """
    t0 = time.perf_counter()
    if config is None:
        config = SolverConfig()
    grid = config.grid(model)
    if u_samples is None:
        u_samples = np.asarray(model.input_fn(grid.times), dtype=complex)
    if u_samples.shape != (grid.n_samples, model.n_inputs):
        raise UsageError(
            f"input samples shape {u_samples.shape} does not match "
            f"({grid.n_samples}, {model.n_inputs})"
        )
    if initial is None:
        x = initial_guess(model, config)
    else:
        x = np.asarray(initial, dtype=complex)
        shape = (2 * config.n_harmonics + 1, model.n_states)
        if x.shape != shape:
            raise UsageError(f"initial spectrum shape {x.shape} does not match "
                             f"(2N+1, n) = {shape}")

    history = []
    try:
        delta, norm = newton_step(model, x, grid, config, u_samples)
        history.append(norm)
        converged = norm <= config.tolerance

        while not converged and len(history) < config.max_iterations:
            lam = 1.0
            halvings = 0
            while True:
                trial = x + lam * delta
                delta_t, norm_t = newton_step(model, trial, grid, config, u_samples)
                if norm_t <= history[-1] or halvings >= 4:
                    break
                lam *= 0.5
                halvings += 1
            x, delta, norm = trial, delta_t, norm_t
            history.append(norm)
            converged = norm <= config.tolerance
        if not converged:
            raise MaxIterationsExceeded(history, config.tolerance, last_spectrum=x)
    except SOLVER_ERRORS as exc:
        exc.residual_history = list(history)
        exc.elapsed_s = time.perf_counter() - t0
        if isinstance(exc, SingularIterationMatrix):
            exc.iteration = len(history) + 1
        raise

    # apply the final (sub-tolerance) correction; the HSS linearizes there
    x = x + delta
    waveforms = spectrum_to_samples(x, grid.n_samples)
    return SolverResult(
        spectrum=x,
        waveforms=waveforms,
        residual_history=history,
        hss=HssMatrices(model, grid.times, waveforms, u_samples,
                        config.n_harmonics),
        grid=grid,
        elapsed_s=time.perf_counter() - t0,
    )


def pss_residual(
    model: SystemModel,
    x_spec: np.ndarray,
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
    big_n = x_spec.shape[0] // 2
    f_spec = samples_to_spectrum(f_t, big_n)
    nx = build_nblk(model.n_states, big_n, model.omega1) * x_spec.reshape(-1)
    defect = float(np.max(np.abs(nx - f_spec.reshape(-1))))
    return defect, float(np.max(np.abs(nx)))
