"""Periodic steady state, harmonic linearization, and stability analysis of
periodically driven nonlinear state-space systems.

The toolkit solves for exact periodic steady states by Newton iteration on
truncated Fourier coefficients (no time-domain integration involved), builds
the harmonic state-space linearization around that orbit, and derives
eigenvalue stability verdicts, two-parameter stability regions, and harmonic
frequency scans from it.  Two grid-tied voltage-source-converter benchmark
systems and an independent Runge–Kutta reference integrator are included.
"""

from .analysis import (
    HssMatrices,
    ModeSet,
    ScanResult,
    frequency_scan,
    interior_modes,
    harmonic_transfer_function,
    hss_eigenvalues,
    mode_set,
    weakest_mode,
)
from .cases import (
    CASE1_DEFAULTS,
    CASE1_LABELS,
    CASE2_DEFAULTS,
    CASE2_LABELS,
    asymmetric_inductance_matrix,
    build_case1,
    build_case2,
    case_builder,
    make_params,
    pi_gains_from_bandwidth,
)
from .errors import (
    DivergedTrajectory,
    MaxIterationsExceeded,
    SingularAtFrequency,
    SingularIterationMatrix,
    UsageError,
)
from .model import (
    SystemModel,
    linear_model,
)
from .oracle import (
    GrowthFit,
    Trajectory,
    compare_waveforms,
    growth_rate_fit,
    integrate,
    kicked_response,
    last_period,
)
from .solver import (
    SolverConfig,
    SolverResult,
    initial_guess,
    newton_step,
    pss_residual,
    solve_pss,
)
from .spectral import (
    BlockToeplitz,
    HarmonicGrid,
    SpectralVector,
    build_nblk,
    build_toeplitz,
    samples_to_spectrum,
    spectrum_to_samples,
)
from .sweep import SweepAxis, SweepResult, SweepSpec, extract_region, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BlockToeplitz",
    "CASE1_DEFAULTS",
    "CASE1_LABELS",
    "CASE2_DEFAULTS",
    "CASE2_LABELS",
    "DivergedTrajectory",
    "GrowthFit",
    "HarmonicGrid",
    "HssMatrices",
    "MaxIterationsExceeded",
    "ModeSet",
    "ScanResult",
    "SingularAtFrequency",
    "SingularIterationMatrix",
    "SolverConfig",
    "SolverResult",
    "SpectralVector",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "SystemModel",
    "Trajectory",
    "UsageError",
    "asymmetric_inductance_matrix",
    "build_case1",
    "build_case2",
    "build_nblk",
    "build_toeplitz",
    "case_builder",
    "compare_waveforms",
    "extract_region",
    "frequency_scan",
    "interior_modes",
    "growth_rate_fit",
    "harmonic_transfer_function",
    "hss_eigenvalues",
    "initial_guess",
    "integrate",
    "kicked_response",
    "last_period",
    "linear_model",
    "make_params",
    "mode_set",
    "newton_step",
    "pi_gains_from_bandwidth",
    "pss_residual",
    "run_sweep",
    "samples_to_spectrum",
    "solve_pss",
    "spectrum_to_samples",
    "weakest_mode",
]
