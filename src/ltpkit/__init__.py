"""Periodic steady state, harmonic linearization, and stability analysis of
periodically driven nonlinear state-space systems.

The toolkit solves for exact periodic steady states by Newton iteration on
truncated Fourier coefficients (no time-domain integration involved), builds
the harmonic state-space linearization around that orbit, and derives
eigenvalue stability verdicts, two-parameter stability regions, and harmonic
frequency scans from it.  Two grid-tied voltage-source-converter benchmark
systems and an independent Runge–Kutta reference integrator are included.
"""

from .analysis import HssMatrices, ModeSet, ScanResult, frequency_scan, mode_set
from .cases import CASE1_DEFAULTS, CASE2_DEFAULTS, build_case1, build_case2, case_builder
from .errors import (
    DivergedTrajectory,
    MaxIterationsExceeded,
    SingularAtFrequency,
    SingularIterationMatrix,
    SolverError,
    UsageError,
)
from .model import SystemModel
from .oracle import Trajectory, integrate
from .solver import SolverConfig, SolverResult, pss_residual, solve_pss
from .sweep import SweepAxis, SweepResult, SweepSpec, extract_region, run_sweep

__version__ = "0.1.0"

# the workflow API; every other name is imported from its own module
__all__ = [
    "CASE1_DEFAULTS",
    "CASE2_DEFAULTS",
    "DivergedTrajectory",
    "HssMatrices",
    "MaxIterationsExceeded",
    "ModeSet",
    "ScanResult",
    "SingularAtFrequency",
    "SingularIterationMatrix",
    "SolverConfig",
    "SolverError",
    "SolverResult",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "SystemModel",
    "Trajectory",
    "UsageError",
    "build_case1",
    "build_case2",
    "case_builder",
    "extract_region",
    "frequency_scan",
    "integrate",
    "mode_set",
    "pss_residual",
    "run_sweep",
    "solve_pss",
]
