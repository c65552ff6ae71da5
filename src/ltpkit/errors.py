"""Exception types shared across the toolkit."""

from __future__ import annotations


class UsageError(ValueError):
    """Bad arguments: dimension mismatches, malformed config, unknown parameter keys."""


class SingularIterationMatrix(RuntimeError):
    """Newton iteration matrix numerically singular.

    Carries the 1-norm condition estimate that tripped the guard.
    :func:`ltpkit.solver.solve_pss` sets ``iteration`` (1-based index of the
    Newton step that failed), ``residual_history`` (step norms of the
    steps completed before it) and ``elapsed_s``.
    """

    iteration: int | None = None
    residual_history: list | None = None
    elapsed_s: float | None = None

    def __init__(self, cond: float):
        super().__init__(cond)
        self.cond = cond

    def __str__(self) -> str:
        where = f" at iteration {self.iteration}" if self.iteration is not None else ""
        return (f"iteration matrix numerically singular{where} "
                f"(cond ~ {self.cond:.3e})")


class DivergedTrajectory(RuntimeError):
    """Non-finite values encountered while evaluating a trajectory.

    When raised by :func:`ltpkit.solver.solve_pss`, ``residual_history``
    holds the step norms of the Newton steps completed before the failure
    and ``elapsed_s`` the seconds the solve ran.
    """

    residual_history: list | None = None
    elapsed_s: float | None = None


class MaxIterationsExceeded(RuntimeError):
    """Newton failed to reach tolerance within the iteration budget.

    ``residual_history`` holds the step norms recorded before giving up;
    ``last_spectrum`` the final (non-converged) iterate, a (2N+1, n) array;
    ``elapsed_s`` the seconds the solve ran (set by
    :func:`ltpkit.solver.solve_pss`).
    """

    elapsed_s: float | None = None

    def __init__(self, residual_history, tolerance: float, last_spectrum=None):
        self.residual_history = list(residual_history)
        self.tolerance = tolerance
        self.last_spectrum = last_spectrum
        tail = self.residual_history[-1] if self.residual_history else float("nan")
        super().__init__(
            f"no convergence in {len(self.residual_history)} iterations "
            f"(last step norm {tail:.3e}, tolerance {tolerance:.1e})"
        )


# every failure of a Newton solve; each carries ``residual_history`` and
# ``elapsed_s``
SOLVER_ERRORS = (MaxIterationsExceeded, SingularIterationMatrix, DivergedTrajectory)


class SingularAtFrequency(RuntimeError):
    """Harmonic transfer function requested at (numerically) an HSS eigenvalue."""

    def __init__(self, s: complex, distance: float):
        self.s = s
        self.distance = distance
        super().__init__(
            f"s = {s:.6g} lies within {distance:.3e} of an HSS eigenvalue"
        )
