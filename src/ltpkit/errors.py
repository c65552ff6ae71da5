"""Exception types shared across the toolkit."""

from __future__ import annotations


class UsageError(ValueError):
    """Bad arguments: dimension mismatches, malformed config, unknown parameter keys."""


class SolverError(RuntimeError):
    """A failed Newton solve.

    :func:`ltpkit.solver.solve_pss` sets ``iteration`` (1-based index of the
    Newton step the failure stopped; for :class:`MaxIterationsExceeded` the
    first step over the budget), ``residual_history`` (step norms of the
    steps completed before it) and ``elapsed_s`` (seconds the solve ran).
    """

    iteration: int | None = None
    residual_history: list | None = None
    elapsed_s: float | None = None


class SingularIterationMatrix(SolverError):
    """Newton iteration matrix numerically singular.

    Carries the 1-norm condition estimate that tripped the guard.
    """

    def __init__(self, cond: float):
        super().__init__(cond)
        self.cond = cond

    def __str__(self) -> str:
        where = f" at iteration {self.iteration}" if self.iteration is not None else ""
        return (f"iteration matrix numerically singular{where} "
                f"(cond ~ {self.cond:.3e})")


class DivergedTrajectory(SolverError):
    """Non-finite values encountered while evaluating a trajectory."""


class MaxIterationsExceeded(SolverError):
    """Newton failed to reach tolerance within the iteration budget.

    ``last_spectrum`` holds the final (non-converged) iterate, a (2N+1, n)
    array.
    """

    def __init__(self, residual_history, tolerance: float, last_spectrum=None):
        self.residual_history = list(residual_history)
        self.tolerance = tolerance
        self.last_spectrum = last_spectrum
        tail = self.residual_history[-1] if self.residual_history else float("nan")
        super().__init__(
            f"no convergence in {len(self.residual_history)} iterations "
            f"(last step norm {tail:.3e}, tolerance {tolerance:.1e})"
        )


class SingularAtFrequency(RuntimeError):
    """Harmonic transfer function requested at (numerically) an HSS eigenvalue."""

    def __init__(self, s: complex, distance: float):
        self.s = s
        self.distance = distance
        super().__init__(
            f"s = {s:.6g} lies within {distance:.3e} of an HSS eigenvalue"
        )
