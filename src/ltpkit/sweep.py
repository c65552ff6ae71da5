"""Two-parameter stability sweeps over rebuilt models.

Each grid cell overrides two named parameters, rebuilds the case model,
solves its periodic steady state, and records the weakest eigenvalue of the
periodic linearization.  Each column is solved from the top row down.  A
cell's warm start is extrapolated along axis 1 from the (up to) three
nearest converged cells above it in its column, the predictor of numerical
continuation, so most cells converge in one Newton step.  A column reads
only its own cells, so results are identical for any worker count or
scheduling.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    hss_eigenvalues,  # noqa: F401  uncalled here; bench/tracing.py wraps this name
    mode_set,
    weakest_mode,  # noqa: F401  uncalled here; bench/tracing.py wraps this name
)
from .errors import SolverError, UsageError
from .solver import SolverConfig, solve_pss

# 40 times the 253-cell case-1 grid; at 2-10 ms a cell, a sweep of minutes
MAX_SWEEP_CELLS = 10_000


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a case parameter name and its grid values."""

    name: str
    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) < 1:
            raise UsageError(f"axis {self.name!r} needs at least one value")
        if not np.all(np.isfinite(values)):
            raise UsageError(f"axis {self.name!r} values must be finite")
        diffs = np.diff(values)
        if len(values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise UsageError(f"axis {self.name!r} values must be strictly monotone")


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition: axis1 indexes rows, axis2 columns."""

    axis1: SweepAxis
    axis2: SweepAxis
    base_params: dict = field(default_factory=dict)
    solver_config: SolverConfig = field(default_factory=SolverConfig)
    variant: str = "closed_loop"

    def __post_init__(self):
        # one cell overrides both names: axis 2 would overwrite axis 1
        if self.axis1.name == self.axis2.name:
            raise UsageError(f"both sweep axes name {self.axis1.name!r}")


@dataclass
class SweepResult:
    """Gridded weakest-mode records.

    ``region`` marks confirmed-unstable cells (converged and Re > 0);
    non-converged cells carry NaN and are excluded from the region.
    ``failure`` names the solver error of each non-converged cell
    (``MaxIterationsExceeded``, ``SingularIterationMatrix`` or
    ``DivergedTrajectory``) and is ``""`` where the cell converged.
    """

    spec: SweepSpec
    re_weakest: np.ndarray
    im_weakest: np.ndarray
    iterations: np.ndarray
    failure: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        return self.failure == ""

    @property
    def region(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return self.converged & (self.re_weakest > 0.0)


def _solve_cell(case_builder, spec: SweepSpec, value1: float, value2: float,
                initial: np.ndarray | None):
    """``(re, im, iterations, failure, spectrum)`` of one grid cell.

    ``failure`` is the class name of the solver error that stopped the cell,
    ``""`` when it converged.
    """
    overrides = dict(spec.base_params)
    overrides[spec.axis1.name] = value1
    overrides[spec.axis2.name] = value2
    model = case_builder(overrides)[spec.variant]
    try:
        result = solve_pss(model, spec.solver_config, initial=initial)
    except SolverError as exc:
        return np.nan, np.nan, len(exc.residual_history), type(exc).__name__, None
    weakest = mode_set(result.hss).weakest
    return weakest.real, weakest.imag, len(result.residual_history), "", result.spectrum


def _predict(above, value1: float) -> np.ndarray:
    """Lagrange polynomial through the ``(value1, spectrum)`` pairs ``above``,
    evaluated at ``value1``; a single pair gives its spectrum itself."""
    if len(above) == 1:
        return above[0][1]
    initial = 0.0
    for v_k, x_k in above:
        weight = np.prod([(value1 - v_m) / (v_k - v_m) for v_m, _ in above if v_m != v_k])
        initial = initial + weight * x_k
    return initial


def _solve_column(case_builder, spec: SweepSpec, j: int):
    """``(re, im, iterations, failure)`` of each cell of column ``j``, top row
    first.

    A cell warm-starts from the polynomial in the axis-1 value through the
    (up to) three nearest converged cells above it, evaluated at its own
    axis-1 value: with one converged cell above, that cell's spectrum; with
    none, the model's seeds.  Failed cells are skipped over, so the
    prediction uses only converged orbits of the column itself.
    """
    value2 = spec.axis2.values[j]
    # (value1, spectrum) of the three nearest converged cells above
    above, cells = [], []
    for value1 in spec.axis1.values:
        initial = _predict(above, value1) if above else None
        *cell, spectrum = _solve_cell(case_builder, spec, value1, value2, initial)
        if spectrum is not None:
            above = above[-2:] + [(value1, spectrum)]
        cells.append(cell)
    return cells


# (case_builder, spec) of the sweep a forked pool process serves; set by the
# pool initializer, so only in pool processes
_pool_sweep = None


def _bind_pool_sweep(case_builder, spec):
    global _pool_sweep
    _pool_sweep = (case_builder, spec)


def _solve_pool_column(j):
    return _solve_column(*_pool_sweep, j)


def _forked_pool(case_builder, spec: SweepSpec, processes: int):
    """Process pool whose workers inherit ``(case_builder, spec)`` by fork.

    Forked workers receive the initializer arguments without pickling, so
    closures and builders loaded from ``.py`` model files work; each task
    carries only a column index, and no spectrum crosses a process boundary.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        raise UsageError("workers > 1 needs the 'fork' start method, "
                         "which this platform does not provide")
    return ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"),
                               initializer=_bind_pool_sweep,
                               initargs=(case_builder, spec))


def run_sweep(case_builder, spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the weakest mode over the parameter grid.

    Parameters
    ----------
    case_builder : callable
        Takes a parameter-override dict, returns the model dict
        (``build_case1``/``build_case2``).  It need not be picklable.
    spec : SweepSpec
        Grid, base overrides, solver configuration, model variant.
    workers : int
        Processes for the columns.  With ``p = min(workers, columns)`` above
        one, a pool of ``p - 1`` processes is forked once per sweep and takes
        the first ``columns - columns // p`` columns, one task per column,
        while the calling process solves the rest.  Every column is solved
        top to bottom with warm starts predicted from its own converged
        cells only, so results do not depend on the worker count.

    Returns
    -------
    SweepResult
        Per-cell weakest eigenvalue, convergence flag, iteration count and
        failure reason.
    """
    if workers < 1:
        raise UsageError("workers must be >= 1")
    if spec.variant not in ("closed_loop", "open_loop"):
        raise UsageError(f"unknown model variant {spec.variant!r}")
    n_rows, n_cols = len(spec.axis1.values), len(spec.axis2.values)
    if n_rows * n_cols > MAX_SWEEP_CELLS:
        raise UsageError(f"{n_rows}x{n_cols} sweep cells exceed the limit "
                         f"of {MAX_SWEEP_CELLS}")
    # fail fast on unresolvable parameter names
    probe = dict(spec.base_params)
    probe[spec.axis1.name] = spec.axis1.values[0]
    probe[spec.axis2.name] = spec.axis2.values[0]
    case_builder(probe)

    re_w = np.full((n_rows, n_cols), np.nan)
    im_w = np.full((n_rows, n_cols), np.nan)
    iters = np.zeros((n_rows, n_cols), dtype=int)
    failure = np.full((n_rows, n_cols), "", dtype=object)

    processes = min(workers, n_cols)
    # the pool takes the first `split` columns; the calling process solves the rest
    split = n_cols - n_cols // processes
    with (_forked_pool(case_builder, spec, processes - 1) if processes > 1
          else contextlib.nullcontext()) as pool:
        pooled = pool.map(_solve_pool_column, range(split)) if pool else ()
        own = [_solve_column(case_builder, spec, j) for j in range(split, n_cols)]
        for j, column in enumerate(itertools.chain(pooled, own)):
            for i, cell in enumerate(column):
                re_w[i, j], im_w[i, j], iters[i, j], failure[i, j] = cell
    return SweepResult(spec=spec, re_weakest=re_w, im_weakest=im_w,
                       iterations=iters, failure=failure)


def _cross(p_a, p_b, z_a, z_b):
    t = z_a / (z_a - z_b)
    return (p_a[0] + t * (p_b[0] - p_a[0]), p_a[1] + t * (p_b[1] - p_a[1]))


def extract_region(result: SweepResult):
    """Boolean unstable region plus linear-interpolated boundary segments.

    The boundary is traced marching-squares style on ``re_weakest = 0``:
    within every grid cell whose four corners all converged, sign changes
    along edges are located by linear interpolation and joined pairwise.

    Returns
    -------
    (region, segments)
        ``region``: boolean grid (True = unstable).  ``segments``: list of
        ``((p1, p2), (p1, p2))`` endpoint pairs in parameter coordinates.
    """
    if not np.any(result.converged):
        raise UsageError("no converged cells in sweep result")
    region = result.region
    v1 = np.asarray(result.spec.axis1.values)
    v2 = np.asarray(result.spec.axis2.values)
    z = result.re_weakest
    segments = []
    for i in range(len(v1) - 1):
        for j in range(len(v2) - 1):
            if not (result.converged[i, j] and result.converged[i, j + 1]
                    and result.converged[i + 1, j] and result.converged[i + 1, j + 1]):
                continue
            corners = [
                ((v1[i], v2[j]), z[i, j]),
                ((v1[i], v2[j + 1]), z[i, j + 1]),
                ((v1[i + 1], v2[j + 1]), z[i + 1, j + 1]),
                ((v1[i + 1], v2[j]), z[i + 1, j]),
            ]
            crossings = []
            for k in range(4):
                (p_a, z_a), (p_b, z_b) = corners[k], corners[(k + 1) % 4]
                if (z_a > 0.0) != (z_b > 0.0):
                    crossings.append((k, _cross(p_a, p_b, z_a, z_b)))
            if len(crossings) == 2:
                segments.append((crossings[0][1], crossings[1][1]))
            elif len(crossings) == 4:
                center_pos = np.mean([c[1] for c in corners]) > 0.0
                # cut off the two corners whose sign differs from the centre's
                if (corners[0][1] > 0.0) == center_pos:
                    pairs = ((0, 1), (2, 3))
                else:
                    pairs = ((3, 0), (1, 2))
                by_edge = dict(crossings)
                for a, b in pairs:
                    segments.append((by_edge[a], by_edge[b]))
    return region, segments
