"""Two-parameter stability sweeps: gridding, determinism, boundary extraction."""

import numpy as np
import pytest

import ltpkit.sweep
from conftest import diverging_after
from ltpkit import (
    SolverConfig,
    SweepAxis,
    SweepResult,
    SweepSpec,
    UsageError,
    build_case1,
    build_case2,
    extract_region,
    mode_set,
    run_sweep,
)


def manual_result(re_grid, converged=None, v1=None, v2=None):
    re_grid = np.asarray(re_grid, dtype=float)
    n1, n2 = re_grid.shape
    spec = SweepSpec(
        axis1=SweepAxis("a", tuple(v1 if v1 is not None else range(n1))),
        axis2=SweepAxis("b", tuple(v2 if v2 is not None else range(n2))),
    )
    if converged is None:
        converged = np.ones_like(re_grid, dtype=bool)
    return SweepResult(spec=spec, re_weakest=re_grid,
                       im_weakest=np.zeros_like(re_grid),
                       iterations=np.ones_like(re_grid, dtype=int),
                       failure=np.where(converged, "", "MaxIterationsExceeded"))


class TestAxes:
    def test_monotone_required(self):
        SweepAxis("alpha_pll", (5.0, 20.0, 60.0))
        SweepAxis("alpha_pll", (60.0, 20.0, 5.0))
        SweepAxis("alpha_pll", (42.0,))
        with pytest.raises(UsageError):
            SweepAxis("alpha_pll", (1.0, 3.0, 2.0))
        with pytest.raises(UsageError):
            SweepAxis("alpha_pll", (1.0, 1.0))
        with pytest.raises(UsageError):
            SweepAxis("alpha_pll", ())

    def test_axes_name_different_parameters(self):
        # one cell overrides both names, so axis 2 would overwrite axis 1
        with pytest.raises(UsageError, match="both sweep axes name 'alpha_pll'"):
            SweepSpec(SweepAxis("alpha_pll", (10.0, 40.0)), SweepAxis("alpha_pll", (20.0, 30.0)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_finite_required(self, bad):
        # the warm-start predictor divides by axis differences
        with pytest.raises(UsageError, match="finite"):
            SweepAxis("alpha_pll", (1.0, bad))
        with pytest.raises(UsageError, match="finite"):
            SweepAxis("alpha_pll", (bad,))


class TestRunSweep:
    def test_input_validation(self):
        spec = SweepSpec(SweepAxis("alpha_pll", (20.0,)), SweepAxis("alpha_c", (200.0,)))
        with pytest.raises(UsageError):
            run_sweep(build_case1, spec, workers=0)
        bad = SweepSpec(SweepAxis("alpha_pll", (20.0,)), SweepAxis("alpha_c", (200.0,)),
                        variant="closed")
        with pytest.raises(UsageError):
            run_sweep(build_case1, bad)

    def test_cell_count_bounded_before_solving(self):
        def no_build(overrides):
            raise AssertionError("a refused sweep builds no model")

        n_rows = ltpkit.sweep.MAX_SWEEP_CELLS + 1
        spec = SweepSpec(SweepAxis("alpha_pll", tuple(range(n_rows))),
                         SweepAxis("u_gbeta_mag", (0.0,)))
        with pytest.raises(UsageError, match="exceed the limit"):
            run_sweep(no_build, spec)

    def test_unknown_parameter_fails_fast(self):
        spec = SweepSpec(SweepAxis("bogus", (1.0,)), SweepAxis("alpha_c", (200.0,)))
        with pytest.raises(UsageError, match="bogus"):
            run_sweep(build_case1, spec)

    def test_single_cell_matches_direct_solve(self, case2_default):
        _, direct = case2_default
        spec = SweepSpec(SweepAxis("alpha_c", (200.0,)), SweepAxis("k_sym_g", (1.0,)))
        result = run_sweep(build_case2, spec)
        assert result.converged[0, 0]
        expect = mode_set(direct.hss).weakest
        assert result.re_weakest[0, 0] == pytest.approx(expect.real, abs=1e-9)
        assert result.im_weakest[0, 0] == pytest.approx(expect.imag, abs=1e-6)
        assert not result.region[0, 0]

    def test_worker_count_does_not_change_results(self):
        spec = SweepSpec(
            SweepAxis("alpha_pll", (5.0, 20.0, 35.0)),
            SweepAxis("u_gbeta_mag", (0.0, 0.25, 0.5)),
        )
        serial = run_sweep(build_case1, spec, workers=1)
        pooled = run_sweep(build_case1, spec, workers=3)
        np.testing.assert_array_equal(serial.converged, pooled.converged)
        np.testing.assert_array_equal(serial.re_weakest, pooled.re_weakest)
        np.testing.assert_array_equal(serial.im_weakest, pooled.im_weakest)
        np.testing.assert_array_equal(serial.iterations, pooled.iterations)
        np.testing.assert_array_equal(serial.failure, pooled.failure)
        assert serial.converged.all()
        assert (serial.failure == "").all()

    def test_pool_never_larger_than_the_columns(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool:
            # runs the tasks in this process; records the requested size
            def __init__(self, max_workers, mp_context, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(ltpkit.sweep, "_pool_sweep", None)
        three = SweepSpec(SweepAxis("alpha_pll", (20.0,)),
                          SweepAxis("u_gbeta_mag", (0.0, 0.1, 0.2)))
        assert run_sweep(build_case1, three, workers=64).converged.all()
        assert sizes == [2]   # the calling process solves the third column
        one = SweepSpec(SweepAxis("alpha_pll", (20.0, 25.0)),
                        SweepAxis("u_gbeta_mag", (0.0,)))
        assert run_sweep(build_case1, one, workers=64).converged.all()
        assert sizes == [2]   # a single column needs no pool

    def test_calling_process_solves_its_columns(self, monkeypatch):
        # with two workers the pool takes the first two columns and the
        # calling process the last one, top row first
        solved = []
        solve_cell = ltpkit.sweep._solve_cell

        def recording_solve_cell(case_builder, spec, value1, value2, initial):
            solved.append((value1, value2))
            return solve_cell(case_builder, spec, value1, value2, initial)

        # forked pool processes record into their own copy of `solved`
        monkeypatch.setattr(ltpkit.sweep, "_solve_cell", recording_solve_cell)
        spec = SweepSpec(SweepAxis("alpha_pll", (15.0, 20.0)),
                         SweepAxis("u_gbeta_mag", (0.0, 0.1, 0.2)))
        assert run_sweep(build_case1, spec, workers=2).converged.all()
        assert solved == [(15.0, 0.2), (20.0, 0.2)]

    def test_warm_start_from_nearest_converged_cell_above(self, monkeypatch):
        # the closure builder diverges at the interior cell (20, 0.1) and at
        # the top cell (15, 0.2) of the last column
        failing = {(20.0, 0.1), (15.0, 0.2)}
        built, seen = [], {}

        def builder(overrides):
            cell = (overrides["alpha_pll"], overrides["u_gbeta_mag"])
            built.append(cell)
            models = build_case1(overrides)
            if cell in failing:
                return {"closed_loop": diverging_after(models["closed_loop"], 2)}
            return models

        solve_pss = ltpkit.sweep.solve_pss

        def recording_solve_pss(model, config, initial=None):
            # cell -> (warm start it got, its converged spectrum or None)
            seen[built[-1]] = (initial, None)
            result = solve_pss(model, config, initial=initial)
            seen[built[-1]] = (initial, result.spectrum)
            return result

        monkeypatch.setattr(ltpkit.sweep, "solve_pss", recording_solve_pss)
        spec = SweepSpec(SweepAxis("alpha_pll", (15.0, 20.0, 25.0)),
                         SweepAxis("u_gbeta_mag", (0.0, 0.1, 0.2)),
                         solver_config=SolverConfig(tolerance=1e-13))
        serial = run_sweep(builder, spec, workers=1)
        assert serial.failure.tolist() == [["", "", "DivergedTrajectory"],
                                           ["", "DivergedTrajectory", ""],
                                           ["", "", ""]]
        assert all(seen[(15.0, b)][0] is None for b in (0.0, 0.1, 0.2))
        # below the failed (20, 0.1): the spectrum of (15, 0.1) above it
        assert seen[(25.0, 0.1)][0] is seen[(15.0, 0.1)][1]
        assert seen[(20.0, 0.0)][0] is seen[(15.0, 0.0)][1]
        # the last column's top cell failed: its next cell starts cold
        assert seen[(20.0, 0.2)][0] is None
        assert seen[(25.0, 0.2)][0] is seen[(20.0, 0.2)][1]
        for workers in (2, 3):
            pooled = run_sweep(builder, spec, workers=workers)
            np.testing.assert_array_equal(serial.re_weakest, pooled.re_weakest)
            np.testing.assert_array_equal(serial.im_weakest, pooled.im_weakest)
            np.testing.assert_array_equal(serial.iterations, pooled.iterations)
            np.testing.assert_array_equal(serial.failure, pooled.failure)

    def test_pool_needs_fork(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        spec = SweepSpec(SweepAxis("alpha_pll", (20.0,)),
                         SweepAxis("u_gbeta_mag", (0.0, 0.1)))
        with pytest.raises(UsageError, match="fork"):
            run_sweep(build_case1, spec, workers=2)
        assert run_sweep(build_case1, spec, workers=1).converged.all()

    def test_warm_start_reduces_iterations(self):
        # a column across the stability boundary: from the fourth row on,
        # each cell's warm start is extrapolated from three converged cells
        spec = SweepSpec(
            SweepAxis("alpha_pll", (20.0, 25.0, 30.0, 35.0, 40.0, 45.0)),
            SweepAxis("u_gbeta_mag", (0.2,)),
        )
        result = run_sweep(build_case1, spec)
        assert result.converged.all()
        assert (result.re_weakest[0] < 0.0) and (result.re_weakest[-1] > 0.0)
        assert result.iterations[3:, 0].tolist() == [1, 1, 1]

    @staticmethod
    def record_warm_starts(monkeypatch, failing):
        """Sweep builder whose cells in ``failing`` diverge after one Newton
        step, and a dict ``cell -> (warm start, spectrum or None)`` that a
        recording ``solve_pss`` fills in."""
        built, seen = [], {}

        def builder(overrides):
            cell = (overrides["alpha_pll"], overrides["u_gbeta_mag"])
            built.append(cell)
            models = build_case1(overrides)
            if cell in failing:
                return {"closed_loop": diverging_after(models["closed_loop"], 1)}
            return models

        solve_pss = ltpkit.sweep.solve_pss

        def recording_solve_pss(model, config, initial=None):
            seen[built[-1]] = (initial, None)
            result = solve_pss(model, config, initial=initial)
            seen[built[-1]] = (initial, result.spectrum)
            return result

        monkeypatch.setattr(ltpkit.sweep, "solve_pss", recording_solve_pss)
        return builder, seen

    @staticmethod
    def lagrange(seen, column, rows, value1):
        """Lagrange combination of the spectra of ``rows`` of ``column`` at
        ``value1``, written out term by term."""
        total = 0.0
        for k in rows:
            weight = np.prod([(value1 - m) / (k - m) for m in rows if m != k])
            total = total + weight * seen[(k, column)][1]
        return total

    def test_warm_start_is_quadratic_through_three_nearest_converged(self, monkeypatch):
        # (30, 0.1) diverges; the rows are unevenly spaced below it
        builder, seen = self.record_warm_starts(monkeypatch, {(30.0, 0.1)})
        spec = SweepSpec(SweepAxis("alpha_pll", (15.0, 20.0, 25.0, 30.0, 35.0, 42.0)),
                         SweepAxis("u_gbeta_mag", (0.1,)),
                         solver_config=SolverConfig(tolerance=1e-13))
        result = run_sweep(builder, spec)
        assert result.failure[:, 0].tolist() == ["", "", "", "DivergedTrajectory", "", ""]
        assert seen[(20.0, 0.1)][0] is seen[(15.0, 0.1)][1]
        for value1, rows in ((30.0, (15.0, 20.0, 25.0)),
                             (35.0, (15.0, 20.0, 25.0)),   # across the failed cell
                             (42.0, (20.0, 25.0, 35.0))):  # the three nearest
            initial = seen[(value1, 0.1)][0]
            expect = self.lagrange(seen, 0.1, rows, value1)
            scale = np.max(np.abs(expect))
            np.testing.assert_allclose(initial, expect, rtol=0, atol=1e-13 * scale)
            # not the nearest cell's spectrum, nor the line through two
            nearest = seen[(rows[-1], 0.1)][1]
            assert np.max(np.abs(initial - nearest)) > 1e-6 * scale
            line = self.lagrange(seen, 0.1, rows[1:], value1)
            assert np.max(np.abs(initial - line)) > 1e-6 * scale

    def test_warm_start_is_linear_through_two_converged(self, monkeypatch):
        # (20, 0.1) diverges, so (30, 0.1) has two converged cells above it
        builder, seen = self.record_warm_starts(monkeypatch, {(20.0, 0.1)})
        spec = SweepSpec(SweepAxis("alpha_pll", (15.0, 20.0, 25.0, 30.0)),
                         SweepAxis("u_gbeta_mag", (0.1,)),
                         solver_config=SolverConfig(tolerance=1e-13))
        result = run_sweep(builder, spec)
        assert result.failure[:, 0].tolist() == ["", "DivergedTrajectory", "", ""]
        assert seen[(25.0, 0.1)][0] is seen[(15.0, 0.1)][1]
        x15, x25 = seen[(15.0, 0.1)][1], seen[(25.0, 0.1)][1]
        expect = x25 + (30.0 - 25.0) / (25.0 - 15.0) * (x25 - x15)
        np.testing.assert_allclose(seen[(30.0, 0.1)][0], expect, rtol=0,
                                   atol=1e-13 * np.max(np.abs(expect)))
        assert np.max(np.abs(seen[(30.0, 0.1)][0] - x25)) > 1e-6 * np.max(np.abs(x25))

    def test_nonconvergent_cells_recorded(self):
        spec = SweepSpec(
            SweepAxis("alpha_pll", (20.0,)),
            SweepAxis("u_gbeta_mag", (0.0, 0.3)),
            solver_config=SolverConfig(max_iterations=1, tolerance=1e-13),
        )
        result = run_sweep(build_case1, spec)
        assert not result.converged.any()
        assert result.failure.tolist() == [["MaxIterationsExceeded"] * 2]
        assert np.isnan(result.re_weakest).all()
        assert not result.region.any()
        with pytest.raises(UsageError):
            extract_region(result)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_cells_count_completed_steps(self, workers):
        # a cell whose trajectory diverges after two Newton steps records
        # those two steps, like a cell that runs out of iterations; the
        # builder is a closure, which a process pool cannot pickle
        def builder(overrides):
            model = build_case1(overrides)["closed_loop"]
            return {"closed_loop": diverging_after(model, 2)}

        spec = SweepSpec(SweepAxis("alpha_pll", (20.0,)),
                         SweepAxis("u_gbeta_mag", (0.0, 0.3)),
                         solver_config=SolverConfig(tolerance=1e-13))
        result = run_sweep(builder, spec, workers=workers)
        assert not result.converged.any()
        assert result.iterations.tolist() == [[2, 2]]
        assert result.failure.tolist() == [["DivergedTrajectory"] * 2]


class TestRegion:
    def test_region_is_converged_and_positive(self):
        result = manual_result([[1.0, -1.0], [np.nan, 2.0]],
                               converged=[[True, True], [False, True]])
        np.testing.assert_array_equal(result.region,
                                      [[True, False], [False, True]])

    def test_uniformly_stable_empty_boundary(self):
        region, segments = extract_region(manual_result([[-1.0, -2.0], [-3.0, -4.0]]))
        assert not region.any()
        assert segments == []

    def test_sign_change_interpolated_at_midpoint(self):
        region, segments = extract_region(
            manual_result([[-1.0, -1.0], [1.0, 1.0]], v1=(0.0, 1.0), v2=(0.0, 1.0)))
        np.testing.assert_array_equal(region, [[False, False], [True, True]])
        assert len(segments) == 1
        (a, b) = segments[0]
        assert sorted([a, b]) == [(0.5, 0.0), (0.5, 1.0)]

    def test_asymmetric_crossing_location(self):
        # z: -1 at v1=0, +3 at v1=1 -> zero at v1 = 0.25
        _, segments = extract_region(
            manual_result([[-1.0, -1.0], [3.0, 3.0]], v1=(0.0, 1.0), v2=(0.0, 1.0)))
        for point in segments[0]:
            assert point[0] == pytest.approx(0.25)

    @pytest.mark.parametrize("z, expect", [
        ([[2.0, -1.0], [-1.0, 2.0]], [((0, 2 / 3), (1 / 3, 1)), ((1, 1 / 3), (2 / 3, 0))]),
        ([[-2.0, 1.0], [1.0, -2.0]], [((0, 2 / 3), (1 / 3, 1)), ((1, 1 / 3), (2 / 3, 0))]),
        ([[1.0, -2.0], [-2.0, 1.0]], [((1 / 3, 0), (0, 1 / 3)), ((2 / 3, 1), (1, 2 / 3))]),
    ], ids=["positive_centre", "negative_centre", "negative_centre_positive_corner"])
    def test_saddle_cuts_off_corners_unlike_centre(self, z, expect):
        # four crossings: the centre (corner mean) joins the two corners of
        # its own sign, so each segment cuts off one corner of the other sign
        _, segments = extract_region(manual_result(z, v1=(0.0, 1.0), v2=(0.0, 1.0)))
        np.testing.assert_allclose(np.array(segments), np.array(expect), rtol=0, atol=1e-15)

    def test_cells_with_unconverged_corner_skipped(self):
        result = manual_result([[-1.0, -1.0], [1.0, np.nan]],
                               converged=[[True, True], [True, False]])
        _, segments = extract_region(result)
        assert segments == []
