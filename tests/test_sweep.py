"""Two-parameter stability sweeps: gridding, determinism, boundary extraction."""

import numpy as np
import pytest

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
    hss_eigenvalues,
    run_sweep,
    weakest_mode,
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
                       converged=np.asarray(converged, dtype=bool),
                       iterations=np.ones_like(re_grid, dtype=int))


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


class TestRunSweep:
    def test_input_validation(self):
        spec = SweepSpec(SweepAxis("alpha_pll", (20.0,)), SweepAxis("alpha_c", (200.0,)))
        with pytest.raises(UsageError):
            run_sweep(build_case1, spec, workers=0)
        bad = SweepSpec(SweepAxis("alpha_pll", (20.0,)), SweepAxis("alpha_c", (200.0,)),
                        variant="closed")
        with pytest.raises(UsageError):
            run_sweep(build_case1, bad)

    def test_unknown_parameter_fails_fast(self):
        spec = SweepSpec(SweepAxis("bogus", (1.0,)), SweepAxis("alpha_c", (200.0,)))
        with pytest.raises(UsageError, match="bogus"):
            run_sweep(build_case1, spec)

    def test_single_cell_matches_direct_solve(self, case2_default):
        _, direct = case2_default
        spec = SweepSpec(SweepAxis("alpha_c", (200.0,)), SweepAxis("k_sym_g", (1.0,)))
        result = run_sweep(build_case2, spec)
        assert result.converged[0, 0]
        expect = weakest_mode(hss_eigenvalues(direct.hss), omega1=direct.hss.omega1,
                              n_harmonics=direct.hss.n_harmonics)
        assert result.re_weakest[0, 0] == pytest.approx(expect.real, abs=1e-9)
        assert result.im_weakest[0, 0] == pytest.approx(expect.imag, abs=1e-6)
        assert not result.region[0, 0]

    def test_worker_count_does_not_change_results(self):
        spec = SweepSpec(
            SweepAxis("alpha_pll", (5.0, 20.0, 35.0)),
            SweepAxis("u_gbeta_mag", (0.0, 0.25, 0.5)),
        )
        serial = run_sweep(build_case1, spec, workers=1)
        threaded = run_sweep(build_case1, spec, workers=3)
        np.testing.assert_array_equal(serial.converged, threaded.converged)
        np.testing.assert_array_equal(serial.re_weakest, threaded.re_weakest)
        np.testing.assert_array_equal(serial.im_weakest, threaded.im_weakest)
        np.testing.assert_array_equal(serial.iterations, threaded.iterations)
        assert serial.converged.all()

    def test_warm_start_reduces_iterations(self):
        spec = SweepSpec(
            SweepAxis("alpha_pll", (15.0, 20.0)),
            SweepAxis("u_gbeta_mag", (0.1, 0.2)),
        )
        result = run_sweep(build_case1, spec)
        assert result.converged.all()
        assert result.iterations[1].max() <= result.iterations[0].max()

    def test_nonconvergent_cells_recorded(self):
        spec = SweepSpec(
            SweepAxis("alpha_pll", (20.0,)),
            SweepAxis("u_gbeta_mag", (0.0, 0.3)),
            solver_config=SolverConfig(max_iterations=1, tolerance=1e-13),
        )
        result = run_sweep(build_case1, spec)
        assert not result.converged.any()
        assert np.isnan(result.re_weakest).all()
        assert not result.region.any()
        with pytest.raises(UsageError):
            extract_region(result)

    def test_failed_cells_count_completed_steps(self):
        # a cell whose trajectory diverges after two Newton steps records
        # those two steps, like a cell that runs out of iterations
        def builder(overrides):
            model = build_case1(overrides)["closed_loop"]
            return {"closed_loop": diverging_after(model, 2)}

        spec = SweepSpec(SweepAxis("alpha_pll", (20.0,)),
                         SweepAxis("u_gbeta_mag", (0.0, 0.3)),
                         solver_config=SolverConfig(tolerance=1e-13))
        result = run_sweep(builder, spec)
        assert not result.converged.any()
        assert result.iterations.tolist() == [[2, 2]]


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

    def test_cells_with_unconverged_corner_skipped(self):
        result = manual_result([[-1.0, -1.0], [1.0, np.nan]],
                               converged=[[True, True], [True, False]])
        _, segments = extract_region(result)
        assert segments == []
