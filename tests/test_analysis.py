"""HSS eigenvalue analysis, stability classification, harmonic transfer scans."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import ltpkit.sweep
from conftest import dense_eigenvalues, dense_mode_set
from ltpkit import (
    ModeSet,
    SingularAtFrequency,
    SolverConfig,
    UsageError,
    build_case1,
    build_case2,
    frequency_scan,
    mode_set,
    solve_pss,
)
from ltpkit import _lapack
from ltpkit.analysis import (
    REAL_FORM_TOL,
    _triangular_schur,
    harmonic_transfer_function,
    hss_eigenvalues,
    interior_modes,
    weakest_mode,
)
from ltpkit.model import linear_model
from ltpkit.spectral import BlockToeplitz
from ltpkit.cli import main

OM1 = 2.0 * np.pi * 50.0


def htf_block(h, k, l, hss):
    """Harmonic block (k, l) of an assembled H(s) of ``hss``."""
    p, m, n = hss.model.n_outputs, hss.model.n_inputs, hss.n_harmonics
    return h[(k + n) * p:(k + n + 1) * p, (l + n) * m:(l + n + 1) * m]


def lti_hss(a, n_harmonics=2, **kwargs):
    model = linear_model(np.asarray(a, dtype=complex), omega1=OM1, **kwargs)
    cfg = SolverConfig(n_harmonics=n_harmonics)
    return solve_pss(model, cfg).hss


class TestEigenvalues:
    def test_lti_spectrum_is_shifted_copies(self):
        a = np.array([[-3.0, 1.0], [0.0, -7.0 + 2.0j]])
        hss = lti_hss(a, n_harmonics=2)
        eigs = hss_eigenvalues(hss)
        expect = np.array([lam - 1j * k * OM1
                           for lam in np.linalg.eigvals(a)
                           for k in range(-2, 3)])
        assert eigs.size == expect.size
        for lam in expect:
            assert np.min(np.abs(eigs - lam)) < 1e-8

    def test_scalar_state_three_copies(self):
        hss = lti_hss([[-3.0]], n_harmonics=1)
        eigs = hss_eigenvalues(hss)
        eigs = eigs[np.argsort(eigs.imag)]
        expect = np.array([-3.0 - 1j * OM1, -3.0 + 0j, -3.0 + 1j * OM1])
        assert np.allclose(eigs, expect, atol=1e-9)

    def test_nearly_tied_real_parts_sort_by_imag(self):
        # real parts 1e-15 apart, the larger one at the larger Im: one tie
        # run, read in ascending Im, whatever round-off does to the gap
        hss = lti_hss(np.diag([-2.0 + 3.0j, -2.0 - 1e-15 - 3.0j]), n_harmonics=1)
        eigs = hss_eigenvalues(hss)
        assert np.ptp(eigs.real) < 1e-12
        assert np.all(np.diff(eigs.imag) > 0.0)
        # real parts further apart than the tie tolerance keep their order
        eigs = hss_eigenvalues(lti_hss(np.diag([-2.0 + 3.0j, -2.1 - 3.0j]), n_harmonics=1))
        assert np.max(np.abs(eigs.real[:3] + 2.0)) < 1e-12
        assert np.all(np.diff(eigs.imag[:3]) > 0.0) and np.all(np.diff(eigs.imag[3:]) > 0.0)

    def test_sorted_by_descending_real_part(self, case1_balanced):
        _, result = case1_balanced
        eigs = hss_eigenvalues(result.hss)
        # real parts descend, except inside a run tied within
        # 1e-9·(1 + |Re|): that run reads in ascending Im, so round-off in
        # its real parts may rise from one row to the next
        tol = 1e-9 * (1.0 + np.abs(eigs.real[:-1]))
        step = np.diff(eigs.real)
        tied = np.abs(step) <= tol
        assert np.all((step < 0.0) | tied)
        assert np.all(np.diff(eigs.imag)[tied] >= 0.0)

    def test_hss_dimensions(self, case1_balanced, case2_default):
        assert case1_balanced[1].hss.stability_matrix().shape == (54, 54)    # (2*4+1) * 6
        assert case2_default[1].hss.stability_matrix().shape == (162, 162)  # (2*4+1) * 18


def multiset_gap(a, b):
    """Largest distance between the two spectra under the best matching."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


SOLVED = ["case1_balanced", "case1_unbalanced", "case2_default", "case2_unbalanced",
          "case1_open_balanced", "case1_open_unbalanced", "case2_open_default",
          "case2_open_unbalanced"]


class TestRealForm:
    @pytest.mark.parametrize("solved", SOLVED)
    def test_matches_complex_eigen_solve(self, solved, request):
        # relative to max|H|: on case 2 a near-defective pair at the
        # truncation edge (condition ~5e7) moves by ~3e-6 between any two
        # eigen-solvers, the dense ones included
        hss = request.getfixturevalue(solved)[1].hss
        assert hss.real_form
        h = hss.stability_matrix()
        gap = multiset_gap(hss_eigenvalues(hss), scipy.linalg.eigvals(h))
        assert gap <= 1e-9 * np.max(np.abs(h))

    @pytest.mark.parametrize("solved", SOLVED)
    def test_weakest_mode_unchanged(self, solved, request):
        hss = request.getfixturevalue(solved)[1].hss
        ref = scipy.linalg.eigvals(hss.stability_matrix())
        expect = weakest_mode(interior_modes(ref, hss.model.omega1, hss.n_harmonics))
        got = mode_set(hss).weakest
        assert abs(got - expect) <= 1e-10 * (1.0 + abs(expect))

    @pytest.mark.parametrize("solved", SOLVED)
    def test_spectrum_closed_under_conjugation(self, solved, request):
        eigs = hss_eigenvalues(request.getfixturevalue(solved)[1].hss)
        assert np.array_equal(np.sort_complex(eigs), np.sort_complex(eigs.conj()))

    def test_partner_is_the_conjugate_symmetry(self, case1_unbalanced):
        hss = case1_unbalanced[1].hss
        p = hss.partner
        assert np.array_equal(p[p], np.arange(p.size))
        h = hss.stability_matrix()
        assert np.max(np.abs(h[np.ix_(p, p)] - h.conj())) <= 1e-12 * np.max(np.abs(h))

    def test_complex_model_solves_complex_form(self):
        hss = lti_hss([[-3.0, 1.0], [0.0, -7.0 + 2.0j]], n_harmonics=2)
        assert not hss.real_form
        assert hss.symmetry_defect > REAL_FORM_TOL
        h = hss.stability_matrix()
        gap = multiset_gap(hss_eigenvalues(hss), scipy.linalg.eigvals(h))
        assert gap <= 1e-9 * np.max(np.abs(h))

    def test_eigenvalues_read_only(self):
        eigs = hss_eigenvalues(lti_hss([[-3.0]], n_harmonics=1))
        with pytest.raises(ValueError):
            eigs[0] = 0.0

    def test_one_eigen_solve_per_hss(self, monkeypatch):
        # one real eigen-solve per invariant block, run once for every read
        hss = lti_hss([[-30.0, 10.0], [0.0, -80.0]], n_harmonics=2)
        calls = []
        eigvals = _lapack.eigvals

        def counted(a, *args, **kwargs):
            calls.append((a.shape[0], a.dtype))
            return eigvals(a, *args, **kwargs)

        monkeypatch.setattr(_lapack, "eigvals", counted)
        for f_hz in (3.0, 11.0, 90.0):
            harmonic_transfer_function(hss, 2j * np.pi * f_hz)
        mode_set(hss)
        assert hss_eigenvalues(hss) is hss.eigenvalues
        # an LTI model couples harmonic k only with its partner −k
        assert [b.size for b in hss.blocks] == [4, 4, 2]
        assert sorted(calls) == [(2, np.float64), (4, np.float64), (4, np.float64)]


def explicit_t(partner):
    """The unitary T of HssMatrices.eigenvalues as a dense matrix."""
    eye = np.eye(partner.size)
    idx = np.arange(partner.size)
    a = idx[idx < partner]
    b = partner[a]
    r = np.sqrt(0.5)
    return np.hstack((eye[:, partner == idx], r * (eye[:, a] + eye[:, b]),
                      1j * r * (eye[:, a] - eye[:, b])))


def time_varying_hss(n_harmonics=3):
    """HSS of x' = A(t) x with a dense A(t) = A0 + A1 cos ω₁t: every state
    couples to every other, and harmonic k to k ± 1."""
    a0 = np.array([[-30.0, 4.0, -2.0], [3.0, -50.0, 5.0], [1.0, -6.0, -70.0]])
    a1 = np.array([[8.0, -1.0, 2.0], [0.5, 6.0, -3.0], [2.0, 1.0, 4.0]])
    base = linear_model(a0, omega1=OM1)

    def a_of(t):
        return a0 + np.cos(OM1 * np.asarray(t))[..., None, None] * a1

    def dynamics(t, x, u):
        return np.einsum("...ij,...j->...i", a_of(t), x) + u

    def jac_state(t, x, u):
        return np.broadcast_to(a_of(t), np.shape(x)[:-1] + a0.shape).astype(complex)

    model = dataclasses.replace(base, dynamics=dynamics, jac_state=jac_state)
    return solve_pss(model, SolverConfig(n_harmonics=n_harmonics)).hss


class TestInvariantBlocks:
    @pytest.mark.parametrize("solved", SOLVED)
    def test_blocks_partition_and_keep_real_form(self, solved, request):
        hss = request.getfixturevalue(solved)[1].hss
        assert len(hss.blocks) > 1
        everything = np.concatenate(hss.blocks)
        assert np.array_equal(np.sort(everything),
                              np.arange(hss.stability_matrix().shape[0]))
        h = hss.stability_matrix()
        for block in hss.blocks:
            assert np.array_equal(np.sort(hss.partner[block]), block)
            t = explicit_t(np.searchsorted(block, hss.partner[block]))
            w = t.conj().T @ h[np.ix_(block, block)] @ t
            assert np.max(np.abs(w.imag)) <= REAL_FORM_TOL * np.max(np.abs(w))
        assert hss.real_form
        assert 0.0 <= hss.decoupling_defect <= REAL_FORM_TOL

    def test_fully_coupled_model_is_one_block(self):
        hss = time_varying_hss()
        assert [b.size for b in hss.blocks] == [hss.stability_matrix().shape[0]]
        assert hss.real_form
        assert hss.decoupling_defect == 0.0
        assert np.array_equal(hss_eigenvalues(hss), dense_eigenvalues(hss))

    @pytest.mark.parametrize("case, cells", [("case1", 253), ("case2", 121)])
    def test_default_sweep_matches_dense_path(self, case, cells, tmp_path,
                                              monkeypatch):
        pairs = []
        block_mode_set = ltpkit.sweep.mode_set

        def both(hss):
            modes = block_mode_set(hss)
            pairs.append((modes, dense_mode_set(hss)))
            return modes

        monkeypatch.setattr(ltpkit.sweep, "mode_set", both)
        assert main(["sweep", "--case", case, "--workers", "1",
                     "--out", str(tmp_path)]) == 0
        assert len(pairs) == cells
        for modes, dense in pairs:
            lam = dense.weakest
            assert abs(modes.weakest - lam) <= 1e-9 * (1.0 + abs(lam))
            assert modes.classification == dense.classification


class TestWeakestMode:
    def test_largest_real_part_wins(self):
        eigs = np.array([-4.0 + 2j, -0.5 - 7j, -2.0])
        assert weakest_mode(eigs) == pytest.approx(-0.5 - 7j)

    def test_tie_breaks_toward_small_nonnegative_imag(self):
        eigs = np.array([-1.0 - 1j, -1.0 + 1j, -5.0])
        assert weakest_mode(eigs) == pytest.approx(-1.0 + 1j)

    def test_empty_set_rejected(self):
        with pytest.raises(UsageError):
            weakest_mode(np.array([]))

    def test_edge_band_excluded_when_grid_given(self):
        # artifact at the outermost band has the largest real part; the
        # tie-break alone keeps it, and it loses to an interior mode once
        # the grid's edge band is dropped first, as mode_set does
        eigs = np.array([0.5 + 1j * 4.0 * OM1, -1.0 + 0j])
        assert weakest_mode(eigs) == pytest.approx(0.5 + 4j * OM1)
        assert weakest_mode(interior_modes(eigs, OM1, 4)) == pytest.approx(-1.0)


class TestInteriorModes:
    def test_drops_only_outermost_band(self):
        band_edge = 4.0 * OM1
        eigs = np.array([
            -1.0 + 1j * 3.6 * OM1,    # inside (3.5, 4.5)*om1: dropped
            -2.0 - 1j * band_edge,    # dropped (negative side)
            -3.0 + 1j * 2.0 * OM1,    # kept
            -4.0 + 0j,                # kept
            -5.0 + 1j * 3.4 * OM1,    # kept (below the band)
        ])
        kept = interior_modes(eigs, OM1, 4)
        assert np.allclose(np.sort_complex(kept),
                           np.sort_complex(eigs[2:]))

    def test_all_edge_set_returned_unchanged(self):
        eigs = np.array([1.0 + 1j * 4.0 * OM1, 1.0 - 1j * 4.0 * OM1])
        assert np.array_equal(interior_modes(eigs, OM1, 4), eigs)

    def test_invalid_arguments(self):
        eigs = np.array([0j])
        with pytest.raises(UsageError):
            interior_modes(eigs, 0.0, 4)
        with pytest.raises(UsageError):
            interior_modes(eigs, OM1, 0)

    def test_case1_copies_shift_with_fundamental(self, case1_unbalanced):
        # genuine modes appear as a ladder of j*om1-shifted copies; every
        # interior mode well inside the truncation must have its +om1
        # neighbor present too
        _, result = case1_unbalanced
        eigs = hss_eigenvalues(result.hss)
        inner = interior_modes(eigs, OM1, 4)
        sel = inner[np.abs(inner.imag) < 2.5 * OM1]
        assert sel.size >= 20
        for lam in sel:
            assert np.min(np.abs(eigs - (lam + 1j * OM1))) < 0.5


class TestClassification:
    def test_signs(self):
        def verdict(weakest):
            return ModeSet(np.array([weakest]), weakest).classification

        assert verdict(complex(-3.0, 5.0)) == "Stable"
        assert verdict(complex(0.065, 900.0)) == "Unstable"
        assert verdict(complex(0.0, 0.0)) == "Stable"

    def test_mode_set_consistent(self, case2_default):
        _, result = case2_default
        modes = mode_set(result.hss)
        assert modes.weakest == weakest_mode(
            interior_modes(hss_eigenvalues(result.hss), OM1, 4))
        assert modes.classification == "Stable"

    def test_mode_set_drops_truncation_edge(self):
        # at this point the largest real part of the whole spectrum belongs
        # to a +7e-7 artifact at |Im| = N·ω₁; mode_set must not report it
        model = build_case2({"alpha_c": 170.0, "k_sym_g": 2.8})["closed_loop"]
        hss = solve_pss(model).hss
        raw = weakest_mode(hss.eigenvalues)
        assert raw.real > 0.0
        assert abs(abs(raw.imag) / OM1 - 4.0) < 0.5
        modes = mode_set(hss)
        assert abs(modes.weakest.imag) / OM1 < 3.5
        assert modes.classification == "Stable"


class TestHarmonicTransferFunction:
    def test_lti_blocks_are_shifted_resolvents(self):
        a = np.array([[-30.0, 10.0], [0.0, -80.0]], dtype=complex)
        hss = lti_hss(a, n_harmonics=2)
        s = 2j * np.pi * 12.0
        h = harmonic_transfer_function(hss, s)
        eye = np.eye(2)
        for k in range(-2, 3):
            got = htf_block(h, k, k, hss)
            expect = np.linalg.inv((s + 1j * k * OM1) * eye - a)
            assert np.max(np.abs(got - expect)) < 1e-10
        for k in range(-2, 3):
            for l in range(-2, 3):
                if k != l:
                    assert np.max(np.abs(htf_block(h, k, l, hss))) < 1e-12

    def test_static_feedthrough_only(self):
        hss = lti_hss([[-1.0]], n_harmonics=2,
                      b=np.zeros((1, 1)), d=np.array([[3.5]]))
        h = harmonic_transfer_function(hss, 2j * np.pi * 7.0)
        for k in range(-2, 3):
            assert htf_block(h, k, k, hss)[0, 0] == pytest.approx(3.5)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-14

    def test_singular_at_eigenvalue(self):
        hss = lti_hss([[2j * np.pi * 37.0]], n_harmonics=2)
        with pytest.raises(SingularAtFrequency):
            harmonic_transfer_function(hss, 2j * np.pi * 37.0)


class TestFrequencyScan:
    def test_lti_mirrors_identically_zero(self):
        a = np.array([[-30.0, 10.0], [0.0, -80.0]], dtype=complex)
        hss = lti_hss(a, n_harmonics=2)
        scan = frequency_scan(hss, [3.0, 11.0, 90.0], output_index=0, input_index=1)
        assert not scan.singular.any()
        assert np.max(np.abs(scan.mirror_plus)) < 1e-13
        assert np.max(np.abs(scan.mirror_minus)) < 1e-13
        assert np.max(np.abs(scan.diag)) > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_frequency_flagged_not_fatal(self):
        hss = lti_hss([[2j * np.pi * 37.0]], n_harmonics=2)
        scan = frequency_scan(hss, [36.0, 37.0, 38.0], output_index=0, input_index=0)
        assert list(scan.singular) == [False, True, False]
        assert np.isnan(scan.diag[1].real)
        assert np.isfinite(scan.diag[0]) and np.isfinite(scan.diag[2])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_real_form_singular_frequency_flagged(self):
        # the poles ±jw of a real rotation sit in 2×2 blocks of the real
        # Schur form; the guard reads them from there
        w = 2.0 * np.pi * 37.0
        hss = lti_hss([[0.0, w], [-w, 0.0]], n_harmonics=2)
        assert hss.real_form
        scan = frequency_scan(hss, [36.0, 37.0, 38.0], output_index=0, input_index=0)
        assert list(scan.singular) == [False, True, False]
        assert np.isnan(scan.diag[1].real)
        assert np.isfinite(scan.diag[0]) and np.isfinite(scan.diag[2])

    @pytest.mark.parametrize("builder", [build_case1, build_case2])
    def test_one_real_schur_and_no_eigen_solve(self, builder, monkeypatch):
        # one real Schur form per block that the input column touches, and
        # none for the blocks it does not reach
        hss = solve_pss(builder()["open_loop"]).hss
        b = np.abs(hss.b_full[:, hss.n_harmonics * hss.model.n_inputs])
        touched = sorted(block.size for block in hss.blocks
                         if np.max(b[block]) > REAL_FORM_TOL * np.max(b))
        assert 0 < sum(touched) < hss.stability_matrix().shape[0]
        schur_dtypes, sizes, eig_calls = [], [], []
        schur, eigvals = _lapack.schur, _lapack.eigvals

        def counted_schur(a, *args, **kwargs):
            tri, q = schur(a, *args, **kwargs)
            schur_dtypes.append((np.asarray(a).dtype, tri.dtype, q.dtype))
            sizes.append(a.shape[0])
            return tri, q

        def counted_eigvals(*args, **kwargs):
            eig_calls.append(1)
            return eigvals(*args, **kwargs)

        monkeypatch.setattr(_lapack, "schur", counted_schur)
        monkeypatch.setattr(_lapack, "eigvals", counted_eigvals)
        assert hss.real_form
        assert eig_calls == []
        scan = frequency_scan(hss, np.geomspace(1.0, 2500.0, 50),
                              output_index=0, input_index=0)
        assert not scan.singular.any()
        assert schur_dtypes == [(np.float64, np.float64, np.float64)] * len(touched)
        assert sorted(sizes) == touched
        assert eig_calls == []

    @pytest.mark.parametrize("builder", [build_case1, build_case2])
    def test_matches_full_matrix_htf(self, builder):
        params = {"u_gbeta_mag": 0.75, "k_sym_c": 1.4}
        hss = solve_pss(builder(params)["open_loop"]).hss
        freqs = np.geomspace(1.0, 2500.0, 20)
        col_base = hss.n_harmonics * hss.model.n_inputs
        full = [harmonic_transfer_function(hss, 2j * np.pi * f) for f in freqs]
        for output_index, input_index in [(0, 0), (1, 0)]:
            scan = frequency_scan(hss, freqs, output_index=output_index,
                                  input_index=input_index)
            assert not scan.singular.any()
            col = col_base + input_index
            for idx, h in enumerate(full):
                expect = [htf_block(h, k, 0, hss)[output_index, input_index]
                          for k in (0, +2, -2)]
                got = [scan.diag[idx], scan.mirror_plus[idx], scan.mirror_minus[idx]]
                scale = 1.0 + np.max(np.abs(h[:, col]))
                assert np.max(np.abs(np.subtract(got, expect))) <= 1e-9 * scale

    def test_index_validation(self):
        hss = lti_hss([[-1.0]], n_harmonics=2)
        with pytest.raises(UsageError):
            frequency_scan(hss, [10.0], output_index=5, input_index=0)
        with pytest.raises(UsageError):
            frequency_scan(hss, [10.0, np.nan], output_index=0, input_index=0)
        with pytest.raises(UsageError):
            frequency_scan(lti_hss([[-1.0]], n_harmonics=1), [10.0],
                           output_index=0, input_index=0)

    def test_indices_are_required_keywords(self):
        # the CLI's analysis config holds the one default of each index
        hss = lti_hss([[-1.0]], n_harmonics=2)
        with pytest.raises(TypeError):
            frequency_scan(hss, [10.0])
        with pytest.raises(TypeError):
            frequency_scan(hss, [10.0], 0, 0)

    def test_case1_mirror_coupling_from_pll(self):
        # balanced operation: the same-sector scan shows no frequency
        # coupling, while the conjugate-sector entry carries a strong
        # 2*om1-offset term that collapses when the PLL is slowed to a crawl
        freqs = [10.0, 35.0, 85.0, 130.0]
        active = solve_pss(build_case1()["open_loop"]).hss
        frozen = solve_pss(build_case1({"alpha_pll": 0.01})["open_loop"]).hss

        same = frequency_scan(active, freqs, output_index=0, input_index=0)
        assert np.max(np.abs(same.mirror_plus)) < 1e-10
        assert np.max(np.abs(same.mirror_minus)) < 1e-10
        assert np.min(np.abs(same.diag)) > 0.1

        cross_act = frequency_scan(active, freqs, output_index=1, input_index=0)
        cross_frz = frequency_scan(frozen, freqs, output_index=1, input_index=0)
        act = np.max(np.abs(cross_act.mirror_minus))
        frz = np.max(np.abs(cross_frz.mirror_minus))
        assert act > 0.1
        assert frz < 0.01 * act

    def test_case1_hundred_hertz_offset_entries(self):
        # single-point look at the full operator: probing 10 Hz couples into
        # the conjugate response 100 Hz away on both sides
        hss = solve_pss(build_case1()["open_loop"]).hss
        h = harmonic_transfer_function(hss, 2j * np.pi * 10.0)
        assert abs(htf_block(h, -2, 0, hss)[1, 0]) > 0.1
        assert abs(htf_block(h, +2, 0, hss)[0, 1]) > 0.1
        assert abs(htf_block(h, -2, 0, hss)[0, 0]) < 1e-10


def touched_blocks(hss):
    """The similar forms W_b of the blocks that the scan's l = 0 input column
    touches, as :func:`frequency_scan` selects them."""
    b = np.abs(hss.b_full[:, hss.n_harmonics * hss.model.n_inputs])
    return [w_b for block, _, w_b in hss._similar[0]
            if np.max(b[block]) > REAL_FORM_TOL * np.max(b)]


class TestTriangularSchur:
    @pytest.fixture(scope="class")
    def matrices(self):
        hss = solve_pss(build_case2({"u_gbeta_mag": 0.7})["open_loop"]).hss
        assert hss.real_form
        return [np.random.default_rng(31).standard_normal((40, 40))] + touched_blocks(hss)

    def test_rotation_gives_triangular_schur_pair(self, matrices):
        pairs = []
        for w in matrices:
            real_tri, real_q = _lapack.schur(w)
            first = np.flatnonzero(np.diag(real_tri, -1))
            pairs.append(first.size)
            tri, q = _triangular_schur(real_tri, real_q)
            scale = np.max(np.abs(w))
            assert not np.tril(tri, -1).any()
            assert np.max(np.abs(q.conj().T @ q - np.eye(len(w)))) <= 1e-13
            assert np.max(np.abs(q @ tri @ q.conj().T - w)) <= 1e-13 * scale
            # each standardized 2×2 block [[a, b], [c, a]] holds a ± i√(−bc)
            a, b, c = (real_tri[first, first], real_tri[first, first + 1],
                       real_tri[first + 1, first])
            assert np.array_equal(a, real_tri[first + 1, first + 1])
            poles = np.diag(real_tri).astype(complex)
            poles[first], poles[first + 1] = a + 1j * np.sqrt(-b * c), a - 1j * np.sqrt(-b * c)
            assert np.max(np.abs(np.diag(tri) - poles)) <= 1e-14 * scale
            alone = np.setdiff1d(np.arange(len(w)), np.concatenate((first, first + 1)))
            assert np.array_equal(np.diag(tri)[alone], np.diag(real_tri)[alone])
        assert pairs[0] >= 5 and sum(pairs[1:]) >= 5

    def test_complex_schur_pair_kept(self):
        w = np.random.default_rng(31).standard_normal((6, 6)) * (1.0 + 1j)
        tri, q = _lapack.schur(w)
        kept = _triangular_schur(tri, q)
        assert kept[0] is tri and kept[1] is q


@st.composite
def stable_lti_scans(draw, real=False):
    """Random stable LTI system (real ``a`` when ``real``), truncation order,
    index pair and probes."""
    n = draw(st.integers(1, 4))
    parts = st.floats(-100.0, 100.0, allow_nan=False)
    a = np.array(draw(st.lists(parts, min_size=n * n, max_size=n * n)))
    if not real:
        a = a + 1j * np.array(draw(st.lists(parts, min_size=n * n, max_size=n * n)))
    a = a.reshape(n, n)
    # shift the spectrum left of Re = -margin: every probe j2πf on the
    # imaginary axis then stays at least margin away from each HSS eigenvalue
    margin = draw(st.floats(1.0, 50.0))
    a -= (np.max(np.linalg.eigvals(a).real) + margin) * np.eye(n)
    freqs = draw(st.lists(st.floats(-3000.0, 3000.0), min_size=1, max_size=8))
    return (a, draw(st.integers(2, 3)), draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)), freqs)


def assert_scan_is_resolvent_entry(hss, a, output_index, input_index, freqs):
    scan = frequency_scan(hss, freqs, output_index=output_index,
                          input_index=input_index)
    assert not scan.singular.any()
    expect = np.array([
        np.linalg.inv(2j * np.pi * f * np.eye(a.shape[0]) - a)[output_index,
                                                              input_index]
        for f in freqs])
    scale = 1.0 + np.max(np.abs(expect))
    assert np.max(np.abs(scan.diag - expect)) <= 1e-9 * scale
    assert np.max(np.abs(scan.mirror_plus)) <= 1e-9 * scale
    assert np.max(np.abs(scan.mirror_minus)) <= 1e-9 * scale


class TestScanProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(stable_lti_scans())
    def test_lti_scan_is_resolvent_entry(self, case):
        a, n_harmonics, output_index, input_index, freqs = case
        assert_scan_is_resolvent_entry(lti_hss(a, n_harmonics=n_harmonics),
                                       a, output_index, input_index, freqs)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(stable_lti_scans(real=True))
    def test_real_lti_scan_is_resolvent_entry(self, case):
        # a real model passes the real-form gate: the scan back-substitutes
        # on the real Schur form rotated to triangular, 2×2 blocks included
        a, n_harmonics, output_index, input_index, freqs = case
        hss = lti_hss(a, n_harmonics=n_harmonics)
        assert hss.real_form
        assert_scan_is_resolvent_entry(hss, a, output_index, input_index, freqs)


def _counted(model, counts):
    """Copy of ``model`` whose Jacobian callables count their calls."""
    def wrap(name):
        fn = getattr(model, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    names = ("jac_state", "jac_input", "out_jac_state", "out_jac_input")
    return dataclasses.replace(model, **{name: wrap(name) for name in names})


class TestLazyOperators:
    def test_stability_reads_no_input_or_output_operator(self):
        def unused(*args):
            raise AssertionError("stability analysis read an input/output operator")

        model = dataclasses.replace(
            build_case1()["closed_loop"], jac_input=unused, out_jac_state=unused,
            out_jac_input=unused, output=unused)
        modes = mode_set(solve_pss(model).hss)
        assert modes.classification == "Stable"
        assert modes.eigenvalues.size == 54

    def test_scan_builds_each_operator_once(self, monkeypatch):
        counts = Counter()
        model = _counted(build_case1()["open_loop"], counts)
        hss = solve_pss(model).hss
        counts.clear()
        full_calls = Counter()
        # the HSS drops each operator once its dense form is built; holding
        # them here keeps two operators from sharing an id
        seen = []
        full = BlockToeplitz.full

        def counted_full(op):
            seen.append(op)
            full_calls[id(op)] += 1
            return full(op)

        monkeypatch.setattr(BlockToeplitz, "full", counted_full)
        scan = frequency_scan(hss, np.geomspace(1.0, 2500.0, 50),
                              output_index=0, input_index=0)
        assert not scan.singular.any()
        assert counts == {"jac_state": 1, "jac_input": 1,
                          "out_jac_state": 1, "out_jac_input": 1}
        assert len(full_calls) == 4
        assert set(full_calls.values()) == {1}
