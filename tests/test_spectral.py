"""Fourier-grid machinery: DFT truncation, block-Toeplitz, shift operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conjugate_defect
from ltpkit import (
    BlockToeplitz,
    HarmonicGrid,
    UsageError,
    build_nblk,
    build_toeplitz,
    samples_to_spectrum,
    linear_model,
    spectrum_to_samples,
)
from ltpkit.spectral import _phase_matrix

T = 0.02
OM1 = 2.0 * np.pi / T


def grid():
    return HarmonicGrid(T, 50e-6)


class TestHarmonicGrid:
    def test_sample_count_and_times(self):
        g = grid()
        assert g.n_samples == 400
        # the grid spans one period of a model whose fundamental is ω₁
        model = linear_model(np.array([[-1.0]], dtype=complex), omega1=OM1)
        assert g.n_samples * g.step == pytest.approx(model.period)
        assert model.omega1 == pytest.approx(OM1)
        t = g.times
        assert t.shape == (400,)
        assert t[0] == 0.0
        assert np.allclose(np.diff(t), 50e-6)

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(UsageError):
            HarmonicGrid(T, 5.3e-5)

    def test_non_positive_rejected(self):
        with pytest.raises(UsageError):
            HarmonicGrid(-T, 50e-6)
        with pytest.raises(UsageError):
            HarmonicGrid(T, 0.0)


class TestSamplesToSpectrum:
    def test_constant_is_dc_only(self):
        x = np.full(400, 2.5 - 1j)
        c = samples_to_spectrum(x, 4)
        assert c[4] == pytest.approx(2.5 - 1j)
        others = np.delete(c, 4)
        assert np.max(np.abs(others)) < 1e-14

    def test_cosine_splits_half_half(self):
        t = grid().times
        c = samples_to_spectrum(np.cos(OM1 * t), 4)
        assert c[4 + 1] == pytest.approx(0.5)
        assert c[4 - 1] == pytest.approx(0.5)

    def test_single_positive_harmonic(self):
        t = grid().times
        c = samples_to_spectrum(np.exp(2j * OM1 * t), 4)
        assert c[4 + 2] == pytest.approx(1.0)
        mask = np.ones(9, dtype=bool)
        mask[4 + 2] = False
        assert np.max(np.abs(c[mask])) < 1e-13

    def test_too_few_samples_rejected(self):
        with pytest.raises(UsageError):
            samples_to_spectrum(np.zeros(17), 4)


class TestRoundTrip:
    def test_band_limited_round_trip(self, rng):
        n = 4
        coeffs = rng.standard_normal((2 * n + 1, 3)) + 1j * rng.standard_normal((2 * n + 1, 3))
        x = spectrum_to_samples(coeffs, 400)
        back = samples_to_spectrum(x, n)
        assert np.max(np.abs(back - coeffs)) < 1e-12

    def test_dc_one_gives_constant(self):
        coeffs = np.zeros((9, 1), dtype=complex)
        coeffs[4, 0] = 1.0
        x = spectrum_to_samples(coeffs, 400)
        assert np.max(np.abs(x - 1.0)) < 1e-13

    def test_truncation_drops_out_of_band_energy(self):
        t = grid().times
        x = np.exp(1j * 5 * OM1 * t)  # harmonic N+1 for N=4
        back = spectrum_to_samples(samples_to_spectrum(x, 4), 400)
        assert np.max(np.abs(back)) < 1e-12


@st.composite
def band_limited_spectra(draw):
    """Random spectrum of order N = 1..6 in one of the three transform
    layouts, plus a sample count M >= 2(2N+1)."""
    n_harmonics = draw(st.integers(1, 6))
    m_samples = draw(st.integers(2 * (2 * n_harmonics + 1), 120))
    n = draw(st.integers(1, 3))
    tail = draw(st.sampled_from([(), (n,), (n, n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2 * n_harmonics + 1,) + tail
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return coeffs, n_harmonics, m_samples


class TestTransformProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(band_limited_spectra())
    def test_round_trip_recovers_spectrum(self, case):
        coeffs, n_harmonics, m_samples = case
        samples = spectrum_to_samples(coeffs, m_samples)
        assert samples.shape == (m_samples,) + coeffs.shape[1:]
        back = samples_to_spectrum(samples, n_harmonics)
        assert back.shape == coeffs.shape
        assert np.max(np.abs(back - coeffs)) <= 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(2, 400), st.sampled_from([-1.0, 1.0]))
    def test_phase_matrix_cache_is_exact_and_read_only(self, n_harmonics,
                                                       m_samples, sign):
        phase = _phase_matrix(n_harmonics, m_samples, sign)
        ks = np.arange(-n_harmonics, n_harmonics + 1)
        fresh = np.exp(sign * 2j * np.pi * np.outer(ks, np.arange(m_samples))
                       / m_samples)
        assert np.array_equal(phase, fresh)
        assert not phase.flags.writeable
        assert _phase_matrix(n_harmonics, m_samples, sign) is phase
        with pytest.raises(ValueError):
            phase[0, 0] = 0.0


class TestConjugateDefect:
    def test_measures_broken_pair(self):
        # states (0, 1) conjugate-paired: X_k[1] = conj(X_{-k}[0])
        coeffs = np.zeros((9, 2), dtype=complex)
        coeffs[4 + 1, 0] = 1.0 + 2.0j
        coeffs[4 - 1, 1] = 1.0 - 2.0j
        assert conjugate_defect(coeffs, ((0, 1),)) < 1e-15
        coeffs[4 - 1, 1] += 0.25
        assert conjugate_defect(coeffs, ((0, 1),)) == pytest.approx(0.25)


def block(tp, k, l):
    """Block (k, l), harmonic indices -N..N, of the assembled operator."""
    r, c = tp.block_shape
    row, col = (k + tp.n_harmonics) * r, (l + tp.n_harmonics) * c
    return tp.full()[row:row + r, col:col + c]


class TestBlockToeplitz:
    def test_constant_matrix_block_diagonal(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        samples = np.broadcast_to(m, (400, 2, 2))
        tp = build_toeplitz(samples, 4)
        for k in range(-4, 5):
            assert np.allclose(block(tp, k, k), m, atol=1e-13)
        assert np.max(np.abs(block(tp, 1, 0))) < 1e-13

    def test_single_harmonic_lands_on_subdiagonal(self):
        t = grid().times
        m = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        samples = np.exp(1j * OM1 * t)[:, None, None] * m
        tp = build_toeplitz(samples, 4)
        assert np.allclose(block(tp, 1, 0), m, atol=1e-13)   # harmonic +1
        assert np.max(np.abs(block(tp, 0, 1))) < 1e-13
        assert np.max(np.abs(block(tp, 0, 0))) < 1e-13

    def test_block_pattern_constant_along_diagonals(self, rng):
        samples = rng.standard_normal((400, 2, 2)) + 1j * rng.standard_normal((400, 2, 2))
        tp = build_toeplitz(samples, 2)
        assert np.array_equal(block(tp, 2, 1), block(tp, 1, 0))
        assert np.array_equal(block(tp, -1, 1), block(tp, 0, 2))

    def test_full_assembles_square(self, rng):
        samples = rng.standard_normal((400, 3, 2)) + 0j
        tp = build_toeplitz(samples, 4)
        assert tp.full().shape == (9 * 3, 9 * 2)

    def test_convolution_property(self, rng):
        # Toeplitz(A) @ X equals the spectrum of the time product A(t)x(t)
        # for band-limited x — the frequency-domain product rule.
        n = 4
        t = grid().times
        a_h = {0: rng.standard_normal((2, 2)), 1: rng.standard_normal((2, 2)),
               -2: rng.standard_normal((2, 2))}
        samples = np.zeros((400, 2, 2), dtype=complex)
        for k, mat in a_h.items():
            samples += np.exp(1j * k * OM1 * t)[:, None, None] * mat
        coeffs = np.zeros((2 * n + 1, 2), dtype=complex)
        coeffs[n - 2:n + 3] = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        x_t = spectrum_to_samples(coeffs, 400)
        prod_t = np.einsum("mij,mj->mi", samples, x_t)
        direct = samples_to_spectrum(prod_t, n)
        tp = build_toeplitz(samples, n)
        via_toeplitz = (tp.full() @ coeffs.reshape(-1)).reshape(2 * n + 1, 2)
        assert np.max(np.abs(via_toeplitz - direct)) < 1e-10


class TestNblk:
    def test_minimal_case(self):
        d = build_nblk(1, 1, OM1)
        assert np.allclose(d, [-1j * OM1, 0.0, 1j * OM1])

    def test_dimensions_match_benchmarks(self):
        assert build_nblk(6, 4, OM1).shape == (54,)
        assert build_nblk(18, 4, OM1).shape == (162,)

    def test_purely_imaginary_multiples(self):
        d = build_nblk(3, 2, OM1)
        assert np.max(np.abs(d.real)) == 0.0
        ratios = d.imag / OM1
        assert np.allclose(ratios, np.round(ratios), atol=1e-12)

    def test_harmonic_major_layout(self):
        # entry (k+N)*n + i belongs to harmonic k, as in spectrum.reshape(-1)
        d = build_nblk(3, 2, OM1)
        assert np.allclose(d.reshape(5, 3).imag / OM1,
                           np.repeat(np.arange(-2, 3), 3).reshape(5, 3), atol=1e-12)
