"""Fourier-coefficient machinery on the uniform one-period grid.

Signals live on a fixed sampling grid of M points covering one fundamental
period T.  A truncated spectrum of an n-state signal is a complex (2N+1, n)
array whose row k+N holds harmonic k, k = -N..N.  Time-periodic matrices are
expanded to order 2N for the block-Toeplitz operator so that products with
the state band stay exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

# 250 times the default 400 samples per period, where a case-2 eig peaks at
# 0.42 GB RSS, 0.18 GB of it one Jacobian's jet pass (no (M, n, n) array)
MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class HarmonicGrid:
    """Uniform sampling of one fundamental period.

    Parameters
    ----------
    period : fundamental period T in seconds.
    step : sample spacing h in seconds; T/h must be an integer.
    """

    period: float
    step: float
    n_samples: int = field(init=False)

    def __post_init__(self):
        if not (self.period > 0 and self.step > 0):  # NaN fails it
            raise UsageError("period and step must be positive")
        ratio = self.period / self.step
        if not ratio <= MAX_SAMPLES:  # NaN fails it, an overflowed inf exceeds it
            raise UsageError(f"period/step = {ratio!r} samples exceed the limit "
                             f"of {MAX_SAMPLES}")
        m = round(ratio)
        if m < 2 or abs(ratio - m) > 1e-9 * ratio:
            raise UsageError(
                f"period/step = {ratio!r} is not an integer sample count"
            )
        object.__setattr__(self, "n_samples", m)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.step


def min_samples(order: int) -> int:
    """Samples per period that resolve harmonics to ``order`` K: M ≥ 2(2K+1)."""
    return 2 * (2 * order + 1)


@functools.lru_cache(maxsize=16)
def _phase_matrix(n_harmonics: int, m_samples: int, sign: float) -> np.ndarray:
    """DFT matrix exp(sign·2πi·k·m/M), k = -N..N by m = 0..M-1, read-only.

    Cached because every transform of a solve, sweep or scan reuses the same
    few (N, M) grids.
    """
    ks = np.arange(-n_harmonics, n_harmonics + 1)
    m = np.arange(m_samples)
    phase = np.exp(sign * 2j * np.pi * np.outer(ks, m) / m_samples)
    phase.flags.writeable = False
    return phase


def samples_to_spectrum(samples: np.ndarray, n_harmonics: int) -> np.ndarray:
    """Fourier coefficients k = -N..N of one-period samples.

    ``samples`` has the time axis first: (M,), (M, n) or (M, n, n).  Returns
    the matching array with the time axis replaced by 2N+1 harmonics, ordered
    -N..N.
    """
    samples = np.asarray(samples, dtype=complex)
    m = samples.shape[0]
    if m < min_samples(n_harmonics):
        raise UsageError(
            f"{m} samples cannot resolve harmonics to order {n_harmonics} cleanly"
        )
    ph = _phase_matrix(n_harmonics, m, -1.0)
    flat = samples.reshape(m, -1)
    coeffs = (ph @ flat) / m
    return coeffs.reshape((2 * n_harmonics + 1,) + samples.shape[1:])


def spectrum_to_samples(coeffs: np.ndarray, m_samples: int) -> np.ndarray:
    """Evaluate the truncated Fourier series on the uniform M-point grid."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n_harmonics = (coeffs.shape[0] - 1) // 2
    if coeffs.shape[0] != 2 * n_harmonics + 1:
        raise UsageError("first axis must have odd length 2N+1")
    ph = _phase_matrix(n_harmonics, m_samples, +1.0).T  # (M, 2N+1)
    flat = coeffs.reshape(coeffs.shape[0], -1)
    out = ph @ flat
    return out.reshape((m_samples,) + coeffs.shape[1:])


@dataclass
class BlockToeplitz:
    """Block-Toeplitz operator built from matrix harmonics.

    ``blocks[m + 2N]`` is the coefficient at harmonic m (m = -2N..2N) of a
    time-periodic matrix; block (row k, col l) of the assembled operator is
    the harmonic k - l.
    """

    blocks: np.ndarray  # (4N+1, r, c) complex
    n_harmonics: int

    @property
    def block_shape(self):
        return self.blocks.shape[1], self.blocks.shape[2]

    def full(self) -> np.ndarray:
        n = self.n_harmonics
        r, c = self.block_shape
        dim = 2 * n + 1
        # one copy of a view whose element (row, i, col, j) is blocks[row - col + 2N, i, j]
        s0, s1, s2 = self.blocks.strides
        lagged = np.lib.stride_tricks.as_strided(
            self.blocks[2 * n], (dim, r, dim, c), (s0, s1, -s0, s2), writeable=False)
        return np.array(lagged, dtype=complex, order="C").reshape(dim * r, dim * c)


def _matrix_spectrum(matrix_samples, order: int) -> np.ndarray:
    matrix_samples = np.asarray(matrix_samples, dtype=complex)
    if matrix_samples.ndim != 3:
        raise UsageError("matrix samples must be (M, rows, cols)")
    return samples_to_spectrum(matrix_samples, order)


def build_toeplitz(matrix_samples: np.ndarray, n_harmonics: int) -> BlockToeplitz:
    """Block-Toeplitz operator of a sampled time-periodic matrix.

    ``matrix_samples`` is (M, r, c); matrix harmonics are taken to order 2N.
    """
    return BlockToeplitz(_matrix_spectrum(matrix_samples, 2 * n_harmonics), n_harmonics)


def jacobian_harmonics(jacobian, times, states, inputs, order: int) -> np.ndarray:
    """(2K+1, r, c) harmonics to ``order`` K of a Jacobian callable along the
    one-period samples (t, x(t), u(t)).

    A callable with a ``harmonics(t, x, u, order)`` attribute (the jets'
    Jacobians, :func:`ltpkit.jet.jacobians`) gives them itself, from its
    nonzero entries alone; any other is sampled as (M, r, c) and transformed.
    Both refuse a grid too coarse for ``order`` (:func:`min_samples`).
    """
    harmonics = getattr(jacobian, "harmonics", None)
    if harmonics is not None:
        return harmonics(times, states, inputs, order)
    return _matrix_spectrum(jacobian(times, states, inputs), order)


def build_nblk(n_states: int, n_harmonics: int, omega1: float) -> np.ndarray:
    """Diagonal of the frequency-shift operator N_blk: jkω₁ for each of the
    n states of harmonic k, k = -N..N, laid out like ``spectrum.reshape(-1)``
    of a (2N+1, n) spectrum.
    """
    ks = np.arange(-n_harmonics, n_harmonics + 1)
    return np.repeat(1j * ks * omega1, n_states)
