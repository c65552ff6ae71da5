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
        if self.period <= 0 or self.step <= 0:
            raise UsageError("period and step must be positive")
        ratio = self.period / self.step
        m = round(ratio)
        if m < 2 or abs(ratio - m) > 1e-9 * ratio:
            raise UsageError(
                f"period/step = {ratio!r} is not an integer sample count"
            )
        object.__setattr__(self, "n_samples", m)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.step


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
    if m < 2 * (2 * n_harmonics + 1):
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
        out = np.empty((dim * r, dim * c), dtype=complex)
        for row in range(dim):
            for col in range(dim):
                out[row * r:(row + 1) * r, col * c:(col + 1) * c] = \
                    self.blocks[(row - col) + 2 * n]
        return out


def build_toeplitz(matrix_samples: np.ndarray, n_harmonics: int) -> BlockToeplitz:
    """Block-Toeplitz operator of a sampled time-periodic matrix.

    ``matrix_samples`` is (M, r, c); matrix harmonics are taken to order 2N.
    """
    matrix_samples = np.asarray(matrix_samples, dtype=complex)
    if matrix_samples.ndim != 3:
        raise UsageError("matrix samples must be (M, rows, cols)")
    blocks = samples_to_spectrum(matrix_samples, 2 * n_harmonics)
    return BlockToeplitz(blocks, n_harmonics)


def build_nblk(n_states: int, n_harmonics: int, omega1: float) -> np.ndarray:
    """Diagonal of the frequency-shift operator N_blk: jkω₁ for each of the
    n states of harmonic k, k = -N..N, laid out like ``spectrum.reshape(-1)``
    of a (2N+1, n) spectrum.
    """
    ks = np.arange(-n_harmonics, n_harmonics + 1)
    return np.repeat(1j * ks * omega1, n_states)
