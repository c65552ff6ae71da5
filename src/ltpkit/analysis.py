"""Harmonic state-space assembly, eigenvalue stability, transfer functions.

The linearization of a periodic trajectory yields time-periodic (A, B, C, D);
their block-Toeplitz expansions together with the frequency-shift operator
N_blk form the harmonic state-space.  Small-signal stability is read off the
spectrum of (A_toeplitz - N_blk); the harmonic transfer function maps
exponentially modulated periodic inputs to outputs including the
frequency-coupling (mirror) terms at multiples of the fundamental.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import SingularAtFrequency, UsageError
from .model import SystemModel
from .spectral import BlockToeplitz, build_nblk, build_toeplitz


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


@dataclass(eq=False)
class HssMatrices:
    """Harmonic state-space of a periodic orbit.

    Holds the orbit samples (t, x(t), u(t)) on the one-period grid and the
    model.  Each block-Toeplitz operator and each dense form is built on first
    read, at most once per object; the dense forms are read-only.
    """

    model: SystemModel
    times: np.ndarray
    states: np.ndarray   # (M, n)
    inputs: np.ndarray   # (M, m)
    n_harmonics: int
    omega1: float

    @property
    def n_states(self) -> int:
        return self.model.n_states

    @property
    def n_inputs(self) -> int:
        return self.model.n_inputs

    @property
    def n_outputs(self) -> int:
        return self.model.n_outputs

    @property
    def dim(self) -> int:
        return (2 * self.n_harmonics + 1) * self.n_states

    def _toeplitz(self, jacobian) -> BlockToeplitz:
        return build_toeplitz(jacobian(self.times, self.states, self.inputs),
                              self.n_harmonics)

    @cached_property
    def a_op(self) -> BlockToeplitz:
        return self._toeplitz(self.model.jac_state)

    @cached_property
    def b_op(self) -> BlockToeplitz:
        return self._toeplitz(self.model.jac_input)

    @cached_property
    def c_op(self) -> BlockToeplitz:
        return self._toeplitz(self.model.out_jac_state)

    @cached_property
    def d_op(self) -> BlockToeplitz:
        return self._toeplitz(self.model.out_jac_input)

    @cached_property
    def nblk(self) -> np.ndarray:
        """Diagonal of N_blk (see :func:`ltpkit.spectral.build_nblk`)."""
        return build_nblk(self.n_states, self.n_harmonics, self.omega1)

    @cached_property
    def _stability(self) -> np.ndarray:
        lhs = self.a_op.full()
        idx = np.arange(lhs.shape[0])
        lhs[idx, idx] -= self.nblk
        return _read_only(lhs)

    @cached_property
    def b_full(self) -> np.ndarray:
        return _read_only(self.b_op.full())

    @cached_property
    def c_full(self) -> np.ndarray:
        return _read_only(self.c_op.full())

    @cached_property
    def d_full(self) -> np.ndarray:
        return _read_only(self.d_op.full())

    def stability_matrix(self) -> np.ndarray:
        """A_toeplitz - N_blk, whose eigenvalues decide small-signal stability."""
        return self._stability


@dataclass
class ModeSet:
    """HSS eigenvalues with the dominant (weakest-damped) mode singled out."""

    eigenvalues: np.ndarray
    weakest: complex
    classification: str
    marginal_band: float = 0.0


def hss_eigenvalues(hss: HssMatrices) -> np.ndarray:
    """All eigenvalues of the HSS dynamics, sorted by descending real part."""
    eigs = scipy.linalg.eigvals(hss.stability_matrix())
    order = np.lexsort((eigs.imag, -eigs.real))
    return eigs[order]


def interior_modes(eigenvalues: np.ndarray, omega1: float,
                   n_harmonics: int) -> np.ndarray:
    """Eigenvalues with the outermost harmonic band removed.

    The truncated spectrum holds jω₁-shifted copies of each true mode.
    Copies are accurate in the interior, but truncation pins spurious
    eigenvalues to the outermost represented band (|Im| within half a
    harmonic of N·ω₁ — they sit there for every N, unlike genuine modes,
    whose copies shift with N).  Every true family keeps at least one
    interior representative with the same real part, so dropping the edge
    band removes the artifacts without hiding any genuine dynamics.
    """
    eigenvalues = np.asarray(eigenvalues)
    if omega1 <= 0:
        raise UsageError("omega1 must be positive")
    if n_harmonics < 1:
        raise UsageError("n_harmonics must be at least 1")
    lo = (n_harmonics - 0.5) * omega1 * (1.0 - 1e-9)
    hi = (n_harmonics + 0.5) * omega1 * (1.0 + 1e-9)
    a = np.abs(eigenvalues.imag)
    kept = eigenvalues[(a < lo) | (a > hi)]
    return kept if kept.size else eigenvalues


def weakest_mode(eigenvalues: np.ndarray, omega1: float | None = None,
                 n_harmonics: int | None = None) -> complex:
    """Mode with the largest real part.

    With ``omega1`` and ``n_harmonics`` given, the outermost harmonic band
    is excluded (see :func:`interior_modes`) so truncation-edge artifacts
    cannot masquerade as the weakest mode.  Ties (within relative 1e-9)
    break toward the smallest |Im|, then toward nonnegative Im.
    """
    eigenvalues = np.asarray(eigenvalues)
    if eigenvalues.size == 0:
        raise UsageError("empty eigenvalue set")
    if omega1 is not None and n_harmonics is not None:
        eigenvalues = interior_modes(eigenvalues, omega1, n_harmonics)
    re_max = float(np.max(eigenvalues.real))
    tol = 1e-9 * (1.0 + abs(re_max))
    tied = eigenvalues[eigenvalues.real >= re_max - tol]
    small = np.abs(tied.imag)
    imin = float(np.min(small))
    tied = tied[small <= imin + tol * (1.0 + imin)]
    pos = tied[tied.imag >= 0]
    pick = pos[0] if pos.size else tied[0]
    return complex(pick)


def classify_stability(weakest: complex, marginal_band: float = 0.0) -> str:
    """'Stable' / 'Unstable' / 'Marginal' from the weakest mode's real part."""
    if marginal_band < 0:
        raise UsageError("marginal_band must be nonnegative")
    re = weakest.real
    if re > marginal_band:
        return "Unstable"
    if re < -marginal_band:
        return "Stable"
    return "Marginal"


def mode_set(hss: HssMatrices, marginal_band: float = 0.0) -> ModeSet:
    """Full spectrum plus the edge-filtered weakest mode and its verdict."""
    eigs = hss_eigenvalues(hss)
    weak = weakest_mode(eigs, omega1=hss.omega1, n_harmonics=hss.n_harmonics)
    return ModeSet(eigs, weak, classify_stability(weak, marginal_band), marginal_band)


def harmonic_transfer_function(
    hss: HssMatrices,
    s: complex,
    eigenvalues: np.ndarray | None = None,
    guard: float = 1e-8,
) -> np.ndarray:
    """H(s) = C (sI + N_blk - A)⁻¹ B + D on the truncated harmonic lattice.

    Block (k, l) maps an input modulation at s + jlω₁ to the output component
    at s + jkω₁.  Raises SingularAtFrequency when s falls within
    ``guard``·ω₁ of an HSS eigenvalue (pass precomputed ``eigenvalues`` to
    avoid refactoring the spectrum on every call).
    """
    if eigenvalues is None:
        eigenvalues = hss_eigenvalues(hss)
    dist = float(np.min(np.abs(eigenvalues - s)))
    if dist < guard * hss.omega1:
        raise SingularAtFrequency(s, dist)
    lhs = -hss.stability_matrix()
    idx = np.arange(lhs.shape[0])
    lhs[idx, idx] += s
    sol = scipy.linalg.solve(lhs, hss.b_full, check_finite=False)
    return hss.c_full @ sol + hss.d_full


def htf_block(h: np.ndarray, k: int, l: int, n_outputs: int, n_inputs: int,
              n_harmonics: int) -> np.ndarray:
    """Slice the (k, l) harmonic block out of an assembled H(s)."""
    if abs(k) > n_harmonics or abs(l) > n_harmonics:
        raise UsageError("harmonic index outside truncation")
    r = (k + n_harmonics) * n_outputs
    c = (l + n_harmonics) * n_inputs
    return h[r:r + n_outputs, c:c + n_inputs]


@dataclass
class ScanResult:
    """Frequency scan of selected harmonic-transfer-function entries."""

    frequencies_hz: np.ndarray
    diag: np.ndarray          # block (0,0) entry: response at the probe frequency
    mirror_plus: np.ndarray   # block (+2,0): output shifted +2ω₁
    mirror_minus: np.ndarray  # block (-2,0): output shifted -2ω₁
    singular: np.ndarray      # rows where s hit an eigenvalue (entries NaN)
    output_index: int
    input_index: int


def frequency_scan(
    hss: HssMatrices,
    frequencies_hz,
    output_index: int = 0,
    input_index: int = 0,
) -> ScanResult:
    """Evaluate H(j2πf) over a frequency grid.

    Records the principal-diagonal entry and the ±2-harmonic coupling terms
    (offset from the probe by twice the fundamental) for one output/input
    component pair.  Frequencies that collide with an HSS eigenvalue are
    flagged, not fatal.
    """
    if hss.n_harmonics < 2:
        raise UsageError("need n_harmonics >= 2 to expose the ±2 coupling blocks")
    p, m = hss.n_outputs, hss.n_inputs
    if not (0 <= output_index < p and 0 <= input_index < m):
        raise UsageError("output/input index out of range")
    freqs = np.asarray(frequencies_hz, dtype=float)
    eigs = hss_eigenvalues(hss)
    diag = np.zeros(freqs.size, dtype=complex)
    mplus = np.zeros(freqs.size, dtype=complex)
    mminus = np.zeros(freqs.size, dtype=complex)
    singular = np.zeros(freqs.size, dtype=bool)
    for idx, f in enumerate(freqs):
        s = 2j * np.pi * f
        try:
            h = harmonic_transfer_function(hss, s, eigenvalues=eigs)
        except SingularAtFrequency:
            singular[idx] = True
            diag[idx] = mplus[idx] = mminus[idx] = complex(np.nan, np.nan)
            continue
        n = hss.n_harmonics
        diag[idx] = htf_block(h, 0, 0, p, m, n)[output_index, input_index]
        mplus[idx] = htf_block(h, +2, 0, p, m, n)[output_index, input_index]
        mminus[idx] = htf_block(h, -2, 0, p, m, n)[output_index, input_index]
    return ScanResult(freqs, diag, mplus, mminus, singular, output_index, input_index)
