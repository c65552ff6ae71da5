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
from .spectral import build_nblk, build_toeplitz


# an HTF probe closer than this many ω₁ to an HSS eigenvalue is singular
_SINGULAR_GUARD = 1e-8
# the HSS spectrum comes from the real part of its similar form W when
# max|Im W| is at most this share of max|W| (see HssMatrices.eigenvalues)
REAL_FORM_TOL = 1e-13


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


@dataclass(eq=False)
class HssMatrices:
    """Harmonic state-space of a periodic orbit.

    Holds the orbit samples (t, x(t), u(t)) on the one-period grid and the
    model.  Each dense operator is built from its Jacobian on first read, at
    most once per object, and is read-only.
    """

    model: SystemModel
    times: np.ndarray
    states: np.ndarray   # (M, n)
    inputs: np.ndarray   # (M, m)
    n_harmonics: int

    @property
    def omega1(self) -> float:
        return self.model.omega1

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

    def _full(self, jacobian) -> np.ndarray:
        """Dense block-Toeplitz form of ``jacobian`` along the orbit."""
        samples = jacobian(self.times, self.states, self.inputs)
        return build_toeplitz(samples, self.n_harmonics).full()

    @cached_property
    def nblk(self) -> np.ndarray:
        """Diagonal of N_blk (see :func:`ltpkit.spectral.build_nblk`)."""
        return build_nblk(self.n_states, self.n_harmonics, self.omega1)

    @cached_property
    def _stability(self) -> np.ndarray:
        lhs = self._full(self.model.jac_state)
        idx = np.arange(lhs.shape[0])
        lhs[idx, idx] -= self.nblk
        return _read_only(lhs)

    @cached_property
    def b_full(self) -> np.ndarray:
        return _read_only(self._full(self.model.jac_input))

    @cached_property
    def c_full(self) -> np.ndarray:
        return _read_only(self._full(self.model.out_jac_state))

    @cached_property
    def d_full(self) -> np.ndarray:
        return _read_only(self._full(self.model.out_jac_input))

    def stability_matrix(self) -> np.ndarray:
        """A_toeplitz - N_blk, whose eigenvalues decide small-signal stability;
        its negation is the Newton iteration matrix (:func:`ltpkit.solver.newton_step`)."""
        return self._stability

    @cached_property
    def partner(self) -> np.ndarray:
        """Index of the conjugate partner of each HSS coordinate.

        Coordinate (k, i), harmonic k of state i at (k + N)·n + i, pairs with
        (−k, σ(i)), where σ swaps the two states of each
        ``model.conjugate_pairs`` entry and fixes unpaired states.  When the
        model is conjugate-symmetric, the stability matrix H satisfies
        H[p(a), p(b)] = conj(H[a, b]).
        """
        sigma = np.arange(self.n_states)
        for i, j in self.model.conjugate_pairs:
            sigma[i], sigma[j] = j, i
        rows = np.arange(2 * self.n_harmonics, -1, -1)[:, None] * self.n_states
        return _read_only((rows + sigma).reshape(-1))

    @cached_property
    def _similar(self) -> tuple:
        """(W, defect): the similar form W = Tᴴ H T of :attr:`eigenvalues`,
        real (Re W) when the defect max|Im W| / max|W| passes the gate."""
        w = _similar_form(self._stability, self.partner)
        scale = float(np.max(np.abs(w)))
        defect = float(np.max(np.abs(w.imag))) / scale if scale > 0.0 else 0.0
        if defect <= REAL_FORM_TOL:
            w = np.ascontiguousarray(w.real)
        return _read_only(w), defect

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the stability matrix, sorted by descending real part
        (ties by ascending imaginary part); computed once, read-only.

        The eigen-solve runs on W = Tᴴ H T, unitarily similar to H.  The
        columns of T are e_f for each coordinate that is its own
        :attr:`partner`, and (e_a + e_b)/√2 and i(e_a − e_b)/√2 for each
        partner pair (a, b).  A conjugate-symmetric H makes W real; then the
        real eigen-solver runs on Re W and returns exact conjugate pairs.
        Otherwise (complex LTI models, for instance) W itself is solved.
        """
        eigs = scipy.linalg.eigvals(self._similar[0])
        order = np.lexsort((eigs.imag, -eigs.real))
        return _read_only(eigs[order])

    @property
    def symmetry_defect(self) -> float:
        """max|Im W| / max|W| of the similar form behind :attr:`eigenvalues`."""
        return self._similar[1]

    @property
    def real_form(self) -> bool:
        """Whether :attr:`eigenvalues` and :func:`frequency_scan` work on the
        real matrix Re W."""
        return self.symmetry_defect <= REAL_FORM_TOL


def _similar_form(h: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Tᴴ h T for the unitary T of :attr:`HssMatrices.eigenvalues`, by
    gathers and sums rather than matrix products."""
    return _left_t(_right_t(h, partner), partner)


def _pairs(partner: np.ndarray) -> tuple:
    """Self-partnered coordinates and the (a, b) partner pairs with a < b."""
    idx = np.arange(partner.size)
    a = idx[idx < partner]
    return idx[partner == idx], a, partner[a]


def _right_t(x: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """x T, gathering along the last axis of ``x``."""
    fixed, a, b = _pairs(partner)
    r = np.sqrt(0.5)
    return np.concatenate((x[..., fixed], r * (x[..., a] + x[..., b]),
                           1j * r * (x[..., a] - x[..., b])), axis=-1)


def _left_t(x: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Tᴴ x, gathering along the first axis of ``x``."""
    fixed, a, b = _pairs(partner)
    r = np.sqrt(0.5)
    return np.concatenate((x[fixed], r * (x[a] + x[b]),
                           -1j * r * (x[a] - x[b])), axis=0)


@dataclass
class ModeSet:
    """HSS eigenvalues with the dominant (weakest-damped) mode singled out."""

    eigenvalues: np.ndarray
    weakest: complex

    @property
    def classification(self) -> str:
        """'Unstable' if the weakest mode grows (Re > 0), else 'Stable'."""
        return "Unstable" if self.weakest.real > 0.0 else "Stable"


def hss_eigenvalues(hss: HssMatrices) -> np.ndarray:
    """All eigenvalues of the HSS dynamics, sorted by descending real part
    (see :attr:`HssMatrices.eigenvalues`)."""
    return hss.eigenvalues


def interior_modes(eigenvalues: np.ndarray, omega1: float,
                   n_harmonics: int) -> np.ndarray:
    """Eigenvalues with the outermost harmonic band removed.

    The truncated spectrum holds jω₁-shifted copies of each true mode.
    Copies are accurate in the interior, but truncation pins spurious
    eigenvalues to the outermost represented band (|Im| within half a
    harmonic of N·ω₁ — they sit there for every N, unlike genuine modes,
    whose copies shift with N).  Every true family keeps at least one
    interior representative with the same real part, so dropping the edge
    band hides no genuine dynamics.

    It does not remove every artifact: one that moves with N can survive in
    the interior.  On case 2 at (α_c 170, k_sym_g 2.8) the weakest survivor
    is −0.3553 against a monodromy exponent of −2.27838, and at (150, 2.8)
    +3.8217 against +2.80136.  Item 1 of ROADMAP.md replaces this filter.
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


def weakest_mode(eigenvalues: np.ndarray) -> complex:
    """Mode with the largest real part.

    Ties (within relative 1e-9) break toward the smallest |Im|, then toward
    nonnegative Im.
    """
    eigenvalues = np.asarray(eigenvalues)
    if eigenvalues.size == 0:
        raise UsageError("empty eigenvalue set")
    re_max = float(np.max(eigenvalues.real))
    tol = 1e-9 * (1.0 + abs(re_max))
    tied = eigenvalues[eigenvalues.real >= re_max - tol]
    small = np.abs(tied.imag)
    imin = float(np.min(small))
    tied = tied[small <= imin + tol * (1.0 + imin)]
    pos = tied[tied.imag >= 0]
    pick = pos[0] if pos.size else tied[0]
    return complex(pick)


def mode_set(hss: HssMatrices) -> ModeSet:
    """Full spectrum plus the weakest mode outside the truncation edge band
    (see :func:`interior_modes`) and its verdict.

    The one route from an HSS to a weakest mode and verdict: ``eig``,
    ``verify`` and the sweep all read it.
    """
    eigs = hss_eigenvalues(hss)
    return ModeSet(eigs, weakest_mode(interior_modes(eigs, hss.omega1,
                                                     hss.n_harmonics)))


def harmonic_transfer_function(hss: HssMatrices, s: complex,
                               guard: float = _SINGULAR_GUARD) -> np.ndarray:
    """H(s) = C (sI + N_blk - A)⁻¹ B + D on the truncated harmonic lattice.

    Block (k, l) maps an input modulation at s + jlω₁ to the output component
    at s + jkω₁.  Raises SingularAtFrequency when s falls within
    ``guard``·ω₁ of an HSS eigenvalue.  Each call solves for every input
    column; :func:`frequency_scan` is the fast path for many frequencies.
    """
    dist = float(np.min(np.abs(hss_eigenvalues(hss) - s)))
    if dist < guard * hss.omega1:
        raise SingularAtFrequency(s, dist)
    lhs = -hss.stability_matrix()
    idx = np.arange(lhs.shape[0])
    lhs[idx, idx] += s
    sol = scipy.linalg.solve(lhs, hss.b_full, check_finite=False)
    return hss.c_full @ sol + hss.d_full


@dataclass
class ScanResult:
    """Frequency scan of selected harmonic-transfer-function entries."""

    frequencies_hz: np.ndarray
    diag: np.ndarray          # block (0,0) entry: response at the probe frequency
    mirror_plus: np.ndarray   # block (+2,0): output shifted +2ω₁
    mirror_minus: np.ndarray  # block (-2,0): output shifted -2ω₁
    singular: np.ndarray      # rows where s hit an eigenvalue (entries NaN)


def frequency_scan(
    hss: HssMatrices,
    frequencies_hz,
    output_index: int = 0,
    input_index: int = 0,
) -> ScanResult:
    """Evaluate H(j2πf) over a frequency grid.

    Records the principal-diagonal entry and the ±2-harmonic coupling terms
    (offset from the probe by twice the fundamental) for one output/input
    component pair.  Frequencies within the :func:`harmonic_transfer_function`
    guard of an HSS eigenvalue are flagged (entries NaN), not fatal.

    The scan works on the similar form W = Tᴴ H T of
    :attr:`HssMatrices.eigenvalues`, reduced once to Schur form Q R Qᴴ
    (Laub 1981, IEEE TAC 26(2)): real quasi-triangular R and real Q when
    :attr:`HssMatrices.real_form` holds (Golub & Van Loan, Matrix
    Computations, §7.4), complex triangular otherwise.  The single l = 0
    input column b enters as Qᴴ Tᴴ b and the three reported output rows c
    as c T Q.  All probes then share one O(dim²) back-substitution of
    (sI − R) z = Qᴴ Tᴴ b, with a closed-form solve per 2×2 diagonal block
    of R; the poles behind the singular guard are the eigenvalues of those
    blocks.
    """
    if hss.n_harmonics < 2:
        raise UsageError("need n_harmonics >= 2 to expose the ±2 coupling blocks")
    p, m, n = hss.n_outputs, hss.n_inputs, hss.n_harmonics
    if not (0 <= output_index < p and 0 <= input_index < m):
        raise UsageError("output/input index out of range")
    freqs = np.asarray(frequencies_hz, dtype=float)
    if not np.all(np.isfinite(freqs)):
        raise UsageError("scan frequencies must be finite")
    s = 2j * np.pi * freqs
    tri, q = scipy.linalg.schur(hss._similar[0],
                                output="real" if hss.real_form else "complex")
    sizes, poles = _diagonal_blocks(tri)
    dist = np.min(np.abs(poles[:, None] - s), axis=0)
    singular = dist < _SINGULAR_GUARD * hss.omega1
    s_ok = s[~singular]

    col = n * m + input_index
    rows = [(n + k) * p + output_index for k in (0, +2, -2)]
    y = q.conj().T @ _left_t(hss.b_full[:, col], hss.partner)
    z = np.empty((poles.size, s_ok.size), dtype=complex)
    # a real R multiplies the real and imaginary parts of z as one real matrix
    z_parts = z.view(float) if tri.dtype == float else z
    for i in np.flatnonzero(sizes)[::-1]:
        j = i + sizes[i]
        rhs = y[i:j, None] + (tri[i:j, j:] @ z_parts[j:]).view(complex)
        if j == i + 1:
            z[i] = rhs[0] / (s_ok - poles[i])
            continue
        # (sI − B) z = rhs for the 2×2 block B, whose determinant is
        # (s − λ₁)(s − λ₂) over its two eigenvalues
        (b11, b12), (b21, b22) = tri[i:j, i:j]
        det = (s_ok - poles[i]) * (s_ok - poles[i + 1])
        z[i] = ((s_ok - b22) * rhs[0] + b12 * rhs[1]) / det
        z[i + 1] = (b21 * rhs[0] + (s_ok - b11) * rhs[1]) / det

    h = np.full((len(rows), freqs.size), complex(np.nan, np.nan))
    c = _right_t(hss.c_full[rows], hss.partner) @ q
    h[:, ~singular] = c @ z + hss.d_full[rows, col][:, None]
    diag, mplus, mminus = h
    return ScanResult(freqs, diag, mplus, mminus, singular)


def _diagonal_blocks(tri: np.ndarray) -> tuple:
    """Diagonal blocks of a (quasi-)triangular Schur factor and its poles.

    Returns the block size at each block's first row (1 or 2; 0 on the
    second row of a 2×2 block) and the eigenvalues in diagonal order.  A
    2×2 block of the real Schur form, standardized by LAPACK to
    [[a, b], [c, a]] with bc < 0, holds the conjugate pair a ± i√(−bc).
    """
    first = np.flatnonzero(np.diag(tri, -1))
    second = first + 1
    sizes = np.ones(tri.shape[0], dtype=int)
    sizes[first], sizes[second] = 2, 0
    a, b = tri[first, first], tri[first, second]
    c, d = tri[second, first], tri[second, second]
    mean = 0.5 * (a + d)
    root = np.sqrt((0.25 * (a - d) ** 2 + b * c).astype(complex))
    poles = np.diag(tri).astype(complex)
    poles[first], poles[second] = mean + root, mean - root
    return sizes, poles
