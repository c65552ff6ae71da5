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

from . import _lapack
from .errors import SingularAtFrequency, UsageError
from .model import SystemModel
from .spectral import BlockToeplitz, build_nblk, jacobian_harmonics


# an HTF probe closer than this many ω₁ to an HSS eigenvalue is singular
_SINGULAR_GUARD = 1e-8
_TIE = 1e-9  # real parts within this share of 1 + |Re| are tied
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
    model.  Each dense operator is built from its Jacobian's harmonics
    (:func:`ltpkit.spectral.jacobian_harmonics`) on first read, at most once
    per object, and is read-only.
    """

    model: SystemModel
    times: np.ndarray
    states: np.ndarray   # (M, n)
    inputs: np.ndarray   # (M, m)
    n_harmonics: int

    def _full(self, jacobian) -> np.ndarray:
        """Dense block-Toeplitz form of ``jacobian`` along the orbit."""
        blocks = jacobian_harmonics(jacobian, self.times, self.states, self.inputs,
                                    2 * self.n_harmonics)
        return BlockToeplitz(blocks, self.n_harmonics).full()

    @cached_property
    def nblk(self) -> np.ndarray:
        """Diagonal of N_blk (see :func:`ltpkit.spectral.build_nblk`)."""
        return build_nblk(self.model.n_states, self.n_harmonics, self.model.omega1)

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
        (−k, σ(i)), σ = ``model.partner``.  A conjugate-symmetric model's
        stability matrix H satisfies H[p(a), p(b)] = conj(H[a, b]).
        """
        rows = np.arange(2 * self.n_harmonics, -1, -1)[:, None] * self.model.n_states
        return _read_only((rows + self.model.partner).reshape(-1))

    @cached_property
    def _block_of(self) -> np.ndarray:
        """Index into :attr:`blocks` of each HSS coordinate."""
        return _read_only(_invariant_blocks(self._stability, self.partner))

    @cached_property
    def blocks(self) -> tuple:
        """Coordinate indices of the invariant blocks of the stability matrix.

        The blocks are the connected components of H's coupling pattern,
        where an entry couples two coordinates when it exceeds
        ``REAL_FORM_TOL``·max|H| (the round-off gate of :attr:`real_form`),
        closed under :attr:`partner` so that every block keeps its real form.
        A coordinate's harmonic parity, for instance, splits the built-in
        cases into at least two blocks: stationary-frame states carry only
        odd harmonics and rotating-frame ones only even.  H restricted to the
        blocks has the spectrum of H up to the dropped entries (see
        :attr:`decoupling_defect`).  Sorted ascending, in order of each
        block's first coordinate; read-only.
        """
        block_of = self._block_of
        return tuple(_read_only(np.flatnonzero(block_of == i))
                     for i in range(block_of.max() + 1))

    @property
    def decoupling_defect(self) -> float:
        """Largest |H| entry that couples two :attr:`blocks`, over max|H|."""
        mag = np.abs(self._stability)
        between = mag[self._block_of[:, None] != self._block_of]
        return float(np.max(between, initial=0.0)) / float(np.max(mag))

    @cached_property
    def _similar(self) -> tuple:
        """(forms, defect): per block of :attr:`blocks`, its coordinates,
        its columns of T and the similar form W_b = T_bᴴ H_b T_b of
        :attr:`eigenvalues`, real (Re W_b) when the defect max|Im W| / max|W|
        of the whole W = Tᴴ H T passes the gate.

        T maps each block onto its own columns, so W_b is the (cols, cols)
        slice of W, entry for entry the same arithmetic.
        """
        w = _similar_form(self._stability, self.partner)
        scale = float(np.max(np.abs(w)))
        defect = float(np.max(np.abs(w.imag))) / scale if scale > 0.0 else 0.0
        if defect <= REAL_FORM_TOL:
            w = w.real
        # T's columns: one per fixed coordinate, then for each pair (a, b)
        # one (e_a + e_b) column and, after all of those, one i(e_a − e_b)
        fixed, a, _ = _pairs(self.partner)
        col_block = self._block_of[np.concatenate((fixed, a, a))]
        forms = []
        for i, block in enumerate(self.blocks):
            cols = np.flatnonzero(col_block == i)
            forms.append((block, cols, _read_only(w[np.ix_(cols, cols)])))
        return tuple(forms), defect

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the stability matrix in :func:`_sort_modes` order;
        computed once, read-only.

        One eigen-solve runs per invariant block (:attr:`blocks`), on
        W_b = T_bᴴ H_b T_b, unitarily similar to H_b.  The columns of T are
        e_f for each coordinate that is its own :attr:`partner`, and
        (e_a + e_b)/√2 and i(e_a − e_b)/√2 for each partner pair (a, b);
        T_b holds those of the block's coordinates.  A conjugate-symmetric H
        makes W_b real; then the real eigen-solver runs on Re W_b and
        returns exact conjugate pairs.  Otherwise (complex LTI models, for
        instance) W_b itself is solved.
        """
        eigs = np.concatenate([_lapack.eigvals(w_b)
                               for _, _, w_b in self._similar[0]])
        return _read_only(_sort_modes(eigs))

    @property
    def symmetry_defect(self) -> float:
        """max|Im W| / max|W| of the similar form W = Tᴴ H T whose blocks
        W_b are behind :attr:`eigenvalues`."""
        return self._similar[1]

    @property
    def real_form(self) -> bool:
        """Whether :attr:`eigenvalues` and :func:`frequency_scan` work on the
        real matrices Re W_b."""
        return self.symmetry_defect <= REAL_FORM_TOL


def _invariant_blocks(h: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Block index of each coordinate: the connected components of the
    coupling pattern of ``h`` (entries above the round-off gate), closed
    under ``partner``, numbered in order of their first coordinate.

    The graph joins partner classes {a, partner[a]} rather than coordinates,
    at about half the dimension; repeated squaring of its reachability
    matrix finds the components in O(log(diameter)) matrix products.
    """
    mag = np.abs(h)
    coupled = mag > REAL_FORM_TOL * np.max(mag)
    coupled |= coupled[partner]
    coupled |= coupled[:, partner]
    idx = np.arange(partner.size)
    named = idx <= partner   # a class is named by its lower coordinate
    classes = np.flatnonzero(named)
    class_of = (np.cumsum(named) - 1)[np.minimum(idx, partner)]
    reach = coupled[np.ix_(classes, classes)]
    reach |= reach.T
    reach[np.diag_indices(classes.size)] = True
    # real rather than boolean matrices, so the products run in BLAS; the
    # path counts they hold stay exact far beyond any HSS dimension
    reach = reach.astype(float)
    while True:
        grown = (reach @ reach > 0.0).astype(float)
        if np.array_equal(grown, reach):
            break
        reach = grown
    first = np.argmax(reach, axis=1)   # the lowest class of its component
    number = np.cumsum(first == np.arange(classes.size)) - 1
    return number[first][class_of]


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


def _sort_modes(eigenvalues: np.ndarray) -> np.ndarray:
    """Eigenvalues by descending real part; a run of real parts tied one to
    the next within ``_TIE``·(1 + |Re|), as in :func:`weakest_mode`, by
    ascending Im, so round-off (BLAS threads) cannot swap nearly tied rows."""
    eigs = eigenvalues[np.argsort(-eigenvalues.real, kind="stable")]
    split = -np.diff(eigs.real) > _TIE * (1.0 + np.abs(eigs.real[:-1]))
    return eigs[np.lexsort((eigs.imag, np.cumsum(np.concatenate(([0], split)))))]


def hss_eigenvalues(hss: HssMatrices) -> np.ndarray:
    """All eigenvalues of the HSS dynamics, sorted by descending real part
    (see :func:`_sort_modes`)."""
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

    Ties (within ``_TIE``·(1 + |Re|)) break toward the smallest |Im|, then
    toward nonnegative Im.
    """
    eigenvalues = np.asarray(eigenvalues)
    if eigenvalues.size == 0:
        raise UsageError("empty eigenvalue set")
    re_max = float(np.max(eigenvalues.real))
    tol = _TIE * (1.0 + abs(re_max))
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
    return ModeSet(eigs, weakest_mode(interior_modes(eigs, hss.model.omega1,
                                                     hss.n_harmonics)))


def harmonic_transfer_function(hss: HssMatrices, s: complex) -> np.ndarray:
    """H(s) = C (sI + N_blk - A)⁻¹ B + D on the truncated harmonic lattice.

    Block (k, l) maps an input modulation at s + jlω₁ to the output component
    at s + jkω₁.  Raises SingularAtFrequency when s falls within
    ``_SINGULAR_GUARD``·ω₁ of an HSS eigenvalue.  Each call solves for every
    input column; :func:`frequency_scan` is the fast path for many frequencies.
    """
    dist = float(np.min(np.abs(hss_eigenvalues(hss) - s)))
    if dist < _SINGULAR_GUARD * hss.model.omega1:
        raise SingularAtFrequency(s, dist)
    lhs = -hss.stability_matrix()
    idx = np.arange(lhs.shape[0])
    lhs[idx, idx] += s
    lu, piv, zero_pivot = _lapack.lu_factor(lhs)
    if zero_pivot:
        raise SingularAtFrequency(s, dist)
    sol = _lapack.lu_solve((lu, piv), hss.b_full)
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
    *,
    output_index: int,
    input_index: int,
) -> ScanResult:
    """Evaluate H(j2πf) over a frequency grid.

    Records the principal-diagonal entry and the ±2-harmonic coupling terms
    (offset from the probe by twice the fundamental) for one output/input
    component pair.  Frequencies within the :func:`harmonic_transfer_function`
    guard of an HSS eigenvalue are flagged (entries NaN), not fatal.

    The scan works block by block on the similar forms W_b = T_bᴴ H_b T_b
    of :attr:`HssMatrices.eigenvalues`, and only on the blocks that the
    single l = 0 input column b touches (an entry above ``REAL_FORM_TOL``
    of max|b|): the others contribute nothing to the entry.  Each touched
    W_b is reduced to Schur form Q R Qᴴ (Laub 1981, IEEE TAC 26(2)): real
    quasi-triangular R and real Q when :attr:`HssMatrices.real_form` holds
    (Golub & Van Loan, Matrix Computations, §7.4), complex triangular
    otherwise.  b enters as Qᴴ T_bᴴ b_b and the three reported output rows c
    as c_b T_b Q.  All probes then share one O(dim_b²) back-substitution of
    (sI − R) z = Qᴴ T_bᴴ b_b, with a closed-form solve per 2×2 diagonal
    block of R, and the blocks' output rows are summed.  The poles behind
    the singular guard are the eigenvalues of the touched blocks: a pole in
    an untouched block cannot reach the entry.
    """
    if hss.n_harmonics < 2:
        raise UsageError("need n_harmonics >= 2 to expose the ±2 coupling blocks")
    p, m, n = hss.model.n_outputs, hss.model.n_inputs, hss.n_harmonics
    if not (0 <= output_index < p and 0 <= input_index < m):
        raise UsageError("output/input index out of range")
    freqs = np.asarray(frequencies_hz, dtype=float)
    if not np.all(np.isfinite(freqs)):
        raise UsageError("scan frequencies must be finite")
    s = 2j * np.pi * freqs

    col = n * m + input_index
    rows = [(n + k) * p + output_index for k in (0, +2, -2)]
    b = hss.b_full[:, col]
    mag = np.abs(b)
    touched = mag > REAL_FORM_TOL * np.max(mag)
    b_t = _left_t(b, hss.partner)
    c_t = _right_t(hss.c_full[rows], hss.partner)
    factors = []
    for block, cols, w_b in hss._similar[0]:
        if not touched[block].any():
            continue
        tri, q = _lapack.schur(w_b, output="real" if hss.real_form else "complex")
        sizes, poles = _diagonal_blocks(tri)
        factors.append((tri, sizes, poles, q.conj().T @ b_t[cols], c_t[:, cols] @ q))
    poles = np.concatenate([f[2] for f in factors] + [np.empty(0, dtype=complex)])
    dist = np.min(np.abs(poles[:, None] - s), axis=0, initial=np.inf)
    singular = dist < _SINGULAR_GUARD * hss.model.omega1
    s_ok = s[~singular]

    h = np.full((len(rows), freqs.size), complex(np.nan, np.nan))
    h[:, ~singular] = hss.d_full[rows, col][:, None]
    for tri, sizes, poles, y, c in factors:
        h[:, ~singular] += c @ _back_substitute(tri, sizes, poles, y, s_ok)
    diag, mplus, mminus = h
    return ScanResult(freqs, diag, mplus, mminus, singular)


def _back_substitute(tri: np.ndarray, sizes: np.ndarray, poles: np.ndarray,
                     y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """z with (s I − R) z = y for each probe s, by back-substitution on the
    (quasi-)triangular R = ``tri`` with blocks ``sizes`` and ``poles`` (see
    :func:`_diagonal_blocks`); one column of z per probe."""
    z = np.empty((poles.size, s.size), dtype=complex)
    # a real R multiplies the real and imaginary parts of z as one real matrix
    z_parts = z.view(float) if tri.dtype == float else z
    for i in np.flatnonzero(sizes)[::-1]:
        j = i + sizes[i]
        rhs = y[i:j, None] + (tri[i:j, j:] @ z_parts[j:]).view(complex)
        if j == i + 1:
            z[i] = rhs[0] / (s - poles[i])
            continue
        # (sI − B) z = rhs for the 2×2 block B, whose determinant is
        # (s − λ₁)(s − λ₂) over its two eigenvalues
        (b11, b12), (b21, b22) = tri[i:j, i:j]
        det = (s - poles[i]) * (s - poles[i + 1])
        z[i] = ((s - b22) * rhs[0] + b12 * rhs[1]) / det
        z[i + 1] = (b21 * rhs[0] + (s - b11) * rhs[1]) / det
    return z


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
