"""Forward-mode jets: a model's Jacobians from its own ``dynamics``, which is
holomorphic in its paired states.  A :class:`Jet` is a value and its
derivatives by the seeded variables, kept sparse as ``{column: derivative}``;
both are Python scalars or ``(M,)`` arrays."""

from functools import partial

import numpy as np

from .spectral import samples_to_spectrum

ONE = 1.0  # a seed's derivative: a product takes the other factor as it is


def _scaled(der, c):
    out = {}  # a loop costs less than a comprehension on a few entries
    for k, d in der.items():
        out[k] = c if d is ONE else d * c
    return out


def _summed(der, other):
    out = dict(der)
    for k, d in other.items():
        out[k] = out[k] + d if k in out else d
    return out


class Jet:
    """``val`` and its derivatives ``der``, which no operation mutates."""

    __slots__ = ("val", "der")
    __array_ufunc__ = None  # numpy operands defer to the reflected methods

    def __init__(self, val, der):
        self.val, self.der = val, der

    def __add__(self, other):
        if type(other) is not Jet:
            return Jet(self.val + other, self.der)
        return Jet(self.val + other.val, _summed(self.der, other.der))

    def __sub__(self, other):
        if type(other) is not Jet:
            return Jet(self.val - other, self.der)
        return Jet(self.val - other.val, _summed(self.der, _scaled(other.der, -1.0)))

    def __rsub__(self, other):
        return Jet(other - self.val, _scaled(self.der, -1.0))

    def __neg__(self):
        return Jet(-self.val, _scaled(self.der, -1.0))

    def __mul__(self, other):
        if type(other) is not Jet:
            return Jet(self.val * other, _scaled(self.der, other))
        a, b = self.val, other.val
        return Jet(a * b, _summed(_scaled(self.der, b), _scaled(other.der, a)))

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other):
        if type(other) is not Jet:
            return Jet(self.val / other, _scaled(self.der, 1.0 / other))
        q = self.val / other.val  # (a/b)' = (a' − (a/b)·b')/b
        return Jet(q, ((self - q * other) / other.val).der)

    def __rtruediv__(self, other):
        q = other / self.val
        return Jet(q, _scaled(self.der, -q / self.val))

    def exp(self):
        e = np.exp(self.val)
        return Jet(e, _scaled(self.der, e))


def jacobians(dynamics, output) -> dict:
    """The four Jacobians of ``dynamics`` and ``output`` by state and input, as
    keyword arguments of :class:`ltpkit.model.SystemModel`.  Both functions
    get the state and input as lists of columns, one seeded with jets, and
    return their rows as a list.  Each Jacobian takes an ``(n,)`` state or an
    ``(M, n)`` batch and returns a fresh C-ordered array; a row that depends
    on no seed is zero.

    Each Jacobian also carries ``harmonics(t, x, u, order)``: the
    ``(2·order+1, r, c)`` Fourier coefficients of the Jacobian along an
    ``(M, n)`` batch on the one-period grid, from the same jet pass.  The
    derivatives that are ``(M,)`` arrays go through one stacked
    :func:`~ltpkit.spectral.samples_to_spectrum`; a scalar derivative is
    written exactly at harmonic 0 and an entry no jet reaches stays zero.  It
    is an instance attribute, so a ``functools.wraps`` wrapper of the
    Jacobian carries it too (:func:`ltpkit.spectral.jacobian_harmonics`)."""

    def derivatives(fn, seed, t, x, u):
        """``(i, k, d)`` for each derivative ``d`` of row i by seeded column
        k that the jets carry, and the Jacobian's shape ``(r, c)``."""
        cols = [np.asarray(v, dtype=complex) for v in (x, u)]
        cols = [v.tolist() if v.ndim == 1 else list(v.T) for v in cols]
        cols[seed] = [Jet(v, {k: ONE}) for k, v in enumerate(cols[seed])]
        rows = fn(t, *cols)
        found = [(i, k, d) for i, row in enumerate(rows) if type(row) is Jet
                 for k, d in row.der.items()]
        return found, (len(rows), len(cols[seed]))

    def jacobian(fn, seed, t, x, u):
        found, shape = derivatives(fn, seed, t, x, u)
        out = np.zeros(np.shape(x)[:-1] + shape, dtype=complex)
        for i, k, d in found:
            out[..., i, k] = d
        return out

    def harmonics(fn, seed, t, x, u, order):
        found, shape = derivatives(fn, seed, t, x, u)
        varying = [e for e in found if type(e[2]) is np.ndarray]
        stack = np.empty((len(varying), len(x)), dtype=complex)
        for row, (_, _, d) in zip(stack, varying):
            row[...] = d
        out = np.zeros((2 * order + 1,) + shape, dtype=complex)
        # transformed even when empty: it refuses a grid too coarse for order
        out[:, [i for i, _, _ in varying], [k for _, k, _ in varying]] = \
            samples_to_spectrum(stack.T, order)
        for i, k, d in found:
            if type(d) is not np.ndarray:
                out[order, i, k] = d
        return out

    def bound(fn, seed):
        jac = partial(jacobian, fn, seed)
        jac.harmonics = partial(harmonics, fn, seed)
        return jac

    return {name: bound(fn, seed) for name, fn, seed in (
        ("jac_state", dynamics, 0), ("jac_input", dynamics, 1),
        ("out_jac_state", output, 0), ("out_jac_input", output, 1))}
