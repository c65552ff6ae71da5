"""Forward-mode jets: a model's Jacobians from its own ``dynamics``, which is
holomorphic in its paired states.  A :class:`Jet` is a value and its
derivatives by the seeded variables, kept sparse as ``{column: derivative}``;
both are Python scalars or ``(M,)`` arrays."""

from functools import partial

import numpy as np

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
    on no seed is zero."""

    def jacobian(fn, seed, t, x, u):
        cols = [np.asarray(v, dtype=complex) for v in (x, u)]
        cols = [v.tolist() if v.ndim == 1 else list(v.T) for v in cols]
        cols[seed] = [Jet(v, {k: ONE}) for k, v in enumerate(cols[seed])]
        rows = fn(t, *cols)
        out = np.zeros(np.shape(x)[:-1] + (len(rows), len(cols[seed])), dtype=complex)
        for i, row in enumerate(rows):
            for k, d in (row.der.items() if type(row) is Jet else ()):
                out[..., i, k] = d
        return out

    return {name: partial(jacobian, fn, seed) for name, fn, seed in (
        ("jac_state", dynamics, 0), ("jac_input", dynamics, 1),
        ("out_jac_state", output, 0), ("out_jac_input", output, 1))}
