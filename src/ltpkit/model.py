"""State-space model contract for periodically driven systems.

A model is dx/dt = f(t, x, u), y = g(t, x, u) with complex-valued states.
Conjugate quantities are carried as explicit paired states, so every equation
is holomorphic in the state coordinates and the Jacobians below are ordinary
complex derivatives.  All callables broadcast over a leading time axis:
scalar t with (n,) state, or (M,) t with (M, n) states.  The RK4 oracle
passes a single state and its input to ``dynamics`` as lists of Python
``complex``, and a single-state ``dynamics`` may return any length-n
sequence; one that wants numpy semantics starts with ``x = np.asarray(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import UsageError

Array = np.ndarray


@dataclass(frozen=True)
class SystemModel:
    """Bundle of dynamics/output callables plus structural metadata.

    Attributes
    ----------
    omega1 : fundamental angular frequency; the solver grid, the HSS and the
        oracle all take the period 2π/omega1 from it.
    dynamics, output : f(t, x, u) and g(t, x, u).
    jac_state, jac_input : ∂f/∂x (n×n) and ∂f/∂u (n×m) along a trajectory.
    out_jac_state, out_jac_input : ∂g/∂x (p×n) and ∂g/∂u (p×m).  A Jacobian
        with a ``harmonics`` attribute gives the HSS its harmonics directly
        (:func:`ltpkit.spectral.jacobian_harmonics`); any other is sampled.
    input_fn : exogenous drive u(t), shape (m,) per time.
    conjugate_pairs : index pairs (i, j) with x[j] ≡ conj(x[i]); real-valued
        states appear in no pair.
    spectral_seeds : (state, harmonic, value) triples, one per conjugate
        pair, materialized by ``initial_guess`` with their conjugates.
    partner : set from the pairs: σ, the index of each state's conjugate
        partner (the state itself when unpaired).
    """

    n_states: int
    n_inputs: int
    n_outputs: int
    omega1: float
    dynamics: Callable[..., Array]
    output: Callable[..., Array]
    jac_state: Callable[..., Array]
    jac_input: Callable[..., Array]
    out_jac_state: Callable[..., Array]
    out_jac_input: Callable[..., Array]
    input_fn: Callable[[Array], Array]
    state_labels: tuple = ()
    conjugate_pairs: tuple = ()
    spectral_seeds: tuple = ()
    name: str = "model"
    partner: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.state_labels and len(self.state_labels) != self.n_states:
            raise UsageError("state_labels length must equal n_states")
        for i, j in self.conjugate_pairs:
            if not (0 <= i < self.n_states and 0 <= j < self.n_states):
                raise UsageError(f"conjugate pair ({i}, {j}) out of range")
        swap = {i: j for pair in self.conjugate_pairs for i, j in (pair, pair[::-1])}
        if len(swap) != sum(len(set(pair)) for pair in self.conjugate_pairs):
            raise UsageError("a state appears in more than one conjugate pair")
        object.__setattr__(self, "partner",
                           tuple(int(swap.get(k, k)) for k in range(self.n_states)))

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega1


def _const_jac(mat):
    """Jacobian callable returning the constant ``mat`` at every sample."""
    mat = np.asarray(mat, dtype=complex)

    def jac(t, x, u):
        shape = np.asarray(x).shape[:-1]
        return np.broadcast_to(mat, shape + mat.shape).copy()

    return jac


def linear_model(
    a: Array,
    omega1: float = 2.0 * np.pi * 50.0,
    b: Array | None = None,
    c: Array | None = None,
    d: Array | None = None,
    input_fn: Callable[[Array], Array] | None = None,
    name: str = "lti",
) -> SystemModel:
    """Wrap a constant-coefficient system dx/dt = a·x + b·u(t) as a SystemModel.

    Handy for exact cross-checks: the periodic steady state and the harmonic
    transfer function of an LTI system are known in closed form.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if b is None:
        b = np.eye(n, dtype=complex)
    b = np.asarray(b, dtype=complex)
    m = b.shape[1]
    if c is None:
        c = np.eye(n, dtype=complex)
    c = np.asarray(c, dtype=complex)
    p = c.shape[0]
    if d is None:
        d = np.zeros((p, m), dtype=complex)
    d = np.asarray(d, dtype=complex)
    if input_fn is None:
        def input_fn(t):
            t = np.asarray(t, dtype=float)
            return np.zeros(t.shape + (m,), dtype=complex)

    def dynamics(t, x, u):
        return x @ a.T + u @ b.T

    def output(t, x, u):
        return x @ c.T + u @ d.T

    return SystemModel(
        n_states=n,
        n_inputs=m,
        n_outputs=p,
        omega1=omega1,
        dynamics=dynamics,
        output=output,
        jac_state=_const_jac(a),
        jac_input=_const_jac(b),
        out_jac_state=_const_jac(c),
        out_jac_input=_const_jac(d),
        input_fn=input_fn,
        state_labels=tuple(f"x{i}" for i in range(n)),
        name=name,
    )
