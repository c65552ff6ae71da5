"""State-space model contract for periodically driven systems.

A model is dx/dt = f(t, x, u), y = g(t, x, u) with complex-valued states.
Conjugate quantities are carried as explicit paired states, so every equation
is holomorphic in the state coordinates and the Jacobians below are ordinary
complex derivatives.  All callables broadcast over a leading time axis:
scalar t with (n,) state, or (M,) t with (M, n) states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import UsageError

Array = np.ndarray


@dataclass(frozen=True)
class SystemModel:
    """Bundle of dynamics/output callables plus structural metadata.

    Attributes
    ----------
    dynamics, output : f(t, x, u) and g(t, x, u).
    jac_state, jac_input : ∂f/∂x (n×n) and ∂f/∂u (n×m) along a trajectory.
    out_jac_state, out_jac_input : ∂g/∂x (p×n) and ∂g/∂u (p×m).
    input_fn : exogenous drive u(t), shape (m,) per time.
    conjugate_pairs : index pairs (i, j) with x[j] ≡ conj(x[i]); real-valued
        states appear in no pair.
    spectral_seeds : (state, harmonic, value) triples materialized by
        ``initial_guess``.
    state_scales : per-state magnitudes used for per-unit norms; case models
        are already per-unit so these default to ones.
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
    state_scales: np.ndarray | None = None
    name: str = "model"

    def __post_init__(self):
        if self.state_labels and len(self.state_labels) != self.n_states:
            raise UsageError("state_labels length must equal n_states")
        for i, j in self.conjugate_pairs:
            if not (0 <= i < self.n_states and 0 <= j < self.n_states):
                raise UsageError(f"conjugate pair ({i}, {j}) out of range")
        paired = [k for pair in self.conjugate_pairs for k in set(pair)]
        if len(paired) != len(set(paired)):
            raise UsageError("a state appears in more than one conjugate pair")
        scales = self.state_scales
        if scales is None:
            scales = np.ones(self.n_states)
        scales = np.asarray(scales, dtype=float)
        if scales.shape != (self.n_states,) or np.any(scales <= 0):
            raise UsageError("state_scales must be positive, one per state")
        object.__setattr__(self, "state_scales", scales)

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega1


def eval_dynamics(model: SystemModel, t, x, u) -> Array:
    """f(t, x, u) with dimension checks (thin wrapper for interactive use)."""
    x = np.asarray(x, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if x.shape[-1] != model.n_states:
        raise UsageError(f"state has {x.shape[-1]} entries, model has {model.n_states}")
    if u.shape[-1] != model.n_inputs:
        raise UsageError(f"input has {u.shape[-1]} entries, model has {model.n_inputs}")
    return model.dynamics(t, x, u)


def eval_jacobians(model: SystemModel, t, x, u):
    """(A, B, C, D) = state/input Jacobians of f and g along (t, x, u)."""
    x = np.asarray(x, dtype=complex)
    u = np.asarray(u, dtype=complex)
    return (
        model.jac_state(t, x, u),
        model.jac_input(t, x, u),
        model.out_jac_state(t, x, u),
        model.out_jac_input(t, x, u),
    )


def fd_jacobian(model: SystemModel, t, x, u, step: float = 1e-6, which: str = "state") -> Array:
    """Central-difference Jacobian, perturbing each coordinate independently.

    Conjugate-paired coordinates are treated as free variables (no implicit
    conjugation), matching the analytic Jacobian convention.  ``which``
    selects ∂f/∂x (default), ∂f/∂u, ∂g/∂x or ∂g/∂u.
    """
    x = np.asarray(x, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if x.ndim != 1 or u.ndim != 1:
        raise UsageError("fd_jacobian expects a single (t, x, u) point")
    fun = {
        "state": lambda z: model.dynamics(t, z, u),
        "input": lambda z: model.dynamics(t, x, z),
        "out_state": lambda z: model.output(t, z, u),
        "out_input": lambda z: model.output(t, x, z),
    }.get(which)
    if fun is None:
        raise UsageError(f"unknown jacobian selector {which!r}")
    base = x if which in ("state", "out_state") else u
    cols = []
    for k in range(base.size):
        zp = base.copy()
        zm = base.copy()
        zp[k] += step
        zm[k] -= step
        cols.append((fun(zp) - fun(zm)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def check_conjugate_closure(model: SystemModel, t, x, u, tol: float = 1e-10) -> float:
    """Max defect of f preserving conjugate pairing at a consistent state.

    For x with x[j] = conj(x[i]) on every pair, f must satisfy
    f[j] = conj(f[i]).  Returns the worst deviation (and checks real-valued
    rows stay real for unpaired states only when they are real to start).
    """
    x = np.asarray(x, dtype=complex).copy()
    for i, j in model.conjugate_pairs:
        x[j] = np.conj(x[i])
    f = model.dynamics(t, x, u)
    worst = 0.0
    for i, j in model.conjugate_pairs:
        worst = max(worst, float(np.max(np.abs(f[..., j] - np.conj(f[..., i])))))
    return worst


def linear_model(
    a: Array,
    forcing: Callable[[Array], Array] | None = None,
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
        if forcing is not None:
            input_fn = forcing
        else:
            def input_fn(t):
                t = np.asarray(t, dtype=float)
                return np.zeros(t.shape + (m,), dtype=complex)

    def dynamics(t, x, u):
        return x @ a.T + u @ b.T

    def output(t, x, u):
        return x @ c.T + u @ d.T

    def _const(mat):
        def jac(t, x, u):
            t = np.asarray(t, dtype=float)
            return np.broadcast_to(mat, t.shape + mat.shape).copy()
        return jac

    return SystemModel(
        n_states=n,
        n_inputs=m,
        n_outputs=p,
        omega1=omega1,
        dynamics=dynamics,
        output=output,
        jac_state=_const(a),
        jac_input=_const(b),
        out_jac_state=_const(c),
        out_jac_input=_const(d),
        input_fn=input_fn,
        state_labels=tuple(f"x{i}" for i in range(n)),
        name=name,
    )
