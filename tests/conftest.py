"""Shared fixtures: solved benchmark systems (session-scoped, solves are ~1 s)."""

import dataclasses

import numpy as np
import pytest

from ltpkit import build_case1, build_case2, solve_pss

UNBALANCED = {"u_gbeta_mag": 0.5, "u_gbeta_deg": -90.0}


def conjugate_consistent_state(model, rng, scale=0.3):
    """Random state respecting x[j] = conj(x[i]) pairs, unpaired entries real."""
    x = scale * (rng.standard_normal(model.n_states)
                 + 1j * rng.standard_normal(model.n_states))
    paired = set()
    for i, j in model.conjugate_pairs:
        x[j] = np.conj(x[i])
        paired.update((i, j))
    for k in range(model.n_states):
        if k not in paired:
            x[k] = complex(x[k].real)
    return x


def fd_jacobian(model, t, x, u, which="state", step=1e-6):
    """Central-difference reference for the analytic Jacobians at one point.

    Conjugate-paired coordinates are perturbed independently (no implicit
    conjugation), matching the analytic Jacobian convention.  ``which``
    selects ∂f/∂x, ∂f/∂u, ∂g/∂x or ∂g/∂u.
    """
    x = np.asarray(x, dtype=complex)
    u = np.asarray(u, dtype=complex)
    fun = {
        "state": lambda z: model.dynamics(t, z, u),
        "input": lambda z: model.dynamics(t, x, z),
        "out_state": lambda z: model.output(t, z, u),
        "out_input": lambda z: model.output(t, x, z),
    }[which]
    base = x if which in ("state", "out_state") else u
    cols = []
    for k in range(base.size):
        dz = np.zeros_like(base)
        dz[k] = step
        cols.append((fun(base + dz) - fun(base - dz)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def diverging_after(model, steps):
    """Copy of ``model`` whose dynamics turn non-finite after ``steps`` calls."""
    calls = [0]

    def dynamics(t, x, u):
        calls[0] += 1
        f = model.dynamics(t, x, u)
        return f if calls[0] <= steps else np.full_like(f, np.nan)

    return dataclasses.replace(model, dynamics=dynamics)


@pytest.fixture(scope="session")
def case1_balanced():
    model = build_case1()["closed_loop"]
    return model, solve_pss(model)


@pytest.fixture(scope="session")
def case1_unbalanced():
    model = build_case1(dict(UNBALANCED))["closed_loop"]
    return model, solve_pss(model)


@pytest.fixture(scope="session")
def case2_default():
    model = build_case2()["closed_loop"]
    return model, solve_pss(model)


@pytest.fixture(scope="session")
def case2_unbalanced():
    model = build_case2(dict(UNBALANCED))["closed_loop"]
    return model, solve_pss(model)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
