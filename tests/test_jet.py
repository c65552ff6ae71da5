"""Forward-mode jets: each operation against its closed-form derivative, and
the Jacobians that ``jacobians`` derives from a small ``dynamics`` and
``output``."""

import numpy as np
import pytest

from ltpkit.jet import Jet, jacobians

M = 5
XV = np.linspace(0.5, 1.5, M) + 0.3j
YV = np.linspace(-2.0, -1.0, M) - 0.7j

# the operand kinds a model's arithmetic mixes with a jet
CONSTANTS = {
    "python_float": 1.5,
    "python_complex": 0.5 - 2j,
    "numpy_scalar": np.complex128(0.25 + 1j),
    "array": np.linspace(1.0, 3.0, M) - 0.5j,
}
# a batch's jets hold (M,) arrays, one state's jets Python scalars
VALUES = {"batch": (XV, YV), "single": (complex(XV[1]), complex(YV[3]))}


def check(jet, val, der):
    assert type(jet) is Jet
    np.testing.assert_allclose(jet.val, val, rtol=1e-15, atol=0)
    assert set(jet.der) == set(der)
    for k, d in der.items():
        np.testing.assert_allclose(np.broadcast_to(jet.der[k], np.shape(val)), d,
                                   rtol=1e-14, atol=0)


@pytest.mark.parametrize("values", VALUES)
@pytest.mark.parametrize("kind", CONSTANTS)
def test_operations_with_a_constant(kind, values):
    c = CONSTANTS[kind]
    xv = VALUES[values][0]
    x = Jet(xv, {0: 1.0})
    one = np.ones_like(xv * c)
    check(x + c, xv + c, {0: one})
    check(c + x, c + xv, {0: one})
    check(x - c, xv - c, {0: one})
    check(c - x, c - xv, {0: -one})
    check(x * c, xv * c, {0: c * one})
    check(c * x, c * xv, {0: c * one})
    check(x / c, xv / c, {0: one / c})
    check(c / x, c / xv, {0: -c / xv**2})


@pytest.mark.parametrize("values", VALUES)
def test_operations_between_jets(values):
    xv, yv = VALUES[values]
    x, y = Jet(xv, {0: 1.0}), Jet(yv, {1: 1.0})
    one = np.ones_like(xv * yv)
    check(x + y, xv + yv, {0: one, 1: one})
    check(x - y, xv - yv, {0: one, 1: -one})
    check(-x, -xv, {0: -one})
    check(x * y, xv * yv, {0: yv * one, 1: xv * one})
    check(x / y, xv / yv, {0: one / yv, 1: -xv / yv**2})
    check(x.exp(), np.exp(xv), {0: np.exp(xv)})
    # a shared column merges: d(x·y + x)/dx = y + 1
    check(x * y + x, xv * yv + xv, {0: yv + 1.0, 1: xv * one})
    # the chain rule through exp and a quotient: d(e^{xy}/y)/dx = e^{xy}
    q = (x * y).exp() / y
    check(q, np.exp(xv * yv) / yv,
          {0: np.exp(xv * yv), 1: np.exp(xv * yv) * (xv * yv - 1.0) / yv**2})


def test_operations_leave_their_operands_unchanged():
    x, y = Jet(XV, {0: 1.0}), Jet(YV, {0: 2.0, 1: 1.0})
    _ = [x + y, x - y, x * y, x / y, -x, x.exp(), 2.0 - y, 3.0 / y]
    assert x.der == {0: 1.0} and y.der == {0: 2.0, 1: 1.0}


def _exp(v):
    return v.exp() if type(v) is Jet else np.exp(v)


def small_dynamics(t, x, u):
    """Four rows with known Jacobians: ∂f/∂x = [[x1, x0], [e^{x0}, −2u1],
    [0, 0], [0, 1/4]] and ∂f/∂u = [[3, 0], [0, −2x1], [u1, u0], [0, 0]]."""
    return [x[0] * x[1] + 3.0 * u[0],
            _exp(x[0]) - 2.0 * x[1] * u[1],
            u[0] * u[1],
            x[1] / 4.0]


def small_output(t, x, u):
    """Two rows with known Jacobians: ∂g/∂x = [[1, 0], [u0, 0]] and
    ∂g/∂u = [[0, 0], [x0, 0]]."""
    return [x[0], x[0] * u[0]]


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_jacobians_of_a_known_function_exactly(batch):
    x = np.stack([XV, YV], axis=-1)
    u = np.stack([YV[::-1], XV[::-1]], axis=-1) * 0.5
    if not batch:
        x, u = x[2], u[2]
    x0, x1, u0, u1 = x[..., 0], x[..., 1], u[..., 0], u[..., 1]
    zero = np.zeros_like(x0)
    expected_state = np.stack([np.stack([x1, x0], -1),
                               np.stack([np.exp(x0), -2.0 * u1], -1),
                               np.stack([zero, zero], -1),
                               np.stack([zero, zero + 0.25], -1)], -2)
    expected_input = np.stack([np.stack([zero + 3.0, zero], -1),
                               np.stack([zero, -2.0 * x1], -1),
                               np.stack([u1, u0], -1),
                               np.stack([zero, zero], -1)], -2)
    expected_out_state = np.stack([np.stack([zero + 1.0, zero], -1),
                                   np.stack([u0, zero], -1)], -2)
    expected_out_input = np.stack([np.stack([zero, zero], -1),
                                   np.stack([x0, zero], -1)], -2)
    jac = jacobians(small_dynamics, small_output)
    assert set(jac) == {"jac_state", "jac_input", "out_jac_state", "out_jac_input"}
    for name, expected in (("jac_state", expected_state), ("jac_input", expected_input),
                           ("out_jac_state", expected_out_state),
                           ("out_jac_input", expected_out_input)):
        result = jac[name](0.0, x, u)
        assert result.shape == np.shape(x)[:-1] + expected.shape[-2:], name
        assert result.dtype == complex
        assert result.flags.c_contiguous
        assert np.array_equal(result, expected), name


def test_rows_without_seeded_variables_are_zero():
    # rows that are a constant, a plain input column or a product of input
    # columns carry no derivative by the state
    def rows(t, x, u):
        return [2.0 * x[0], 7.0, u[0], u[0] * u[1]]

    jac_state = jacobians(rows, rows)["jac_state"]
    x = np.ones((M, 1), dtype=complex)
    u = np.stack([XV, YV], axis=-1)
    result = jac_state(0.0, x, u)
    assert result.shape == (M, 4, 1)
    assert np.all(result[:, 0, 0] == 2.0)
    assert not np.any(result[:, 1:])
