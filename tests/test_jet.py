"""Forward-mode jets: each operation against its closed-form derivative, the
Jacobians that ``jacobians`` derives from a small ``dynamics`` and
``output``, and their harmonics against the transformed samples."""

import dataclasses
import functools

import numpy as np
import pytest

from ltpkit import UsageError, build_case1, build_case2, mode_set, solve_pss
from ltpkit.analysis import HssMatrices
from ltpkit.jet import Jet, jacobians
from ltpkit.spectral import jacobian_harmonics, min_samples, samples_to_spectrum

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


JACOBIANS = ("jac_state", "jac_input", "out_jac_state", "out_jac_input")
# per case: default, unbalanced and asymmetric operating points
POINTS = {
    "case1": (build_case1, {"default": {}, "unbalanced": {"u_gbeta_mag": 0.3},
                            "asymmetric": {"k_sym_c": 1.4}}),
    "case2": (build_case2, {"default": {}, "unbalanced": {"k_sym_g": 2.2},
                            "asymmetric": {"k_sym_c": 1.4}}),
}
ORBITS = [(case, variant, point) for case in POINTS
          for variant in ("closed_loop", "open_loop") for point in POINTS[case][1]]


@functools.lru_cache(maxsize=None)
def orbit(case, variant, point):
    """A built-in model and its solved HSS (t, x(t), u(t) on the grid)."""
    build, points = POINTS[case]
    model = build(dict(points[point]))[variant]
    return model, solve_pss(model).hss


@pytest.mark.parametrize("case, variant, point", ORBITS)
class TestHarmonics:
    """``harmonics`` of every jets Jacobian at 2N, against
    ``samples_to_spectrum`` of its dense samples."""

    def test_equal_the_transformed_samples(self, case, variant, point):
        model, hss = orbit(case, variant, point)
        order = 2 * hss.n_harmonics
        for name in JACOBIANS:
            jac = getattr(model, name)
            got = jac.harmonics(hss.times, hss.states, hss.inputs, order)
            want = samples_to_spectrum(jac(hss.times, hss.states, hss.inputs), order)
            assert got.shape == want.shape and got.dtype == complex, name
            assert np.max(np.abs(got - want), initial=0.0) \
                <= 4e-15 * np.max(np.abs(want), initial=0.0), name

    def test_constant_entries_are_exact(self, case, variant, point):
        # an entry with one value at every sample, zero included, is that
        # value at harmonic 0 and exactly zero at every other harmonic
        model, hss = orbit(case, variant, point)
        order = 2 * hss.n_harmonics
        for name in JACOBIANS:
            jac = getattr(model, name)
            samples = jac(hss.times, hss.states, hss.inputs)
            constant = np.all(samples == samples[0], axis=0)
            got = jac.harmonics(hss.times, hss.states, hss.inputs, order)
            assert np.array_equal(got[order][constant], samples[0][constant]), name
            assert not np.any(np.delete(got, order, axis=0)[:, constant]), name

    def test_too_few_samples_refused_like_the_samples_path(self, case, variant, point):
        model, hss = orbit(case, variant, point)
        order = 2 * hss.n_harmonics
        m = min_samples(order) - 1
        t, x, u = hss.times[:m], hss.states[:m], hss.inputs[:m]
        for name in JACOBIANS:
            jac = getattr(model, name)
            with pytest.raises(UsageError) as dense:
                samples_to_spectrum(jac(t, x, u), order)
            with pytest.raises(UsageError) as direct:
                jac.harmonics(t, x, u, order)
            with pytest.raises(UsageError) as fallback:
                jacobian_harmonics(lambda *a: jac(*a), t, x, u, order)
            assert str(direct.value) == str(dense.value) == str(fallback.value), name


def traced(model, calls):
    """``model`` with each callable wrapped as a span tracer wraps it: a
    ``functools.wraps`` wrapper that counts its calls, put in place by
    ``dataclasses.replace``."""
    def wrap(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("dynamics",) + JACOBIANS
    return dataclasses.replace(model, **{n: wrap(n, getattr(model, n)) for n in names})


@pytest.mark.parametrize("case", ["case1", "case2"])
class TestWrappedJacobians:
    def test_wrapper_keeps_harmonics_and_bits(self, case):
        model, _ = orbit(case, "closed_loop", "unbalanced")
        calls = dict.fromkeys(("dynamics",) + JACOBIANS, 0)
        wrapped = traced(model, calls)
        for name in JACOBIANS:
            assert getattr(wrapped, name).harmonics is getattr(model, name).harmonics
        result = solve_pss(wrapped)
        assert calls["dynamics"] > 0
        # the HSS reads the harmonics, which bypass the counted call
        assert calls["jac_state"] == 0
        plain = solve_pss(model)
        assert np.array_equal(result.spectrum, plain.spectrum)
        assert np.array_equal(result.hss.eigenvalues, plain.hss.eigenvalues)
        assert np.array_equal(result.hss.b_full, plain.hss.b_full)

    def test_plain_closures_take_the_samples_path(self, case):
        model, hss = orbit(case, "closed_loop", "unbalanced")

        def closure(jac):
            return lambda t, x, u: jac(t, x, u)

        plain = dataclasses.replace(
            model, **{name: closure(getattr(model, name)) for name in JACOBIANS})
        assert not hasattr(plain.jac_state, "harmonics")
        sampled = HssMatrices(plain, hss.times, hss.states, hss.inputs, hss.n_harmonics)
        for attr in ("_stability", "b_full", "c_full", "d_full"):
            want, got = getattr(hss, attr), getattr(sampled, attr)
            assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want)), attr
        # one weakest mode to round-off; the blocks and real form are the same
        assert [b.tolist() for b in sampled.blocks] == [b.tolist() for b in hss.blocks]
        assert sampled.real_form == hss.real_form
        assert abs(mode_set(sampled).weakest - mode_set(hss).weakest) \
            <= 1e-10 * abs(mode_set(hss).weakest)
