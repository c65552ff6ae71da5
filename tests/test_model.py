"""SystemModel contract: conjugate closure, Jacobian agreement, LTI wrapper."""

import dataclasses

import numpy as np
import pytest

from conftest import conjugate_consistent_state, fd_jacobian
from ltpkit import SystemModel, UsageError, build_case1, build_case2
from ltpkit.model import linear_model

OM1 = 2.0 * np.pi * 50.0


def all_variants():
    # the second build's asymmetric converter filter couples each current to
    # its conjugate through the off-diagonal entries of L_f⁻¹
    unbalanced = {"u_gbeta_mag": 0.5, "u_gbeta_deg": -90.0, "k_sym_g": 1.6}
    for case in (build_case1, build_case2):
        for params, tag in ((unbalanced, ""), (dict(unbalanced, k_sym_c=1.4), "_k_sym_c")):
            for model in case(params).values():
                yield pytest.param(model, id=model.name + tag)


class TestValidation:
    def test_conjugate_pairs_must_be_valid_indices(self):
        a = np.eye(2, dtype=complex)
        kwargs = dict(
            n_states=2, n_inputs=1, n_outputs=1, omega1=OM1,
            dynamics=lambda t, x, u: x, output=lambda t, x, u: x[..., :1],
            jac_state=lambda t, x, u: a, jac_input=lambda t, x, u: a[:, :1],
            out_jac_state=lambda t, x, u: a[:1], out_jac_input=lambda t, x, u: a[:1, :1],
            input_fn=lambda t: np.zeros(np.shape(t) + (1,)),
        )
        with pytest.raises(UsageError):
            SystemModel(conjugate_pairs=((0, 5),), **kwargs)
        with pytest.raises(UsageError, match="more than one conjugate pair"):
            SystemModel(conjugate_pairs=((0, 1), (1, 1)), **kwargs)

    def test_partner_swaps_each_pair(self):
        model = build_case2()["closed_loop"]
        sigma = model.partner
        for i, j in model.conjugate_pairs:
            assert (sigma[i], sigma[j]) == (j, i)
        paired = {k for pair in model.conjugate_pairs for k in pair}
        assert [k for k in range(model.n_states) if sigma[k] == k] == sorted(
            set(range(model.n_states)) - paired)
        # computed from the pairs, not set: a replaced model recomputes it
        unpaired = dataclasses.replace(model, conjugate_pairs=())
        assert unpaired.partner == tuple(range(model.n_states))


class TestInputPeriodicity:
    @pytest.mark.parametrize("builder", [build_case1, build_case2])
    def test_input_repeats_each_period(self, builder, rng):
        model = builder({"u_gbeta_mag": 0.5, "u_gbeta_deg": -90.0})["closed_loop"]
        t = rng.uniform(0.0, 0.02, size=16)
        u0 = model.input_fn(t)
        u1 = model.input_fn(t + model.period)
        assert np.max(np.abs(u1 - u0)) < 1e-12


class TestConjugateClosure:
    @pytest.mark.parametrize("model", list(all_variants()))
    def test_dynamics_closed_under_conjugation(self, model, rng):
        # at a state with x[j] = conj(x[i]) on every pair, f must keep
        # f[j] = conj(f[i])
        x = conjugate_consistent_state(model, rng)
        u = model.input_fn(np.array([0.00137]))[0]
        f = model.dynamics(0.00137, x, u)
        for i, j in model.conjugate_pairs:
            assert abs(f[j] - np.conj(f[i])) < 1e-10


class TestSingleStateCalls:
    @pytest.mark.parametrize("model", list(all_variants()))
    def test_single_state_matches_batch_row(self, model, rng):
        # the RK4 oracle calls dynamics on one state at a time, as a list,
        # whose arithmetic an (n,) array shares bit for bit; the solver calls
        # it on (M, n) batches: both must give the same f
        m = 50
        t = rng.uniform(0.0, model.period, size=m)
        x = 0.5 * (rng.standard_normal((m, model.n_states))
                   + 1j * rng.standard_normal((m, model.n_states)))
        u = model.input_fn(t)
        batch = model.dynamics(t, x, u)
        for k in range(m):
            single = model.dynamics(t[k], x[k], u[k])
            assert single.shape == (model.n_states,)
            assert single.dtype == complex
            assert single.flags.c_contiguous
            err = np.max(np.abs(single - batch[k]))
            assert err <= 1e-14 * np.max(np.abs(batch[k]))

    @pytest.mark.parametrize("model", list(all_variants()))
    def test_list_state_gives_list(self, model, rng):
        # the oracle passes the state and the input as lists and gets the row
        # list back; an (n,) array still gives a C-contiguous complex (n,)
        # array, with the same bits
        for t in rng.uniform(0.0, model.period, size=10):
            x = 0.5 * (rng.standard_normal(model.n_states)
                       + 1j * rng.standard_normal(model.n_states))
            u = model.input_fn(np.array([t]))[0]
            from_list = model.dynamics(float(t), x.tolist(), u.tolist())
            from_array = model.dynamics(float(t), x, u)
            assert type(from_list) is list
            assert [type(v) for v in from_list] == [complex] * model.n_states
            assert type(from_array) is np.ndarray
            assert from_array.shape == (model.n_states,)
            assert from_array.dtype == complex
            assert from_array.flags.c_contiguous
            assert np.array(from_list).tobytes() == from_array.tobytes()

    @pytest.mark.parametrize("model", list(all_variants()))
    def test_numpy_scalar_time_matches_float_time(self, model, rng):
        # the oracle passes Python-float times; a caller's np.float64 time
        # must take the same single-state arithmetic, bit for bit
        for t in rng.uniform(0.0, model.period, size=20):
            x = 0.5 * (rng.standard_normal(model.n_states)
                       + 1j * rng.standard_normal(model.n_states))
            u = model.input_fn(np.array([t]))[0]
            assert isinstance(t, np.float64)
            assert np.array_equal(model.dynamics(float(t), x, u), model.dynamics(t, x, u))


class TestBatchedLayout:
    @pytest.mark.parametrize("model", list(all_variants()))
    def test_batched_results_are_c_ordered(self, model, rng):
        # every batched callable returns a C-ordered array of its own size:
        # the transforms reshape samples to (M, -1), which copies a strided
        # array first
        m = 40
        t = rng.uniform(0.0, model.period, size=m)
        x = rng.standard_normal((m, model.n_states)) \
            + 1j * rng.standard_normal((m, model.n_states))
        u = model.input_fn(t)
        n, k, p = model.n_states, model.n_inputs, model.n_outputs
        for name, shape in (("dynamics", (m, n)), ("output", (m, p)),
                            ("jac_state", (m, n, n)), ("jac_input", (m, n, k)),
                            ("out_jac_state", (m, p, n)), ("out_jac_input", (m, p, k))):
            result = getattr(model, name)(t, x, u)
            assert result.shape == shape, name
            assert result.flags.c_contiguous, (name, result.strides)


class TestJacobians:
    @pytest.mark.parametrize("model", list(all_variants()))
    @pytest.mark.parametrize("which", ["state", "input", "out_state", "out_input"])
    def test_analytic_matches_finite_differences(self, model, which, rng):
        x = conjugate_consistent_state(model, rng)
        u = model.input_fn(np.array([0.0042]))[0]
        t = 0.0042
        analytic = {"state": model.jac_state, "input": model.jac_input,
                    "out_state": model.out_jac_state,
                    "out_input": model.out_jac_input}[which](t, x, u)
        numeric = fd_jacobian(model, t, x, u, which=which)
        scale = max(1.0, float(np.max(np.abs(analytic))))
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_case1_pll_angle_row_is_linear_in_integrator(self, rng):
        model = build_case1()["closed_loop"]
        labels = list(model.state_labels)
        delta, xpll = labels.index("delta_pll"), labels.index("x_pll")
        x = conjugate_consistent_state(model, rng)
        u = model.input_fn(np.array([0.003]))[0]
        jac = model.jac_state(0.003, x, u)
        assert jac[delta, xpll] == pytest.approx(1.0)

    def test_periodic_modulation_present(self, rng):
        # A(t) of the benchmark models carries e^{±jω₁t} terms: two sample
        # times a quarter period apart must differ.
        model = build_case1()["closed_loop"]
        x = conjugate_consistent_state(model, rng)
        u = model.input_fn(np.array([0.0]))[0]
        j0 = model.jac_state(0.0, x, u)
        j1 = model.jac_state(0.005, x, u)
        assert np.max(np.abs(j0 - j1)) > 1e-3


class TestLinearModel:
    def test_jacobians_time_independent_and_exact(self, rng):
        a = np.array([[-2.0, 1.0], [0.0, -3.0]], dtype=complex)
        model = linear_model(a, omega1=OM1)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u = np.zeros(2, dtype=complex)
        j0 = model.jac_state(0.0, x, u)
        j1 = model.jac_state(0.0123, x, u)
        assert np.array_equal(j0, j1)
        assert np.allclose(j0, a)
        numeric = fd_jacobian(model, 0.0, x, u, which="state")
        assert np.max(np.abs(numeric - a)) < 1e-6

    def test_dynamics_is_linear_map(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        model = linear_model(a, omega1=OM1)
        x = rng.standard_normal(3) + 0j
        u = np.zeros(3, dtype=complex)
        assert np.allclose(model.dynamics(0.0, x, u), a @ x)

    def test_zero_state_zero_input_gives_zero_rate(self):
        model = linear_model(np.diag([-1.0, -2.0]).astype(complex), omega1=OM1)
        f = model.dynamics(0.0, np.zeros(2, complex), np.zeros(2, complex))
        assert np.max(np.abs(f)) == 0.0


class TestPeriodProperty:
    def test_period_matches_omega1(self):
        model = build_case1()["closed_loop"]
        assert model.period == pytest.approx(2.0 * np.pi / model.omega1)
        assert model.period == pytest.approx(0.02)
