"""Benchmark VSC case builders: gains, asymmetry helpers, operating points."""

import numpy as np
import pytest

from ltpkit import UsageError, build_case1, build_case2
from ltpkit.cases import asymmetric_inductance_matrix, make_params, pi_gains_from_bandwidth

PARAMS1 = make_params("case1")
PARAMS2 = make_params("case2")


class TestGainDesignRules:
    def test_default_case1_values(self):
        g = pi_gains_from_bandwidth(200.0, 20.0, None, PARAMS1)
        assert g["k_pc"] == pytest.approx(2.0 * 200.0 * 7.58e-5)
        assert g["k_ic"] == pytest.approx(2.0 * 200.0**2 * 7.58e-5)
        assert g["k_ppll"] == pytest.approx(2.0 * 20.0 / 0.690)
        assert g["k_ipll"] == pytest.approx(2.0 * 20.0**2 / 0.690)
        assert "k_ps" not in g and "k_is" not in g

    def test_power_loop_gains(self):
        g = pi_gains_from_bandwidth(200.0, 20.0, 20.0, PARAMS2)
        assert g["k_ps"] == pytest.approx(20.0 / (1.5 * 0.690 * 200.0))
        assert g["k_is"] == pytest.approx(20.0 / (1.5 * 0.690))

    def test_homogeneity_in_bandwidth(self):
        g1 = pi_gains_from_bandwidth(150.0, 10.0, None, PARAMS1)
        g2 = pi_gains_from_bandwidth(300.0, 20.0, None, PARAMS1)
        assert g2["k_pc"] == pytest.approx(2.0 * g1["k_pc"])
        assert g2["k_ic"] == pytest.approx(4.0 * g1["k_ic"])
        assert g2["k_ppll"] == pytest.approx(2.0 * g1["k_ppll"])
        assert g2["k_ipll"] == pytest.approx(4.0 * g1["k_ipll"])

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(UsageError):
            pi_gains_from_bandwidth(0.0, 20.0, None, PARAMS1)
        with pytest.raises(UsageError):
            pi_gains_from_bandwidth(200.0, -5.0, None, PARAMS1)
        with pytest.raises(UsageError):
            pi_gains_from_bandwidth(200.0, 20.0, 0.0, PARAMS2)


class TestInductanceMatrix:
    def test_symmetric_phases_decouple(self):
        l = 7.58e-5
        m = asymmetric_inductance_matrix(l, l, l)
        assert np.allclose(m, l * np.eye(2), atol=1e-20)

    def test_scaled_third_phase_structure(self):
        l, k = 7.58e-5, 1.6
        m = asymmetric_inductance_matrix(l, l, k * l)
        mean = (2.0 + k) / 3.0 * l
        assert m[0, 0] == pytest.approx(mean)
        assert m[1, 1] == pytest.approx(mean)
        assert abs(m[0, 0].imag) < 1e-20
        assert m[0, 1] == pytest.approx(np.conj(m[1, 0]))
        assert abs(m[0, 1]) == pytest.approx(abs(k - 1.0) / 3.0 * l)

    def test_continuity_at_symmetry(self):
        l = 1e-4
        m = asymmetric_inductance_matrix(l, l, l * (1.0 + 1e-9))
        assert np.max(np.abs(m - l * np.eye(2))) < 1e-8 * l

    def test_matches_first_principles_reduction(self):
        # independent chain: abc inductance -> Clarke -> complex pair
        la, lb, lc = 3.1e-5, 8.7e-5, 5.4e-5
        clarke = (2.0 / 3.0) * np.array([[1.0, -0.5, -0.5],
                                         [0.0, np.sqrt(3) / 2, -np.sqrt(3) / 2]])
        clarke_inv = np.array([[1.0, 0.0],
                               [-0.5, np.sqrt(3) / 2],
                               [-0.5, -np.sqrt(3) / 2]])
        t = np.array([[1.0, 1j], [1.0, -1j]])
        l_ab = clarke @ np.diag([la, lb, lc]) @ clarke_inv
        expect = t @ l_ab @ np.linalg.inv(t)
        got = asymmetric_inductance_matrix(la, lb, lc)
        assert np.max(np.abs(got - expect)) < 1e-18

    def test_nonpositive_rejected(self):
        with pytest.raises(UsageError):
            asymmetric_inductance_matrix(1e-4, 0.0, 1e-4)


class TestParameterHandling:
    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(UsageError, match="bogus"):
            make_params("case1", {"bogus": 1.0})

    def test_case_specific_keys(self):
        make_params("case2", {"alpha_s": 30.0})
        with pytest.raises(UsageError):
            make_params("case1", {"alpha_s": 30.0})

    def test_validation(self):
        with pytest.raises(UsageError):
            make_params("case1", {"l_fa": -1.0})
        with pytest.raises(UsageError):
            make_params("case2", {"c_f": 0.0})
        with pytest.raises(UsageError):
            make_params("case3")
        # the open loop feeds its capacitor through r_cf
        with pytest.raises(UsageError, match="parameter r_cf must be positive"):
            build_case2({"r_cf": 0.0})


class TestBuilders:
    def test_variant_keys_and_sizes(self):
        c1 = build_case1()
        c2 = build_case2()
        assert set(c1) == set(c2) == {"closed_loop", "open_loop"}
        assert c1["closed_loop"].n_states == 6
        assert c1["open_loop"].n_states == 6
        assert c2["closed_loop"].n_states == 18
        assert c2["open_loop"].n_states == 16   # no grid branch
        for m in (*c1.values(), *c2.values()):
            assert m.n_inputs == 2
            assert len(m.state_labels) == m.n_states

    def test_case2_closed_loop_extends_open_loop_layout(self):
        # the closed loop is the open loop plus the grid-current pair, last
        built = build_case2()
        closed, open_loop = built["closed_loop"], built["open_loop"]
        assert closed.state_labels[:16] == open_loop.state_labels
        assert closed.state_labels[16:] == ("i_g", "i_g_conj")
        assert closed.conjugate_pairs[:-1] == open_loop.conjugate_pairs
        assert closed.conjugate_pairs[-1] == (16, 17)

    @pytest.mark.parametrize("builder", [build_case1, build_case2])
    def test_open_loop_ignores_grid_inductance(self, builder, rng):
        # the open loop is driven by its bus voltage: neither the grid
        # inductance nor its asymmetry reaches it
        base = builder()["open_loop"]
        t = rng.uniform(0.0, base.period, size=40)
        x = rng.standard_normal((40, base.n_states)) \
            + 1j * rng.standard_normal((40, base.n_states))
        u = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
        for params in ({"k_sym_g": 2.5}, {"l_ga": 4e-4}, {"k_sym_g": 0.3, "l_ga": 1e-5}):
            model = builder(params)["open_loop"]
            for name in ("dynamics", "jac_state", "jac_input"):
                assert np.array_equal(getattr(model, name)(t, x, u),
                                      getattr(base, name)(t, x, u)), (params, name)

    @pytest.mark.parametrize("params", [{}, {"u_gbeta_mag": 0.7}, {"k_sym_c": 1.4}],
                             ids=["balanced", "unbalanced", "asym_filter"])
    def test_case2_open_loop_is_closed_loop_at_matching_grid_current(self, params, rng):
        # with i_g = i_c - (u - u_f)/r_t (and its conjugate partner) the closed
        # loop's bus voltage is u, so its rows of the shared states must be
        # the open loop's: one copy of the converter equations serves both
        built = build_case2(params)
        closed, open_loop = built["closed_loop"], built["open_loop"]
        p = make_params("case2", params)
        rt = p["r_cf"] / (p["u_base"] / p["i_base"])
        shared = [closed.state_labels.index(label) for label in open_loop.state_labels]
        ic, icc, uf, ufc, ig, igc = (closed.state_labels.index(k) for k in (
            "i_c", "i_c_conj", "u_fc", "u_fc_conj", "i_g", "i_g_conj"))
        m = 40
        t = rng.uniform(0.0, closed.period, size=m)
        x = rng.standard_normal((m, 16)) + 1j * rng.standard_normal((m, 16))
        u = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        x_cl = np.zeros((m, 18), dtype=complex)
        x_cl[:, shared] = x
        x_cl[:, ig] = x_cl[:, ic] - (u[:, 0] - x_cl[:, uf]) / rt
        x_cl[:, igc] = x_cl[:, icc] - (u[:, 1] - x_cl[:, ufc]) / rt
        u_grid = closed.input_fn(t)
        f_open = open_loop.dynamics(t, x, u)
        f_closed = closed.dynamics(t, x_cl, u_grid)[:, shared]
        scale = np.max(np.abs(f_open), axis=1, keepdims=True)
        assert np.max(np.abs(f_closed - f_open) / scale) < 1e-12
        for k in range(3):
            single_open = open_loop.dynamics(t[k], x[k], u[k])
            single_closed = closed.dynamics(t[k], x_cl[k], u_grid[k])[shared]
            assert np.max(np.abs(single_closed - single_open)) < 1e-12 * scale[k, 0]

    def test_conjugate_pairs_match_labels(self):
        for m in (build_case1()["closed_loop"], build_case2()["closed_loop"]):
            for i, j in m.conjugate_pairs:
                assert m.state_labels[j] == m.state_labels[i] + "_conj"


class TestOperatingPoints:
    def test_case1_current_tracks_reference(self, case1_balanced):
        model, result = case1_balanced
        ic = list(model.state_labels).index("i_c")
        s = result.spectrum
        assert abs(s[s.shape[0] // 2 + 1, ic]) == pytest.approx(1.0, abs=1e-6)

    def test_case1_pll_locked(self, case1_balanced):
        model, result = case1_balanced
        labels = list(model.state_labels)
        xpll = labels.index("x_pll")
        delta = labels.index("delta_pll")
        # frequency correction integrator empty, angle purely DC
        assert np.max(np.abs(result.spectrum[:, xpll])) < 1e-9
        off_dc = np.delete(result.spectrum[:, delta], 4)
        assert np.max(np.abs(off_dc)) < 1e-9

    def test_case2_sogi_tracks_capacitor_voltage(self, case2_default):
        model, result = case2_default
        labels = list(model.state_labels)
        uf, xs = labels.index("u_fc"), labels.index("x_sogi")
        first = result.spectrum[result.spectrum.shape[0] // 2 + 1]
        u1, s1 = first[uf], first[xs]
        assert abs(u1) > 0.9
        assert abs(s1 - u1) < 0.01 * abs(u1)

    def test_case2_unbalance_split(self, case2_unbalanced):
        # dual-frame control keeps the converter current balanced; the grid
        # branch carries the negative sequence instead
        model, result = case2_unbalanced
        labels = list(model.state_labels)
        ic, ig = labels.index("i_c"), labels.index("i_g")
        s = result.spectrum
        n = s.shape[0] // 2
        neg, pos = s[n - 1], s[n + 1]
        ratio_ic = abs(neg[ic]) / abs(pos[ic])
        ratio_ig = abs(neg[ig]) / abs(pos[ig])
        assert ratio_ic < 1e-8
        assert ratio_ig > 5e-3
