"""Benchmark VSC case builders: gains, asymmetry helpers, operating points."""

import numpy as np
import pytest

from ltpkit import (
    UsageError,
    asymmetric_inductance_matrix,
    build_case1,
    build_case2,
    make_params,
    pi_gains_from_bandwidth,
)

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
