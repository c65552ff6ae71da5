"""Time-domain RK4 oracle: integration accuracy, period tools, growth fitting."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import diverging_after
from ltpkit import Trajectory, UsageError, integrate
from ltpkit.model import linear_model
from ltpkit.oracle import DIVERGENCE_LIMIT, KICK, KICK_STATE, MAX_STEPS, \
    compare_waveforms, grid_steps, growth_rate_fit, kicked_response, last_period
from ltpkit.spectral import spectrum_to_samples

OM1 = 2.0 * np.pi * 50.0
T1 = 0.02


class TestGridSteps:
    def test_counts(self):
        assert grid_steps(5e-5, 0.7, 0.02, 0.2) == (14000, 400, 4000)
        assert grid_steps(1e-3, 1.0) == (1000, 0, 0)

    @pytest.mark.parametrize("args, message", [
        ((np.nan, 1.0), "must be positive"),
        ((0.0, 1.0), "must be positive"),
        ((-1e-3, 1.0), "must be positive"),
        ((1e-3, 0.0105), r"time span/step = .* not a whole number"),
        ((1e-3, 1.0, 1e-3), r"period/step = .* at least 2 steps"),
        ((1e-3, 1.0, 0.02, 0.01), r"onset/step = .* at least 20 steps"),
        ((1e-3, 0.07, 0.02, 0.02), "three post-onset periods"),
        ((1e-3, 0.01, 0.02), "shorter than one period"),
        ((1e-3, MAX_STEPS * 1e-3 + 1e-3), "exceed the limit"),
    ], ids=["nan_step", "zero_step", "negative_step", "fractional_span",
            "period_under_2_steps", "onset_under_a_period",
            "under_3_post_onset_periods", "span_under_a_period", "over_max_steps"])
    def test_each_rule_refuses(self, args, message):
        with pytest.raises(UsageError, match=message):
            grid_steps(*args)


class TestIntegrate:
    def test_exponential_decay_accuracy(self):
        model = linear_model(np.array([[-1.0]], dtype=complex))
        traj = integrate(model, [1.0], 1.0, 1e-3)
        assert not traj.diverged
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)
        assert traj.times[-1] == pytest.approx(1.0)

    def test_undamped_oscillator_energy(self):
        # |x| is conserved by dx/dt = j*om1*x; RK4 amplitude drift over one
        # second at the production step must stay below 1e-8
        model = linear_model(np.array([[1j * OM1]]))
        traj = integrate(model, [1.0], 1.0, 5e-5)
        drift = np.max(np.abs(np.abs(traj.states[:, 0]) - 1.0))
        assert drift < 1e-8

    def test_divergence_flagged_with_partial_trajectory(self):
        model = linear_model(np.array([[50.0]], dtype=complex))
        traj = integrate(model, [1.0], 0.5, 1e-4)
        assert traj.diverged
        assert traj.times[-1] < 0.5
        assert traj.states.shape[0] == traj.times.shape[0]
        assert np.all(np.isfinite(traj.states))

    def test_non_finite_state_flagged_without_warning(self):
        # dynamics that turn NaN at t* (four calls per RK4 step) with no
        # overflow on the way: the divergence test must catch the NaN itself
        # and stop within one step
        t_star, h = 0.2, 1e-3
        model = diverging_after(linear_model(np.array([[-1.0, 0.5], [0.0, -2.0]])),
                                4 * round(t_star / h))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = integrate(model, [1.0, 1.0], 1.0, h)
        assert traj.diverged
        assert traj.times[-1] < t_star + h
        assert traj.states.shape[0] == traj.times.shape[0]
        assert np.all(np.isfinite(traj.states))

    @pytest.mark.parametrize("error", [ZeroDivisionError("complex division by zero"),
                                       OverflowError("math range error")],
                             ids=["zero_division", "overflow"])
    def test_arithmetic_error_flagged_as_divergence(self, error):
        # Python scalars raise where numpy gives inf or NaN (1/e after cmath.exp
        # underflowed e to 0, cmath.exp or abs() overflowing): the step that
        # raises ends the trajectory, and the steps before it are kept
        n_ok, h = 200, 1e-3
        base = linear_model(np.array([[-1.0, 0.5], [0.0, -2.0]]))
        traj = integrate(diverging_after(base, 4 * n_ok + 2, error), [1.0, 1.0], 1.0, h)
        plain = integrate(base, [1.0, 1.0], n_ok * h, h)
        assert traj.diverged
        assert traj.states.shape == (n_ok + 1, 2)
        assert np.array_equal(traj.times, plain.times)
        assert np.array_equal(traj.states, plain.states)

    @staticmethod
    def _landing(value, k, n=3):
        """A model at rest whose state 0 lands exactly on ``value`` at step
        ``k`` of an RK4 run with step 6 (h/6 = 1): only that step's first
        stage has a non-zero rate."""
        calls = [0]

        def dynamics(t, x, u):
            calls[0] += 1
            f = [0j] * n
            if calls[0] == 4 * k + 1:
                f[0] = value
            return f

        return dataclasses.replace(linear_model(np.zeros((n, n))), dynamics=dynamics)

    @pytest.mark.parametrize("value", [
        2.0 * DIVERGENCE_LIMIT,
        complex(np.inf, 0.0),
        complex(np.nan, 0.0),
        complex(1.5e308, 1.5e308),   # finite, but abs() raises OverflowError
    ], ids=["above_limit", "inf", "nan", "abs_overflow"])
    def test_divergence_flagged_at_its_step(self, value):
        k = 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(self._landing(value, k), [0.0, 0.0, 0.0], 60.0, 6.0)
        assert traj.diverged
        assert traj.states.shape == (k + 1, 3)
        assert np.all(traj.states == 0.0)

    def test_entries_at_the_limit_not_flagged(self):
        # each entry at the limit, their moduli summing past it: the sum test
        # fails and the exact per-entry test must accept the state
        x0 = [DIVERGENCE_LIMIT, 1j * DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT]
        traj = integrate(self._landing(0j, 0), x0, 60.0, 6.0)
        assert not traj.diverged
        assert traj.states.shape == (11, 3)
        assert np.all(traj.states == np.array(x0))

    def test_span_validation(self):
        model = linear_model(np.array([[-1.0]]))
        with pytest.raises(UsageError):
            integrate(model, [1.0], 0.0105, 1e-3)   # not an integer step count
        with pytest.raises(UsageError):
            integrate(model, [1.0], -1.0, 1e-3)
        with pytest.raises(UsageError):
            integrate(model, [1.0, 2.0], 1.0, 1e-3)   # wrong state shape

    @pytest.mark.parametrize("t_span, step", [
        (1.0, 1e-12),                      # a tiny oracle step: 10^12 steps
        (1e9, 5e-5),                       # a huge horizon
        (MAX_STEPS * 1e-3 + 1e-3, 1e-3),   # one step over the cap
        (1.0, 1e-320),                     # the step count overflows to inf
    ], ids=["tiny_step", "huge_span", "cap_plus_1", "overflow"])
    def test_step_count_bounded_before_allocating(self, t_span, step):
        model = linear_model(np.array([[-1.0]]))
        with pytest.raises(UsageError, match="exceed the limit"):
            integrate(model, [1.0], t_span, step)

    @pytest.mark.parametrize("which", ["linear", "case1"])
    def test_matches_rk4_recursion_bit_for_bit(self, which, case1_balanced):
        # integrate evaluates the classical RK4 sums in this order; any
        # reordering moves the last bits of the trajectory
        if which == "linear":
            model = linear_model(
                np.array([[-1.0, 0.5j], [-30.0, -2.0]]),
                input_fn=lambda t: np.stack([np.cos(OM1 * t), np.sin(OM1 * t)], axis=-1)
                + 0j)
            x0 = np.array([1.0, 0.5j])
        else:
            model, result = case1_balanced
            x0 = result.waveforms[0]
        h, n = 5e-5, 200
        traj = integrate(model, x0, n * h, h)
        u = model.input_fn(0.5 * h * np.arange(2 * n + 1))
        f = model.dynamics
        x = np.asarray(x0, dtype=complex)
        expected = [x]
        for k in range(n):
            t = h * k
            k1 = f(t, x, u[2 * k])
            k2 = f(t + 0.5 * h, x + 0.5 * h * k1, u[2 * k + 1])
            k3 = f(t + 0.5 * h, x + 0.5 * h * k2, u[2 * k + 1])
            k4 = f(t + h, x + h * k3, u[2 * k + 2])
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            expected.append(x)
        assert not traj.diverged
        assert np.array_equal(traj.states, np.array(expected))

    def test_array_returning_dynamics_gets_python_complex_stages(self):
        # a single-state dynamics that returns an (n,) array, as linear_model
        # does, has its result made a list, so every stage state it is passed
        # holds Python complex rather than numpy scalars
        base = linear_model(np.array([[-1.0, 0.5j], [-30.0, -2.0]]))
        seen = []

        def dynamics(t, x, u):
            seen.append([type(v) for v in x])
            return base.dynamics(t, x, u)

        model = dataclasses.replace(base, dynamics=dynamics)
        integrate(model, [1.0, 0.5j], 3e-3, 1e-3)
        assert len(seen) == 12
        assert all(types == [complex, complex] for types in seen)

    def test_explicit_start_time(self):
        model = linear_model(np.array([[-1.0]]))
        traj = integrate(model, [1.0], (0.5, 1.5), 1e-3)
        assert traj.times[0] == pytest.approx(0.5)
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)


class TestKeep:
    @pytest.fixture(params=["linear", "case1", "case2"])
    def run(self, request, case1_balanced, case2_default):
        if request.param == "linear":
            model = linear_model(
                np.array([[-1.0, 0.5j], [-30.0, -2.0]]),
                input_fn=lambda t: np.stack([np.cos(OM1 * t), np.sin(OM1 * t)], axis=-1)
                + 0j)
            return model, np.array([1.0, 0.5j])
        model, result = case1_balanced if request.param == "case1" else case2_default
        return model, result.waveforms[0]

    def test_equals_tail_of_full_run(self, run):
        # 1,250 steps read 2,501 inputs, drawn in three chunks of up to 1,024
        model, x0 = run
        h, n = 5e-5, 1250
        full = integrate(model, x0, (0.01, 0.01 + n * h), h)
        for keep in (1, 401, 1250, n + 1, n + 7):
            traj = integrate(model, x0, (0.01, 0.01 + n * h), h, keep=keep)
            assert not traj.diverged
            assert np.array_equal(traj.times, full.times[-keep:])
            assert np.array_equal(traj.states, full.states[-keep:])

    @pytest.mark.parametrize("keep", [1, 4, 150, 250, 400, 1001])
    def test_divergence_keeps_only_reached_rows(self, keep):
        # the NaN arrives in step 201 of 1,000, before every window but the
        # whole run's: the run returns the last samples it reached, never an
        # unwritten row
        base = linear_model(np.array([[-1.0, 0.5], [0.0, -2.0]]))
        full = integrate(diverging_after(base, 4 * 200 + 1), [1.0, 1.0], 1.0, 1e-3)
        traj = integrate(diverging_after(base, 4 * 200 + 1), [1.0, 1.0], 1.0, 1e-3,
                         keep=keep)
        assert full.diverged and traj.diverged
        assert full.states.shape == (201, 2)
        assert np.array_equal(traj.times, full.times[-keep:])
        assert np.array_equal(traj.states, full.states[-keep:])

    def test_keep_must_be_positive(self):
        model = linear_model(np.array([[-1.0]]))
        with pytest.raises(UsageError, match="keep"):
            integrate(model, [1.0], 1.0, 1e-3, keep=0)

    def test_long_run_memory_bounded(self, case1_balanced):
        # 50 periods on the orbit, keeping one period and one sample: no array
        # grows with the run (storing every state takes 1.9 MB here)
        model, result = case1_balanced
        tracemalloc.start()
        try:
            traj = integrate(model, result.waveforms[0], 50 * T1, 5e-5, keep=401)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (401, 6)
        assert peak < 1e6


class TestLastPeriod:
    def test_exact_periodic_signal(self):
        h = 5e-5
        times = h * np.arange(1201)
        states = np.exp(1j * OM1 * times)[:, None]
        traj = Trajectory(times=times, states=states, step=h)
        t, x = last_period(traj, T1)
        assert t.shape == (400,)
        assert t[0] / T1 == pytest.approx(round(t[0] / T1), abs=1e-9)
        assert np.allclose(x[:, 0], np.exp(1j * OM1 * t))

    def test_phase_alignment_with_offset_start(self):
        h = 5e-5
        times = 0.013 + h * np.arange(1000)
        states = np.cos(OM1 * times)[:, None].astype(complex)
        traj = Trajectory(times=times, states=states, step=h)
        t, x = last_period(traj, T1)
        assert t.shape == (400,)
        k = t[0] / T1
        assert k == pytest.approx(round(k), abs=1e-9)

    def test_too_short_rejected(self):
        h = 5e-5
        times = h * np.arange(100)
        traj = Trajectory(times=times, states=np.zeros((100, 1)), step=h)
        with pytest.raises(UsageError):
            last_period(traj, T1)


class TestCompareWaveforms:
    @staticmethod
    def _wave(m, offset=0.0):
        t = T1 * np.arange(m) / m
        return np.exp(1j * OM1 * t)[:, None] + offset

    def test_identical_is_zero(self):
        a = self._wave(400)
        err = compare_waveforms(a, a)
        assert err["rms_error"][0] == 0.0
        assert err["max_error"][0] == 0.0

    def test_dc_offset_measured_exactly(self):
        err = compare_waveforms(self._wave(400), self._wave(400, offset=0.01))
        assert err["rms_error"][0] == pytest.approx(0.01, rel=1e-9)
        assert err["max_error"][0] == pytest.approx(0.01, rel=1e-9)

    @pytest.mark.parametrize("other", [(256, 1), (400, 2)],
                             ids=["sample_count", "state_count"])
    def test_shape_mismatch_rejected(self, other):
        # both waveforms must be sampled at the same times: nothing is resampled
        with pytest.raises(UsageError, match="shapes differ"):
            compare_waveforms(self._wave(400), np.zeros(other, dtype=complex))


class TestGrowthFit:
    @staticmethod
    def _synthetic(rate, n_periods=10, onset_periods=3, mag=0.01):
        h = 1e-4
        p = int(round(T1 / h))
        times = h * np.arange(n_periods * p + 1)
        base = np.exp(1j * OM1 * times)
        pert = np.where(
            times >= onset_periods * T1,
            mag * np.exp((rate + 1j * 2.0 * np.pi * 30.0) * (times - onset_periods * T1)),
            0.0,
        )
        states = (base + pert)[:, None]
        return Trajectory(times=times, states=states, step=h)

    def test_decay_rate_recovered(self):
        fit = growth_rate_fit(self._synthetic(-2.0), 0, 3 * T1, T1)
        assert not fit.floored
        assert fit.rate == pytest.approx(-2.0, rel=0.05)

    def test_growth_rate_recovered(self):
        fit = growth_rate_fit(self._synthetic(+4.0), 0, 3 * T1, T1)
        assert fit.rate == pytest.approx(+4.0, rel=0.05)

    def test_fast_decay_floors(self):
        fit = growth_rate_fit(self._synthetic(-2.0, mag=1e-12), 0, 3 * T1, T1)
        assert fit.floored
        assert fit.rate < -1e5

    def test_onset_must_leave_reference_period(self):
        traj = self._synthetic(-2.0)
        with pytest.raises(UsageError):
            growth_rate_fit(traj, 0, 0.5 * T1, T1)


class TestKickedResponse:
    def test_conjugate_pair_kicked_together(self, case1_balanced):
        model, result = case1_balanced
        x0 = result.waveforms[0]
        onset, t_end, h = 0.01, 0.02, 5e-5
        traj = kicked_response(model, x0, onset, t_end, h)
        plain = integrate(model, x0, (0.0, onset), h)
        idx = int(round(onset / h))
        assert traj.times[idx] == pytest.approx(onset)
        labels = list(model.state_labels)
        ic, icc = labels.index("i_c"), labels.index("i_c_conj")
        # the kick is 1e-3 on state 0 (i_c) and on its conjugate partner
        assert (KICK, KICK_STATE, ic) == (1e-3, 0, 0)
        assert traj.states[idx, ic] == pytest.approx(plain.states[-1, ic] + 1e-3)
        assert traj.states[idx, icc] == pytest.approx(plain.states[-1, icc] + 1e-3)

    def test_onset_validation(self, case1_balanced):
        model, result = case1_balanced
        with pytest.raises(UsageError):
            kicked_response(model, result.waveforms[0], 0.0, 0.02, 5e-5)

    @staticmethod
    def _two_legs(model, x0, onset, t_end, h):
        """The kicked run as two integrations joined at the onset."""
        leg1 = integrate(model, x0, (0.0, onset), h)
        if leg1.diverged:
            return leg1
        x_kick = leg1.states[-1].copy()
        for k in {KICK_STATE, model.partner[KICK_STATE]}:
            x_kick[k] += KICK
        leg2 = integrate(model, x_kick, (onset, t_end), h)
        return Trajectory(times=np.concatenate([leg1.times[:-1], leg2.times]),
                          states=np.concatenate([leg1.states[:-1], leg2.states]),
                          step=h, diverged=leg2.diverged)

    @pytest.mark.parametrize("which, onset, t_end, h", [
        ("case1", 2 * T1, 5 * T1, 5e-5),
        ("case1", 0.5 * T1, 3 * T1, 5e-5),       # onset inside the first period
        ("growing", 0.1, 1.0, 1e-3),             # diverges after the kick
        ("growing", 0.6, 1.0, 1e-3),             # diverges before the onset
    ], ids=["case1", "case1_early_onset", "diverges_after_onset",
            "diverges_before_onset"])
    def test_equals_two_leg_run_from_one_period_before_onset(
            self, which, onset, t_end, h, case1_balanced):
        if which == "case1":
            model, result = case1_balanced
            x0 = result.waveforms[0]
        else:
            model, x0 = linear_model(np.array([[50.0]], dtype=complex)), [1.0]
        p = round(model.period / h)
        ref = self._two_legs(model, x0, onset, t_end, h)
        traj = kicked_response(model, x0, onset, t_end, h)
        if ref.diverged and ref.times[-1] < onset:
            start = max(ref.times.shape[0] - p - 1, 0)
        else:
            start = max(round(onset / h) - p, 0)
        assert traj.diverged == ref.diverged == (which == "growing")
        assert np.array_equal(traj.times, ref.times[start:])
        assert np.array_equal(traj.states, ref.states[start:])
        if onset >= T1 and not ref.diverged:
            assert growth_rate_fit(traj, 0, onset, T1) == growth_rate_fit(ref, 0, onset, T1)


class TestSettling:
    def test_case1_reaches_periodicity_from_rest(self, case1_balanced):
        # cold start: the weakly damped synchronization mode (~ -7 1/s)
        # needs tens of periods to die out
        model, result = case1_balanced
        traj = integrate(model, np.zeros(6, dtype=complex), 60 * T1, 5e-5)
        assert not traj.diverged
        x_last = last_period(traj, T1)[1]
        prev = Trajectory(times=traj.times[:-400], states=traj.states[:-400],
                          step=traj.step)
        x_prev = last_period(prev, T1)[1]
        p2p = compare_waveforms(x_prev, x_last)
        scale = np.maximum(np.max(np.abs(x_last), axis=0), 0.1)
        assert np.all(p2p["rms_error"] / scale < 5e-3)
        # and the attractor is the solver's periodic solution, evaluated at
        # the oracle's samples
        err = compare_waveforms(spectrum_to_samples(result.spectrum, len(x_last)), x_last)
        assert np.all(err["rms_error"] / scale < 0.01)
