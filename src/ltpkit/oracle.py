"""Independent time-domain reference: fixed-step RK4 integration of the
nonlinear model, steady-state period extraction, waveform comparison, and
perturbation growth fitting.

This module never touches the frequency-domain solver — it exists to check
it.  Integration is classical 4th-order Runge–Kutta on the model dynamics
with the model's own input function, deterministic fixed step (the averaged
converter models are non-stiff at 50 µs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model import SystemModel

DIVERGENCE_LIMIT = 1e9
FLOOR_RATE = -1e6
# 70 times the 14,000 RK4 steps of a verify run.  verify's on-orbit run keeps
# one period of samples at any length; its kicked run keeps the post-onset
# samples, which at the cap take 0.29 GB for 18 states
MAX_STEPS = 1_000_000
# the verify kick: KICK is added to state KICK_STATE and to its conjugate
# partner, which keeps the kicked state real-valued in the phase domain
KICK_STATE = 0
KICK = 1e-3


@dataclass
class Trajectory:
    """Uniformly sampled state trajectory.

    ``diverged`` marks an integration cut short by non-finite or exploding
    states; the samples up to the failure are retained (for unstable systems
    this is the expected, useful outcome).
    """

    times: np.ndarray
    states: np.ndarray
    step: float
    diverged: bool = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=complex)
        if self.states.shape[:1] != self.times.shape:
            raise UsageError("times and states disagree on sample count")


def grid_steps(step: float, span: float, period: float | None = None,
               onset: float | None = None) -> tuple:
    """``(n_steps, p, k_on)``: the whole RK4 steps of ``step`` in ``span``, in
    one ``period`` and before ``onset`` (0 when not given).  The one statement
    of the oracle's grid rules, which ``verify`` checks before it solves: at
    most ``MAX_STEPS`` steps, at least 2 per period, at least one period of
    samples, and one period before the onset and three from it on."""
    if not step > 0:  # NaN fails it
        raise UsageError(f"the RK4 step must be positive, got {step!r}")

    def whole(what, seconds, least):
        ratio = seconds / step
        if not ratio <= MAX_STEPS:  # NaN fails it, an overflowed inf exceeds it
            raise UsageError(f"{what}: {ratio:.6g} RK4 steps exceed the limit of "
                             f"{MAX_STEPS}")
        n = round(ratio)
        if n < least or abs(ratio - n) > 1e-9 * ratio:
            raise UsageError(f"{what}/step = {ratio!r} is not a whole number of at "
                             f"least {least} steps")
        return n

    n_steps = whole("time span", span, 1)
    p = 0 if period is None else whole("period", period, 2)
    k_on = 0 if onset is None else whole("onset", onset, max(p, 1))
    if n_steps + 1 < p:
        raise UsageError("trajectory shorter than one period")
    if onset is not None and n_steps + 1 - k_on < 3 * p:
        raise UsageError("need at least three post-onset periods")
    return n_steps, p, k_on


def _input_rows(model: SystemModel, t0: float, step: float, count: int,
                chunk: int = 1024):
    """The inputs at the ``count`` half-step times ``t0 + step/2·i`` as lists,
    ``chunk`` samples evaluated and converted at a time, so a long run never
    holds all of its inputs."""
    for i in range(0, count, chunk):
        t = t0 + 0.5 * step * np.arange(i, min(i + chunk, count))
        yield from np.asarray(model.input_fn(t), dtype=complex).tolist()


def _rk4(model: SystemModel, x0: np.ndarray, t0: float, step: float,
         n_steps: int, out: np.ndarray) -> int:
    """Run ``n_steps`` RK4 steps from ``x0`` at ``t0`` and write the last
    ``len(out)`` samples into ``out``; return how many samples were reached
    (``n_steps + 1`` unless the state diverged).

    Sample ``j`` goes to row ``(j − first) mod len(out)``, ``first`` being the
    first sample of the window: the window lands in order, and a run that
    diverges before its window ends still holds its latest samples.
    """
    keep = out.shape[0]
    first = n_steps + 1 - keep
    out[-first % keep] = x0
    x = x0.tolist()
    u_half = _input_rows(model, t0, step, 2 * n_steps + 1)
    u1 = next(u_half)

    def f(t, x, u):
        k = model.dynamics(t, x, u)
        return k.tolist() if type(k) is np.ndarray else k

    half, sixth = 0.5 * step, step / 6.0
    for k in range(n_steps):
        # a Python float, bit-equal to the sample time t0 + step·k, keeps a
        # model's scalar path
        t = t0 + step * k
        u0, um, u1 = u1, next(u_half), next(u_half)
        try:
            k1 = f(t, x, u0)
            k2 = f(t + half, [a + half * b for a, b in zip(x, k1)], um)
            k3 = f(t + half, [a + half * b for a, b in zip(x, k2)], um)
            k4 = f(t + step, [a + step * b for a, b in zip(x, k3)], u1)
            x = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
            # the sum bounds every entry, so the exact per-entry test runs
            # only when it fails; NaN fails both and inf exceeds the limit
            bounded = (sum(map(abs, x)) <= DIVERGENCE_LIMIT
                       or all(abs(v) <= DIVERGENCE_LIMIT for v in x))
        except ArithmeticError:
            # where numpy gives inf or NaN, Python scalars raise: cmath.exp or
            # abs() overflowing, a division by a rotation that underflowed to 0
            bounded = False
        if not bounded:
            return k + 1
        out[(k + 1 - first) % keep] = x
    return n_steps + 1


def integrate(model: SystemModel, x0, t_span, step: float,
              keep: int | None = None) -> Trajectory:
    """Fixed-step RK4 integration of ``model`` from ``x0`` over ``t_span``.

    The state stays a list of Python ``complex`` through the whole loop:
    ``dynamics`` gets the state and the input as lists at a Python-float time
    and may return any length-n sequence; an array it returns becomes a list,
    so no stage runs on numpy scalars.  Each stage state is ``x + h·k``
    and the update ``x + h/6·(k1 + 2k2 + 2k3 + k4)``, entry by entry in that
    order, the same IEEE arithmetic as the array recursion.  Only the kept
    samples are stored, in a preallocated array, and the inputs are drawn a
    chunk at a time, so the memory a run holds does not grow with its length
    when ``keep`` is given.

    Parameters
    ----------
    model : SystemModel
        Model providing ``dynamics`` and ``input_fn``.
    x0 : array_like
        Initial state, shape ``(n_states,)``.
    t_span : float or (float, float)
        End time (start 0) or explicit ``(t0, t1)``; must be an integer
        number of steps.
    step : float
        Step size in seconds.
    keep : int, optional
        Keep only the last ``keep`` samples (at least 1); all of them by
        default.  The kept samples are bit-identical to the same rows of the
        full run.

    Returns
    -------
    Trajectory
        The kept samples, or a flagged partial trajectory if the state left
        the finite range (``diverged=True``): an entry of modulus over
        ``DIVERGENCE_LIMIT``, inf or NaN, or an arithmetic error inside a
        step, where Python scalars raise instead of giving inf or NaN.  A
        partial trajectory holds the last ``keep`` samples reached, ending at
        the last accepted state.
    """
    if np.ndim(t_span) == 0:
        t0, t1 = 0.0, float(t_span)
    else:
        t0, t1 = (float(v) for v in t_span)
    n_steps = grid_steps(step, t1 - t0)[0]
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (model.n_states,):
        raise UsageError(f"x0 must have shape ({model.n_states},), got {x0.shape}")
    if keep is not None and keep < 1:
        raise UsageError(f"keep must be at least 1, got {keep!r}")
    keep = n_steps + 1 if keep is None else min(keep, n_steps + 1)

    first = n_steps + 1 - keep
    states = np.empty((keep, model.n_states), dtype=complex)
    reached = _rk4(model, x0, t0, step, n_steps, states)
    samples = np.arange(max(reached - keep, 0), reached)
    # a run that diverged before its window ends left its rows out of order
    states = (states[:reached - first] if samples[0] >= first
              else states[(samples - first) % keep])
    return Trajectory(times=t0 + step * samples, states=states, step=step,
                      diverged=reached <= n_steps)


def last_period(traj: Trajectory, period: float):
    """Final complete period of a trajectory, phase-aligned to ``t mod T = 0``.

    Returns
    -------
    (times, states)
        ``times`` has ``P = T/step`` samples covering ``[t_k, t_k + T)`` with
        ``t_k`` a multiple of the period.
    """
    n_samples = traj.states.shape[0]
    p = grid_steps(traj.step, (n_samples - 1) * traj.step, period)[1]
    phase0 = (-int(round((traj.times[0] % period) / traj.step))) % p
    start_max = n_samples - p
    start = start_max - ((start_max - phase0) % p)
    if start < 0:
        raise UsageError("no phase-aligned complete period in trajectory")
    return traj.times[start:start + p], traj.states[start:start + p]


def compare_waveforms(expected, got) -> dict:
    """Per-state deviation between two ``(P, n)`` waveforms sampled at the
    same ``P`` times.

    Returns
    -------
    dict
        ``rms_error`` and ``max_error``: per-state absolute deviation arrays.
    """
    expected, got = np.asarray(expected), np.asarray(got)
    if expected.shape != got.shape:
        raise UsageError(f"waveform shapes differ: {expected.shape} and {got.shape}")
    diff = np.abs(expected - got)
    return {
        "rms_error": np.sqrt(np.mean(diff**2, axis=0)),
        "max_error": np.max(diff, axis=0),
    }


@dataclass
class GrowthFit:
    """Least-squares exponential growth/decay rate of a perturbation envelope."""

    rate: float
    floored: bool = False


def growth_rate_fit(traj: Trajectory, state_index: int, onset: float,
                    period: float) -> GrowthFit:
    """Fit Re[λ] from the post-perturbation envelope of one state.

    The period immediately preceding the perturbation onset serves as the
    steady-state reference; it is tiled over the post-onset window, and the
    per-period RMS of the residual gives the envelope whose log-slope is the
    growth rate.

    Parameters
    ----------
    traj : Trajectory
        Should include several settled periods before onset and at least
        three after.
    state_index : int
        State whose envelope is fitted.
    onset : float
        Perturbation time (s).
    period : float
        Fundamental period (s) of the steady state; a multiple of the
        trajectory step.

    Returns
    -------
    GrowthFit
        ``rate`` in 1/s; ``floored=True`` when the whole envelope sits under
        the numeric floor (fast decay — rate pinned to a large negative value).
    """
    h = traj.step
    _, p, k_on = grid_steps(h, (traj.states.shape[0] - 1) * h, period,
                            onset - traj.times[0])
    ref = traj.states[k_on - p:k_on, state_index]
    post = traj.states[k_on:, state_index]
    n_periods = post.shape[0] // p
    resid = post[:n_periods * p].reshape(n_periods, p) - ref[None, :]
    env = np.sqrt(np.mean(np.abs(resid)**2, axis=1))
    t_env = traj.times[k_on] + (np.arange(n_periods) + 0.5) * period
    floor = max(1e-12, 1e-7 * float(np.max(np.abs(ref))))
    usable = env > floor
    if np.count_nonzero(usable) < 2:
        return GrowthFit(rate=FLOOR_RATE, floored=True)
    slope = np.polyfit(t_env[usable], np.log(env[usable]), 1)[0]
    return GrowthFit(rate=float(slope))


def kicked_response(model: SystemModel, x0, onset: float, t_end: float,
                    step: float) -> Trajectory:
    """Integrate, apply the additive kick ``KICK`` to state ``KICK_STATE``
    and to its conjugate partner (when the model declares one) at ``onset``,
    continue.

    Returns the samples from one model period before the onset (from 0 for an
    earlier onset) to ``t_end``, which is what ``growth_rate_fit`` reads: the
    reference period and the kicked leg, in one preallocated array that the
    kicked leg is integrated into.  The sample at ``onset`` is the kicked
    state.  A run that diverges before the onset returns its last period of
    samples up to the last accepted state.
    """
    if not 0.0 < onset < t_end:
        raise UsageError("onset must fall inside (0, t_end)")
    n_post = grid_steps(step, t_end - onset)[0]
    pre = integrate(model, x0, (0.0, onset), step,
                    keep=grid_steps(step, model.period)[0] + 1)
    if pre.diverged:
        return pre
    m = pre.states.shape[0] - 1
    states = np.empty((m + 1 + n_post, model.n_states), dtype=complex)
    states[:m + 1] = pre.states
    for k in {KICK_STATE, model.partner[KICK_STATE]}:
        states[m, k] += KICK
    reached = _rk4(model, states[m].copy(), float(onset), step, n_post, states[m:])
    return Trajectory(
        times=np.concatenate([pre.times[:-1], float(onset) + step * np.arange(reached)]),
        states=states[:m + reached], step=step, diverged=reached <= n_post)
