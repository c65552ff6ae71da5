"""Benchmark grid-tied VSC systems in the complex-vector (space-vector) frame.

Two converter benchmarks are provided as model factories:

* Case system I — current-controlled VSC behind an (optionally asymmetric)
  L filter, tied through an (optionally asymmetric) grid inductance to an
  ideal grid voltage; synchronized by a q-voltage PLL.  Six states:
  converter current and conjugate, rotating-frame current-controller
  integrator and conjugate, PLL angle, PLL integrator.
* Case system II — VSC with LC filter (series-R damped capacitor), grid
  inductance, dual rotating-frame current control (negative-sequence
  reference zero), SOGI-based sequence separation feeding the PLL, and an
  outer power controller.  Eighteen states.

Both factories return closed-loop and open-loop variants.  The closed loop
is driven by the grid-voltage complex pair; the open loop is the converter
subsystem, PLL included, driven directly by its terminal-bus voltage, which is
the model an impedance/frequency scan linearizes.  Case I's open loop is its
closed loop at zero grid inductance.  Case II's closed loop is its open loop
driven by the bus voltage, whose 16 states come first, plus the grid-current
pair, last.

All states are per-unit (voltage base = peak phase voltage, current base =
peak phase current, time in seconds), so solver norms and waveform
comparisons are O(1) per state.  Conjugate quantities are independent paired
states; nothing in the dynamics ever calls complex conjugation on a state,
which keeps every equation holomorphic.  Each case is written once, as its
``dynamics`` and ``output``: their four Jacobians are the derivatives of that
arithmetic, carried by forward-mode jets (:mod:`ltpkit.jet`), Wirtinger-exact.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import UsageError
from .jet import Jet, jacobians
from .model import SystemModel

# amplitude-invariant Clarke transform (zero-sequence dropped) and its
# right inverse on zero-sequence-free signals
CLARKE = (2.0 / 3.0) * np.array([
    [1.0, -0.5, -0.5],
    [0.0, np.sqrt(3.0) / 2.0, -np.sqrt(3.0) / 2.0],
])
CLARKE_INV = np.array([
    [1.0, 0.0],
    [-0.5, np.sqrt(3.0) / 2.0],
    [-0.5, -np.sqrt(3.0) / 2.0],
])

# real (α, β) pair -> complex pair (v, v*) and back
T_COMPLEX = np.array([[1.0, 1j], [1.0, -1j]], dtype=complex)
T_COMPLEX_INV = 0.5 * np.array([[1.0, 1.0], [-1j, 1j]], dtype=complex)


def asymmetric_inductance_matrix(la: float, lb: float, lc: float) -> np.ndarray:
    """Complex-pair-frame inductance matrix of a per-phase asymmetric inductor.

    Chain abc -> αβ -> (v, v*): symmetric phases give diag(L, L); asymmetry
    couples v and v* through the conjugate off-diagonals (entry (0,1) equals
    conj of entry (1,0)).
    """
    if min(la, lb, lc) <= 0:
        raise UsageError("inductances must be positive")
    l_ab = CLARKE @ np.diag([la, lb, lc]) @ CLARKE_INV
    return T_COMPLEX @ l_ab @ T_COMPLEX_INV


def pi_gains_from_bandwidth(alpha_c: float, alpha_pll: float, alpha_s: float | None,
                            params: dict) -> dict:
    """Controller gains from bandwidth figures, SI units.

    The bandwidth numbers enter the design rules directly as plain
    per-second rates (each α is roughly the reciprocal of the loop's time
    constant; no angular conversion is applied):
    current control k_pc = 2α_c·L_fa, k_ic = 2α_c²·L_fa;
    PLL k_ppll = 2α_pll/U_N, k_ipll = 2α_pll²/U_N;
    power control k_ps = α_s/(1.5·U_N·α_c), k_is = α_s/(1.5·U_N).

    Applying an extra 2π to every rule displaces both benchmark stability
    boundaries far from their reference locations, so the plain-rate form
    is the calibrated convention.
    """
    if alpha_c <= 0 or alpha_pll <= 0 or (alpha_s is not None and alpha_s <= 0):
        raise UsageError("bandwidths must be positive")
    l_fa = params["l_fa"]
    u_n = params["u_n"]
    gains = {
        "k_pc": 2.0 * alpha_c * l_fa,
        "k_ic": 2.0 * alpha_c**2 * l_fa,
        "k_ppll": 2.0 * alpha_pll / u_n,
        "k_ipll": 2.0 * alpha_pll**2 / u_n,
    }
    if alpha_s is not None:
        gains["k_ps"] = alpha_s / (1.5 * u_n * alpha_c)
        gains["k_is"] = alpha_s / (1.5 * u_n)
    return gains


# ---------------------------------------------------------------------------
# parameters

CASE1_DEFAULTS = {
    "s_n": 2.0,            # MVA
    "u_n": 0.690,          # kV, line-to-line RMS
    "l_fa": 7.58e-5,       # H, converter filter phase a (= phase b)
    "l_ga": 1.89e-4,       # H, grid phase a (= phase b)
    "k_sym_c": 1.0,        # converter filter phase-c scaling
    "k_sym_g": 1.0,        # grid phase-c scaling
    "i_d_ref": 1.0,        # p.u. current reference, d axis
    "i_q_ref": 0.0,
    "alpha_c": 200.0,      # Hz, current-control bandwidth
    "alpha_pll": 20.0,     # Hz, PLL bandwidth
    "u_ga_mag": 1.0,       # p.u. grid phasors (α, β)
    "u_ga_deg": 0.0,
    "u_gbeta_mag": 1.0,    # balanced positive sequence: β lags α by 90°
    "u_gbeta_deg": -90.0,
    "u_base": 0.563,       # kV, peak phase
    "i_base": 2.368,       # kA, peak phase
    "s_base": 2.0,         # MVA
    "l_base": 0.758e-3,    # H
    "f_base": 50.0,        # Hz
}

CASE2_DEFAULTS = dict(CASE1_DEFAULTS)
CASE2_DEFAULTS.update({
    "c_f": 500e-6,         # F, filter capacitor per phase
    "r_cf": 0.01,          # Ω, capacitor series damping
    "p_ref": 0.5,          # p.u. power reference
    "q_ref": 0.0,
    "alpha_s": 20.0,       # Hz, power-control bandwidth
    "k_sogi": 1.414,       # SOGI damping gain
})

CASE1_LABELS = ("i_c", "i_c_conj", "x_cdq", "x_cdq_conj", "delta_pll", "x_pll")
CASE2_LABELS = (
    "i_c", "i_c_conj",
    "x_cdq_p", "x_cdq_p_conj",
    "x_cdq_n", "x_cdq_n_conj",
    "u_fc", "u_fc_conj",
    "x_sogi", "x_sogi_conj",
    "x_sogi_q", "x_sogi_q_conj",
    "x_pll", "delta_pll",
    "x_sdq", "x_sdq_conj",
    "i_g", "i_g_conj",
)


def make_params(case: str, overrides: dict | None = None) -> dict:
    """Validated parameter set for ``case1``/``case2`` with overrides applied."""
    defaults = {"case1": CASE1_DEFAULTS, "case2": CASE2_DEFAULTS}.get(case)
    if defaults is None:
        raise UsageError(f"unknown case {case!r} (expected 'case1' or 'case2')")
    params = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise UsageError(f"unknown parameter {key!r} for {case}")
        params[key] = float(value)
    _validate_params(case, params)
    return params


def _validate_params(case: str, p: dict):
    # case 2's open loop drives its capacitor through r_cf, so r_cf = 0 is out
    case2 = ("c_f", "r_cf", "alpha_s", "k_sogi") if case == "case2" else ()
    for key in ("l_fa", "l_ga", "k_sym_c", "k_sym_g", "u_base", "i_base",
                "s_base", "l_base", "f_base", "u_n", "alpha_c", "alpha_pll") + case2:
        if p[key] <= 0:
            raise UsageError(f"parameter {key} must be positive (got {p[key]})")


def _phasor(mag: float, deg: float) -> complex:
    return mag * np.exp(1j * np.deg2rad(deg))


def _pair_waveform(u_alpha: complex, u_beta: complex, omega1: float):
    """T-periodic complex pair built from αβ phasors (positive-sequence part
    rotates with +ω₁, the conjugate-of-negative part with −ω₁)."""
    u_pos = 0.5 * (u_alpha + 1j * u_beta)
    u_negc = np.conj(0.5 * (u_alpha - 1j * u_beta))

    def input_fn(t):
        t = np.asarray(t, dtype=float)
        rot = np.exp(1j * omega1 * t)
        v = u_pos * rot + u_negc / rot
        return np.stack([v, np.conj(v)], axis=-1)

    return input_fn


def _norms(p: dict) -> dict:
    """Exact SI -> per-unit conversion factors and the near-equilibrium
    iteration seeds shared by the builders."""
    omega1 = 2.0 * np.pi * p["f_base"]
    z_base = p["u_base"] / p["i_base"]
    gains = pi_gains_from_bandwidth(p["alpha_c"], p["alpha_pll"], p.get("alpha_s"), p)
    out = {
        "omega1": omega1,
        "kp": gains["k_pc"] / z_base,
        "ki": gains["k_ic"] / z_base,
        "kpp": gains["k_ppll"] * p["u_base"],
        "kip": gains["k_ipll"] * p["u_base"],
        "ff": omega1 * p["l_fa"] / z_base,
        "lf_c": asymmetric_inductance_matrix(
            p["l_fa"], p["l_fa"], p["k_sym_c"] * p["l_fa"]) / z_base,
        "lg_c": asymmetric_inductance_matrix(
            p["l_ga"], p["l_ga"], p["k_sym_g"] * p["l_ga"]) / z_base,
        "i_ref": p["i_d_ref"] + 1j * p["i_q_ref"],
        "u_ga": _phasor(p["u_ga_mag"], p["u_ga_deg"]),
        "u_gbeta": _phasor(p["u_gbeta_mag"], p["u_gbeta_deg"]),
    }
    # Seed the iteration near the physical operating point: several distinct
    # periodic solutions coexist under severe unbalance, and a zero start can
    # pull the root-finder onto a non-physical (unstable) voltage-lock branch.
    u_pos0 = 0.5 * (out["u_ga"] + 1j * out["u_gbeta"])
    delta0 = float(np.angle(u_pos0)) if abs(u_pos0) > 0.0 else 0.0
    out.update(u_pos0=u_pos0, delta0=delta0, xc0=u_pos0 * np.exp(-1j * delta0))
    if "c_f" in p:
        out["c_sec"] = p["c_f"] * z_base
        out["rt"] = p["r_cf"] / z_base
        out["ks"] = gains["k_ps"] * p["s_base"] / p["i_base"]
        out["kis"] = gains["k_is"] * p["s_base"] / p["i_base"]
        out["ksogi"] = p["k_sogi"]
        out["s_ref"] = p["p_ref"] + 1j * p["q_ref"]
    return out


def _columns(v):
    """``v`` indexed by state (or input) column: ``_columns(x)[k]`` is
    ``x[..., k]`` for a list and the ``(n,)`` and ``(M, n)`` shapes of the
    model contract.  A list, as the RK4 oracle and :mod:`ltpkit.jet` pass, is
    taken as it is, and an ``(n,)`` array becomes one, so the equations of a
    single state run on Python scalars (one numpy scalar in an expression
    would make all of it numpy-scalar arithmetic); for an ``(M, n)`` batch it
    is the strided view ``x.T``."""
    if type(v) is list:
        return v
    v = np.asarray(v, dtype=complex)
    return v.tolist() if v.ndim == 1 else v.T


def _rotation(om1, t, delta):
    """e^{j(ω₁t+δ)}: by ``cmath`` at a float time for one state's angle."""
    if isinstance(delta, np.ndarray):
        return np.exp(1j * (om1 * t + delta))
    if type(delta) is Jet:
        return (1j * (om1 * t + delta)).exp()
    return cmath.exp(1j * (om1 * float(t) + delta))


def _stacked(rows, x):
    """f from its rows in state order, in the form of the state ``x``: the
    row list itself for a list, ``(n,)`` for an ``(n,)`` array and C-ordered
    ``(M, n)`` for a batch."""
    if type(x) is list:
        return rows
    if isinstance(rows[0], complex):
        return np.array(rows, dtype=complex)
    return np.stack(rows, axis=-1)


def _current_output(t, x, u):
    """g: the converter current pair i_c, i_c_conj, both cases' first states."""
    xs = _columns(x)
    return _stacked([xs[0], xs[1]], x)


# ---------------------------------------------------------------------------
# Case system I

def build_case1(params: dict | None = None) -> dict:
    """Case system I models (closed loop: grid-driven; open loop: bus-driven).

    With no shunt between converter and grid the two series inductances carry
    one current, so the bus (POC) voltage is the algebraic divider
    u_poc = u_g + L_g(L_f+L_g)⁻¹(u_c − u_g); the PLL senses its rotating-frame
    q component.  The open loop is the same model at L_g = 0: its input is the
    bus voltage itself, and the grid inductance and its asymmetry do not reach
    it.  Output is the converter current pair (admittance-type scan).
    """
    p = make_params("case1", params)
    nn = _norms(p)
    om1, kp, ki, kpp, kip, ff = (nn[k] for k in ("omega1", "kp", "ki", "kpp", "kip", "ff"))
    i_ref = nn["i_ref"]
    i_ref_c = i_ref.conjugate()
    jff = 1j * ff

    IC, ICC, XC, XCC, DELTA, XPLL = range(6)

    shared = dict(
        n_states=6, n_inputs=2, n_outputs=2, omega1=om1, output=_current_output,
        input_fn=_pair_waveform(nn["u_ga"], nn["u_gbeta"], om1),
        state_labels=CASE1_LABELS,
        conjugate_pairs=((IC, ICC), (XC, XCC)),
        spectral_seeds=((IC, +1, i_ref), (XC, 0, nn["xc0"]), (DELTA, 0, nn["delta0"])),
    )

    def _loop(lg_c, name):
        """The converter behind the series inductance ``lg_c`` from its input
        voltage: the grid's for the closed loop, zero for the open loop."""
        g = np.linalg.inv(nn["lf_c"] + lg_c)
        gsum, kdiv = g.tolist(), (lg_c @ g).tolist()   # 1/s; dimensionless divider

        def dynamics(t, x, u):
            xs, us = _columns(x), _columns(u)
            e = _rotation(om1, t, xs[DELTA])
            em = 1.0 / e
            uc = kp * (i_ref * e - xs[IC]) + xs[XC] * e + jff * xs[IC]
            ucc = kp * (i_ref_c * em - xs[ICC]) + xs[XCC] * em - jff * xs[ICC]
            ug, ugc = us[0], us[1]
            d1, d2 = uc - ug, ucc - ugc
            upoc = ug + kdiv[0][0] * d1 + kdiv[0][1] * d2
            upocc = ugc + kdiv[1][0] * d1 + kdiv[1][1] * d2
            uq = (em * upoc - e * upocc) / 2j
            return _stacked([gsum[0][0] * d1 + gsum[0][1] * d2,   # IC
                             gsum[1][0] * d1 + gsum[1][1] * d2,   # ICC
                             ki * (i_ref - em * xs[IC]),          # XC
                             ki * (i_ref_c - e * xs[ICC]),        # XCC
                             kpp * uq + xs[XPLL],                 # DELTA
                             kip * uq], x)                        # XPLL

        return SystemModel(dynamics=dynamics, **jacobians(dynamics, _current_output),
                           name=name, **shared)

    return {"closed_loop": _loop(nn["lg_c"], "case1"),
            "open_loop": _loop(np.zeros((2, 2)), "case1_open")}


# ---------------------------------------------------------------------------
# Case system II

def build_case2(params: dict | None = None) -> dict:
    """Case system II models.

    Open loop (16 states): converter current behind the L filter, dual-frame
    current control (positive frame carries the inductive feedforward;
    negative frame regulates to zero), filter-capacitor voltage, SOGI
    in-phase/quadrature states whose combination extracts the
    positive-sequence bus voltage for PLL and power control, PLL, and the
    power-controller integrator producing the positive-frame current
    reference.  Its input is the bus voltage u_poc, which feeds the capacitor
    through the damping resistor, i_cap = (u_poc − u_f)/r; the exported
    current i_c − i_cap is a genuine feedthrough term in the scan.

    Closed loop (18 states): the same open loop driven by the bus voltage
    u_poc = u_f + r(i_c − i_g), so i_cap = i_c − i_g, plus the grid current
    pair i_g through the asymmetric grid inductance, last in the state order.
    """
    p = make_params("case2", params)
    nn = _norms(p)
    om1, kp, ki, kpp, kip = (nn[k] for k in ("omega1", "kp", "ki", "kpp", "kip"))
    ff, c_sec, rt, kps, kis, ksogi = (nn[k] for k in ("ff", "c_sec", "rt", "ks", "kis", "ksogi"))
    s_ref = nn["s_ref"]
    s_ref_c = s_ref.conjugate()
    gf = np.linalg.inv(nn["lf_c"]).tolist()
    gg = np.linalg.inv(nn["lg_c"]).tolist()

    u_pos0, xcp0, delta0 = nn["u_pos0"], nn["xc0"], nn["delta0"]
    # constant products, hoisted out of the equations bit for bit: Python
    # and numpy evaluate c1 * c2 * x as (c1 * c2) * x
    jom1, jff, wk, w2, nki = 1j * om1, 1j * ff, om1 * ksogi, om1**2, -ki
    grt = 1.0 / rt  # numpy divides by rt as a product with 1/rt; Python scalars must multiply
    xq0 = u_pos0 / jom1

    (IC, ICC, XCP, XCPC, XCN, XCNC, UF, UFC, XS, XSC, XQ, XQC,
     XPLL, DELTA, XSD, XSDC, IG, IGC) = range(18)

    def _rows(t, xs, upoc, upocc, icap, icapc):
        """The open loop's 16 rows of f at the state columns ``xs``, the bus
        voltage pair (upoc, upocc) and the capacitor current pair."""
        e = _rotation(om1, t, xs[DELTA])
        em = 1.0 / e
        up = 0.5 * (xs[XS] + jom1 * xs[XQ])
        upc = 0.5 * (xs[XSC] - jom1 * xs[XQC])
        # the power errors conj(s_ref) − conj(s) and s_ref − s
        serr = s_ref_c - upc * xs[IC]
        serrc = s_ref - up * xs[ICC]
        iref = kps * serr + xs[XSD]
        irefc = kps * serrc + xs[XSDC]
        uq = (em * up - e * upc) / 2j
        uc = kp * (iref * e - xs[IC]) + e * xs[XCP] + jff * xs[IC] \
            - kp * xs[IC] + em * xs[XCN]
        ucc = kp * (irefc * em - xs[ICC]) + em * xs[XCPC] - jff * xs[ICC] \
            - kp * xs[ICC] + e * xs[XCNC]
        d1, d2 = uc - upoc, ucc - upocc
        return [gf[0][0] * d1 + gf[0][1] * d2,                        # IC
                gf[1][0] * d1 + gf[1][1] * d2,                        # ICC
                ki * (iref - em * xs[IC]),                            # XCP
                ki * (irefc - e * xs[ICC]),                           # XCPC
                nki * e * xs[IC],                                     # XCN
                nki * em * xs[ICC],                                   # XCNC
                icap / c_sec,                                         # UF
                icapc / c_sec,                                        # UFC
                wk * (upoc - xs[XS]) - w2 * xs[XQ],                   # XS
                wk * (upocc - xs[XSC]) - w2 * xs[XQC],                # XSC
                xs[XS],                                               # XQ
                xs[XSC],                                              # XQC
                kip * uq,                                             # XPLL
                kpp * uq + xs[XPLL],                                  # DELTA
                # Both channels of the reference PI must act on the conjugated
                # power error (i* ∝ conj of the power mismatch); integrating
                # the plain error instead turns the loop into ẋ ∝ -x*, a saddle
                # with eigenvalues ±k.
                kis * serr,                                           # XSD
                kis * serrc]                                          # XSDC

    # -- open loop: driven by the bus voltage, which feeds the capacitor
    # through the damping resistor: i_cap = (u_poc − u_f)/r ----------------
    def ol_icap(xs, us):
        return (us[0] - xs[UF]) * grt, (us[1] - xs[UFC]) * grt

    def ol_dynamics(t, x, u):
        xs, us = _columns(x), _columns(u)
        return _stacked(_rows(t, xs, us[0], us[1], *ol_icap(xs, us)), x)

    def ol_output(t, x, u):
        """g: the exported current pair i_c − i_cap."""
        xs, us = _columns(x), _columns(u)
        icap, icapc = ol_icap(xs, us)
        return _stacked([xs[IC] - icap, xs[ICC] - icapc], x)

    # -- closed loop: the open loop at u_poc = u_f + r(i_c − i_g) -----------
    def cl_dynamics(t, x, u):
        xs, us = _columns(x), _columns(u)
        icap, icapc = xs[IC] - xs[IG], xs[ICC] - xs[IGC]
        upoc, upocc = xs[UF] + rt * icap, xs[UFC] + rt * icapc
        d1, d2 = upoc - us[0], upocc - us[1]
        return _stacked(_rows(t, xs, upoc, upocc, icap, icapc)
                        + [gg[0][0] * d1 + gg[0][1] * d2,     # IG
                           gg[1][0] * d1 + gg[1][1] * d2], x)  # IGC

    pairs = ((IC, ICC), (XCP, XCPC), (XCN, XCNC), (UF, UFC), (XS, XSC), (XQ, XQC),
             (XSD, XSDC))
    seeds = ((IC, +1, s_ref_c), (XCP, 0, xcp0), (UF, +1, u_pos0), (XS, +1, u_pos0),
             (XQ, +1, xq0), (DELTA, 0, delta0), (XSD, 0, s_ref_c))
    shared = dict(n_inputs=2, n_outputs=2, omega1=om1,
                  input_fn=_pair_waveform(nn["u_ga"], nn["u_gbeta"], om1))
    closed = SystemModel(
        n_states=18, dynamics=cl_dynamics, output=_current_output,
        **jacobians(cl_dynamics, _current_output),
        state_labels=CASE2_LABELS, conjugate_pairs=pairs + ((IG, IGC),),
        spectral_seeds=seeds + ((IG, +1, s_ref_c),), name="case2", **shared)
    open_loop = SystemModel(
        n_states=16, dynamics=ol_dynamics, output=ol_output,
        **jacobians(ol_dynamics, ol_output),
        state_labels=CASE2_LABELS[:16], conjugate_pairs=pairs, spectral_seeds=seeds,
        name="case2_open", **shared)
    return {"closed_loop": closed, "open_loop": open_loop}


def case_builder(name: str):
    """Factory lookup: 'case1' / 'case2'."""
    try:
        return {"case1": build_case1, "case2": build_case2}[name]
    except KeyError:
        raise UsageError(f"unknown case {name!r} (expected 'case1' or 'case2')") from None
