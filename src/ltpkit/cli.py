"""Batch command-line front end.

Subcommands bind a JSON/flag config to the solver, analysis, sweep, and
time-domain verification modules and emit plot-ready CSV/JSON artifacts.
All CSV output uses 17-significant-digit round-trip formatting and fixed
iteration orders, so identical configs produce byte-identical files.

Exit codes: 0 success; 1 config/usage errors; 2 solver failure (no
convergence, singular iteration matrix or diverged trajectory in solve/eig/
impedance/verify, or a sweep with no converged cell); 3 verification
tolerance failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from .analysis import (
    frequency_scan,
    hss_eigenvalues,  # noqa: F401  uncalled here; bench/tracing.py wraps this name
    mode_set,
    weakest_mode,  # noqa: F401  uncalled here; bench/tracing.py wraps this name
)
from .cases import case_builder
from .errors import SOLVER_ERRORS, MaxIterationsExceeded, UsageError
from .oracle import compare_waveforms, growth_rate_fit, integrate, \
    kicked_response, last_period
from .solver import SolverConfig, solve_pss
from .spectral import spectrum_to_samples
from .sweep import SweepAxis, SweepSpec, extract_region, run_sweep

# The built-in models stack each complex signal with its conjugate, so the
# frequency-coupling (mirror) terms live in the cross-sector entries: probing
# input 0 (voltage) and recording output 1 (conjugate current) puts the
# 2*omega1-offset coupling in the mirror columns of the scan.  The principal
# same-frequency admittance is the (0, 0) pair; select it via the config.
_ANALYSIS_DEFAULTS = {
    "frequencies_hz": {"start": 5.0, "stop": 2000.0, "count": 60, "spacing": "log"},
    "output_index": 1,
    "input_index": 0,
}
_PERTURB_DEFAULTS = {"magnitude": 1e-3, "onset_periods": 10.0, "state_index": 0}
_ORACLE_DEFAULTS = {
    "horizon_periods": 25.0,
    "step": 5e-5,
    "tolerance_rms": 0.01,
}
_SWEEP_DEFAULTS = {
    "case1": {
        "axis1": {"name": "alpha_pll",
                  "values": {"start": 5.0, "stop": 60.0, "count": 23}},
        "axis2": {"name": "u_gbeta_mag",
                  "values": {"start": 0.0, "stop": 0.5, "count": 11}},
    },
    "case2": {
        "axis1": {"name": "alpha_c",
                  "values": {"start": 150.0, "stop": 250.0, "count": 11}},
        "axis2": {"name": "k_sym_g",
                  "values": {"start": 1.0, "stop": 3.0, "count": 11}},
    },
}
_TOP_KEYS = ("case", "variant", "set", "solver", "analysis", "sweep", "oracle")


# ---------------------------------------------------------------------------
# config resolution

def _typed(where: str, value, kind: type):
    """``value`` as ``kind`` when that is bool, int (integral numbers only) or
    float (finite numbers only); any other kind takes ``value`` as given."""
    if kind not in (bool, int, float):
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is bool and isinstance(value, bool):
        return value
    if kind is float and number and math.isfinite(value):
        return float(value)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    expected = "a finite number" if kind is float else kind.__name__
    raise UsageError(f"{where}: expected {expected}, got {value!r}")


def _section(name: str, value) -> dict:
    """A config object; absent or null reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise UsageError(f"{name} config must be a JSON object, got {value!r}")
    return value


def _merge(section: str, defaults: dict, given: dict | None) -> dict:
    out = dict(defaults)
    for key, value in _section(section, given).items():
        if key not in defaults:
            raise UsageError(f"unknown {section} config key {key!r}")
        out[key] = _typed(f"{section} {key}", value, type(defaults[key]))
    return out


def _resolve_grid(section: str, spec, default_count: int) -> list:
    """A finite numeric grid given either as an explicit list or
    start/stop/count."""
    if isinstance(spec, (list, tuple)):
        return [_typed(section, v, float) for v in spec]
    if not isinstance(spec, dict):
        raise UsageError(f"{section}: expected a list or start/stop spec")
    allowed = {"start", "stop", "count", "spacing"}
    unknown = set(spec) - allowed
    if unknown:
        raise UsageError(f"unknown {section} key {sorted(unknown)[0]!r}")
    for key in ("start", "stop"):
        if key not in spec:
            raise UsageError(f"{section}: missing key {key!r}")
    start = _typed(f"{section} start", spec["start"], float)
    stop = _typed(f"{section} stop", spec["stop"], float)
    count = _typed(f"{section} count", spec.get("count", default_count), int)
    spacing = spec.get("spacing", "linear")
    if count < 1:
        raise UsageError(f"{section}: count must be >= 1")
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise UsageError(f"{section}: log spacing needs positive bounds")
        values = np.geomspace(start, stop, count)
    elif spacing == "linear":
        values = np.linspace(start, stop, count)
    else:
        raise UsageError(f"{section}: spacing must be 'linear' or 'log'")
    return [float(v) for v in values]


def _override(where: str, key: str, value) -> float:
    """A case-parameter override as a finite float."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise UsageError(f"{where} value for {key!r} is not a finite number: {value!r}")
    return number


def _resolve_axis(which: str, given: dict | None, default: dict) -> dict:
    axis = dict(default)
    for key, value in _section(f"sweep {which}", given).items():
        if key not in ("name", "values"):
            raise UsageError(f"unknown sweep {which} key {key!r}")
        axis[key] = value
    axis["values"] = _resolve_grid(f"sweep {which} values", axis["values"], 11)
    return axis


def resolve_config(command: str, args) -> dict:
    """Merge defaults, config file, and CLI flags into one resolved dict.

    Precedence: built-in defaults < config file < --case/--set flags.  The
    result is JSON-serializable and re-loadable via --config (round trip).
    """
    file_cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except FileNotFoundError:
            raise UsageError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(file_cfg, dict):
        raise UsageError("config file must hold a JSON object")
    for key in file_cfg:
        if key not in _TOP_KEYS:
            raise UsageError(f"unknown config key {key!r}")

    case = args.case or file_cfg.get("case") or "case1"
    if not isinstance(case, str):
        raise UsageError(f"case must be a string, got {case!r}")
    variant = file_cfg.get("variant")
    if variant is None:
        variant = "open_loop" if command == "impedance" else "closed_loop"
    if variant not in ("closed_loop", "open_loop"):
        raise UsageError(f"unknown variant {variant!r}")

    overrides = {}
    for key, value in _section("set", file_cfg.get("set")).items():
        overrides[key] = _override("set", key, value)
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects key=value, got {item!r}")
        overrides[key] = _override("--set", key, value)

    solver_defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    solver = _merge("solver", solver_defaults, file_cfg.get("solver"))
    analysis = _merge("analysis", _ANALYSIS_DEFAULTS, file_cfg.get("analysis"))
    analysis["frequencies_hz"] = _resolve_grid(
        "analysis frequencies_hz", analysis["frequencies_hz"], 60)

    sweep_defaults = _SWEEP_DEFAULTS.get(case)
    sweep_given = file_cfg.get("sweep")
    if sweep_defaults is None and sweep_given is None:
        sweep = None
    else:
        base = sweep_defaults or {"axis1": None, "axis2": None}
        given = _section("sweep", sweep_given)
        for key in given:
            if key not in ("axis1", "axis2"):
                raise UsageError(f"unknown sweep config key {key!r}")
        axis1_default = base["axis1"] or {}
        axis2_default = base["axis2"] or {}
        if given.get("axis1") is None and not axis1_default:
            raise UsageError("sweep axis1 must be configured for this case")
        if given.get("axis2") is None and not axis2_default:
            raise UsageError("sweep axis2 must be configured for this case")
        sweep = {
            "axis1": _resolve_axis("axis1", given.get("axis1"), axis1_default),
            "axis2": _resolve_axis("axis2", given.get("axis2"), axis2_default),
        }

    oracle_given = dict(_section("oracle", file_cfg.get("oracle")))
    perturb_given = oracle_given.pop("perturbation", None)
    oracle = _merge("oracle", _ORACLE_DEFAULTS, oracle_given)
    oracle["perturbation"] = _merge("oracle perturbation", _PERTURB_DEFAULTS,
                                    perturb_given)

    return {
        "case": case,
        "variant": variant,
        "set": overrides,
        "solver": solver,
        "analysis": analysis,
        "sweep": sweep,
        "oracle": oracle,
    }


def _builder_for(case: str):
    if case in ("case1", "case2"):
        return case_builder(case)
    path = Path(case)
    if path.suffix == ".py":
        if not path.exists():
            raise UsageError(f"model file not found: {case}")
        import importlib.util
        module_spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        if not hasattr(module, "build"):
            raise UsageError(f"model file {case} defines no build(overrides)")
        return module.build
    raise UsageError(f"unknown case {case!r} (case1, case2, or a .py model file)")


# ---------------------------------------------------------------------------
# artifact writers

def _write_csv(path: Path, columns: dict):
    """Write ``{header: column}`` with one printf conversion per column, by
    dtype: ``%.17g`` for floats, ``%d`` for integers, ``true``/``false`` for
    booleans and strings as given."""
    conversions, values = [], []
    for column in map(np.asarray, columns.values()):
        kind = column.dtype.kind
        if kind == "b":
            column = np.where(column, "true", "false")
        conversions.append({"f": "%.17g", "i": "%d", "u": "%d"}.get(kind, "%s"))
        values.append(column.tolist())
    row = ",".join(conversions) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row % cells for cells in zip(*values))


def _labels(model):
    return model.state_labels or tuple(f"x{i}" for i in range(model.n_states))


def _write_spectrum(path: Path, labels, spectrum):
    n = spectrum.shape[0] // 2
    by_state = spectrum.T.reshape(-1)   # state-major, k = -N..N
    _write_csv(path, {"state": np.repeat(labels, 2 * n + 1),
                      "k": np.tile(np.arange(-n, n + 1), len(labels)),
                      "re": by_state.real, "im": by_state.imag})


def _write_waveforms(path: Path, times, waveforms, labels):
    columns = {"t": times}
    for i, label in enumerate(labels):
        columns[f"{label}_re"] = waveforms[:, i].real
        columns[f"{label}_im"] = waveforms[:, i].imag
    _write_csv(path, columns)


def _environment() -> dict:
    """Library versions and BLAS thread settings (unset variables are None):
    the numbers in an artifact depend on both."""
    env = {"numpy": np.__version__, "scipy": scipy.__version__}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = os.environ.get(name)
    return env


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

_SCAN_HEADER = ("f_hz", "diag_re", "diag_im", "mirror_plus_re",
                "mirror_plus_im", "mirror_minus_re", "mirror_minus_im",
                "singular")
_BOUNDARY_HEADER = ("param1_a", "param2_a", "param1_b", "param2_b")
_EMPTY = np.empty(0)


def _model(config: dict):
    """The configured case variant."""
    return _builder_for(config["case"])(config["set"])[config["variant"]]


def _solve(model, config: dict, write_partial):
    """Solve the periodic steady state of ``model``.

    Returns ``(solver_cfg, result)``.  On a solver failure
    ``write_partial(exc, model, solver_cfg)`` writes the command's partial
    artifacts, the error goes to stderr and ``result`` is None; the command
    then exits 2.
    """
    solver_cfg = SolverConfig(**config["solver"])
    try:
        return solver_cfg, solve_pss(model, solver_cfg)
    except SOLVER_ERRORS as exc:
        write_partial(exc, model, solver_cfg)
        print(f"error: {exc}", file=sys.stderr)
        return solver_cfg, None


def cmd_solve(config: dict, out: Path, workers: int) -> int:
    report = {"case": config["case"], "variant": config["variant"],
              "environment": _environment()}

    def partial(exc, model, solver_cfg):
        if isinstance(exc, MaxIterationsExceeded):
            labels, grid = _labels(model), solver_cfg.grid(model)
            _write_spectrum(out / "pss_spectrum.csv", labels, exc.last_spectrum)
            waveforms = spectrum_to_samples(exc.last_spectrum, grid.n_samples)
            _write_waveforms(out / "pss_waveforms.csv", grid.times, waveforms, labels)
        report.update(converged=False, iterations=len(exc.residual_history),
                      residual_history=exc.residual_history,
                      tolerance=solver_cfg.tolerance, elapsed_s=exc.elapsed_s)
        _write_json(out / "run_report.json", report)

    model = _model(config)
    solver_cfg, result = _solve(model, config, partial)
    if result is None:
        return 2
    labels = _labels(model)
    _write_spectrum(out / "pss_spectrum.csv", labels, result.spectrum)
    _write_waveforms(out / "pss_waveforms.csv", result.grid.times, result.waveforms,
                     labels)
    report.update(converged=True, iterations=len(result.residual_history),
                  residual_history=result.residual_history,
                  tolerance=solver_cfg.tolerance, elapsed_s=result.elapsed_s)
    _write_json(out / "run_report.json", report)
    return 0


def cmd_eig(config: dict, out: Path, workers: int) -> int:
    def partial(exc, model, solver_cfg):
        _write_csv(out / "eigenvalues.csv", dict.fromkeys(("re", "im"), _EMPTY))

    _, result = _solve(_model(config), config, partial)
    if result is None:
        return 2
    modes = mode_set(result.hss)
    _write_csv(out / "eigenvalues.csv",
               {"re": modes.eigenvalues.real, "im": modes.eigenvalues.imag})
    weakest = modes.weakest
    print(f"weakest: {weakest.real:.17g} {weakest.imag:.17g} "
          f"verdict: {modes.classification}")
    return 0


def cmd_sweep(config: dict, out: Path, workers: int) -> int:
    if config["sweep"] is None:
        raise UsageError("sweep axes must be configured for this case")
    axis1, axis2 = (SweepAxis(config["sweep"][which]["name"],
                              tuple(config["sweep"][which]["values"]))
                    for which in ("axis1", "axis2"))
    spec = SweepSpec(axis1=axis1, axis2=axis2, base_params=config["set"],
                     solver_config=SolverConfig(**config["solver"]),
                     variant=config["variant"])
    result = run_sweep(_builder_for(config["case"]), spec, workers=workers)
    # grid cells in row-major order, axis 2 fastest
    params = {"param1": np.repeat(axis1.values, len(axis2.values)),
              "param2": np.tile(axis2.values, len(axis1.values))}
    _write_csv(out / "trait.csv",
               {**params, "re_weakest": result.re_weakest.ravel(),
                "im_weakest": result.im_weakest.ravel(),
                "converged": result.converged.ravel(),
                "iterations": result.iterations.ravel(),
                "failure": result.failure.ravel()})
    if not np.any(result.converged):
        _write_csv(out / "region.csv",
                   dict.fromkeys(("param1", "param2", "unstable"), _EMPTY))
        _write_csv(out / "boundary.csv", dict.fromkeys(_BOUNDARY_HEADER, _EMPTY))
        print("no sweep cell converged", file=sys.stderr)
        return 2
    region, segments = extract_region(result)
    _write_csv(out / "region.csv", {**params, "unstable": region.ravel()})
    _write_csv(out / "boundary.csv",
               dict(zip(_BOUNDARY_HEADER, np.reshape(segments, (-1, 4)).T)))
    return 0


def cmd_impedance(config: dict, out: Path, workers: int) -> int:
    def partial(exc, model, solver_cfg):
        _write_csv(out / "scan.csv", dict.fromkeys(_SCAN_HEADER, _EMPTY))

    _, result = _solve(_model(config), config, partial)
    if result is None:
        return 2
    scan = frequency_scan(result.hss, config["analysis"]["frequencies_hz"],
                          output_index=config["analysis"]["output_index"],
                          input_index=config["analysis"]["input_index"])
    _write_csv(out / "scan.csv", dict(zip(_SCAN_HEADER, (
        scan.frequencies_hz, scan.diag.real, scan.diag.imag,
        scan.mirror_plus.real, scan.mirror_plus.imag,
        scan.mirror_minus.real, scan.mirror_minus.imag, scan.singular))))
    return 0


def cmd_verify(config: dict, out: Path, workers: int) -> int:
    oracle_cfg = config["oracle"]
    report = {"case": config["case"], "variant": config["variant"],
              "environment": _environment(),
              "tolerance_rms": oracle_cfg["tolerance_rms"]}

    def partial(exc, model, solver_cfg):
        report.update(converged=False, iterations=len(exc.residual_history))
        _write_json(out / "verify_report.json", report)

    model = _model(config)
    # checked before solving, so a bad index is a usage error at every
    # operating point, not only where the kicked response runs
    state_index = oracle_cfg["perturbation"]["state_index"]
    if not 0 <= state_index < model.n_states:
        raise UsageError(f"oracle perturbation state_index {state_index} "
                         f"outside [0, {model.n_states})")
    _, result = _solve(model, config, partial)
    if result is None:
        return 2
    labels = _labels(model)
    period = model.period
    modes = mode_set(result.hss)
    weakest = modes.weakest
    report.update(converged=True, iterations=len(result.residual_history),
                  weakest=[weakest.real, weakest.imag],
                  hss_symmetry_defect=result.hss.symmetry_defect,
                  hss_real_form=result.hss.real_form,
                  solver_verdict=modes.classification)
    checks = []

    if modes.classification == "Stable":
        # integrate starting on the computed orbit: a correct periodic
        # solution is invariant, so any drift over the horizon exposes an
        # inconsistent solve (cold-start settling would instead measure the
        # system's own transient, which for weakly damped cases outlasts any
        # reasonable horizon)
        horizon = oracle_cfg["horizon_periods"] * period
        traj = integrate(model, result.waveforms[0],
                         horizon, oracle_cfg["step"])
        report["oracle_diverged"] = traj.diverged
        if traj.diverged:
            report["rms_error"] = None
            checks.append(False)
        else:
            cmp = compare_waveforms((result.grid.times, result.waveforms),
                                    last_period(traj, period))
            report["rms_error"] = {lab: float(v) for lab, v
                                   in zip(labels, cmp["rms_error"])}
            report["max_error"] = {lab: float(v) for lab, v
                                   in zip(labels, cmp["max_error"])}
            checks.append(bool(np.all(cmp["rms_error"]
                                      <= oracle_cfg["tolerance_rms"])))
    else:
        report["rms_error"] = None
        report["note"] = ("solver classifies this point Unstable; waveform "
                          "comparison skipped (the oracle cannot settle), "
                          "growth fit used instead")
        pert = oracle_cfg["perturbation"]
        onset = pert["onset_periods"] * period
        t_end = onset + oracle_cfg["horizon_periods"] * period
        traj = kicked_response(model, result.waveforms[0], onset, t_end,
                               oracle_cfg["step"], state_index=state_index,
                               magnitude=pert["magnitude"])
        fit = growth_rate_fit(traj, state_index, onset, period)
        agrees = fit.rate > 0.0
        report["growth"] = {"rate": fit.rate, "floored": fit.floored,
                            "sign_agrees": agrees,
                            "trajectory_diverged": traj.diverged}
        if abs(weakest.real) > 0.5:
            checks.append(agrees)
    passed = bool(checks) and all(checks)
    report["pass"] = passed
    _write_json(out / "verify_report.json", report)
    if not passed:
        print("verification failed (see verify_report.json)", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "eig": cmd_eig,
    "sweep": cmd_sweep,
    "impedance": cmd_impedance,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltpkit",
        description="Periodic steady-state, stability, and impedance analysis "
                    "of periodically driven state-space models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "solve the periodic steady state, write spectrum/waveforms"),
            ("eig", "solve PSS and report periodic-linearization eigenvalues"),
            ("sweep", "two-parameter stability sweep"),
            ("impedance", "harmonic frequency scan of the open-loop model"),
            ("verify", "cross-check the solver against time-domain integration")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--case", help="case1, case2, or a .py model file")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a case parameter (repeatable)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="sweep worker processes")
        p.add_argument("--dump-config", action="store_true",
                       help="print the fully resolved config and exit")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = resolve_config(args.command, args)
        if args.dump_config:
            print(json.dumps(config, indent=2, sort_keys=True))
            return 0
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out, args.workers)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
