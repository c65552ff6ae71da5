"""Batch command-line front end.

Each command binds a JSON/flag config to the solver, analysis, sweep, and
time-domain verification modules and emits plot-ready CSV/JSON artifacts.
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
from .errors import MaxIterationsExceeded, SolverError, UsageError
from .oracle import KICK_STATE, compare_waveforms, grid_steps, growth_rate_fit, \
    integrate, kicked_response, last_period
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
_PERTURB_DEFAULTS = {"onset_periods": 10.0}
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
# 250 times the 400-frequency scan, whose case-2 back-substitution then takes 0.26 GB
MAX_GRID_COUNT = 100_000
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
    # NaN fails the comparison, and a JSON integer may exceed every float
    if kind is float and number and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind is float:
        raise UsageError(f"{where}: {value!r} is not a finite number")
    raise UsageError(f"{where}: expected {kind.__name__}, got {value!r}")


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
    if count > MAX_GRID_COUNT:
        raise UsageError(f"{section}: count {count} exceeds the limit of {MAX_GRID_COUNT}")
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise UsageError(f"{section}: log spacing needs positive bounds")
        values = np.geomspace(start, stop, count)
    elif spacing == "linear":
        values = np.linspace(start, stop, count)
    else:
        raise UsageError(f"{section}: spacing must be 'linear' or 'log'")
    return [float(v) for v in values]


def _resolve_axis(which: str, given: dict | None, default: dict) -> dict:
    axis = dict(default)
    for key, value in _section(f"sweep {which}", given).items():
        if key not in ("name", "values"):
            raise UsageError(f"unknown sweep {which} key {key!r}")
        axis[key] = value
    for key in ("name", "values"):
        if key not in axis:
            raise UsageError(f"sweep {which}: missing key {key!r}")
    if not isinstance(axis["name"], str):
        raise UsageError(f"sweep {which} name must be a string")
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

    overrides = {key: _typed(f"set {key}", value, float)
                 for key, value in _section("set", file_cfg.get("set")).items()}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects key=value, got {item!r}")
        try:
            value = float(value)
        except ValueError:
            pass  # left a string, which _typed refuses like the file's
        overrides[key] = _typed(f"set {key}", value, float)

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
        defaults = sweep_defaults or {}
        given = _section("sweep", sweep_given)
        for key in given:
            if key not in ("axis1", "axis2"):
                raise UsageError(f"unknown sweep config key {key!r}")
        sweep = {which: _resolve_axis(which, given.get(which), defaults.get(which, {}))
                 for which in ("axis1", "axis2")}

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
    """The periodic steady state of ``model``, a ``SolverResult``.

    On a solver failure ``write_partial(exc, model, solver_cfg)`` writes the
    command's partial artifacts and the error propagates; ``main`` reports
    it and exits 2.
    """
    solver_cfg = SolverConfig(**config["solver"])
    try:
        return solve_pss(model, solver_cfg)
    except SolverError as exc:
        write_partial(exc, model, solver_cfg)
        raise


def cmd_solve(config: dict, out: Path, workers: int) -> int:
    report = {"case": config["case"], "variant": config["variant"],
              "environment": _environment(),
              "tolerance": config["solver"]["tolerance"]}

    def partial(exc, model, solver_cfg):
        if isinstance(exc, MaxIterationsExceeded):
            labels, grid = _labels(model), solver_cfg.grid(model)
            _write_spectrum(out / "pss_spectrum.csv", labels, exc.last_spectrum)
            waveforms = spectrum_to_samples(exc.last_spectrum, grid.n_samples)
            _write_waveforms(out / "pss_waveforms.csv", grid.times, waveforms, labels)
        report.update(converged=False, iterations=len(exc.residual_history),
                      residual_history=exc.residual_history, elapsed_s=exc.elapsed_s)
        _write_json(out / "run_report.json", report)

    model = _model(config)
    result = _solve(model, config, partial)
    labels = _labels(model)
    _write_spectrum(out / "pss_spectrum.csv", labels, result.spectrum)
    _write_waveforms(out / "pss_waveforms.csv", result.grid.times, result.waveforms,
                     labels)
    report.update(converged=True, iterations=len(result.residual_history),
                  residual_history=result.residual_history, elapsed_s=result.elapsed_s)
    _write_json(out / "run_report.json", report)
    return 0


def cmd_eig(config: dict, out: Path, workers: int) -> int:
    def partial(exc, model, solver_cfg):
        _write_csv(out / "eigenvalues.csv", dict.fromkeys(("re", "im"), _EMPTY))

    result = _solve(_model(config), config, partial)
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

    result = _solve(_model(config), config, partial)
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
    period, step = model.period, oracle_cfg["step"]
    horizon = oracle_cfg["horizon_periods"] * period
    onset = oracle_cfg["perturbation"]["onset_periods"] * period
    # the solve's verdict picks the oracle run, so refuse a grid that either
    # run would refuse before doing any of the work
    n_steps, p, _ = grid_steps(step, horizon, period)
    grid_steps(step, onset + horizon, period, onset)
    result = _solve(model, config, partial)
    labels = _labels(model)
    modes = mode_set(result.hss)
    weakest = modes.weakest
    report.update(converged=True, iterations=len(result.residual_history),
                  weakest=[weakest.real, weakest.imag],
                  hss_symmetry_defect=result.hss.symmetry_defect,
                  hss_blocks=[int(b.size) for b in result.hss.blocks],
                  hss_decoupling_defect=result.hss.decoupling_defect,
                  hss_real_form=result.hss.real_form,
                  solver_verdict=modes.classification)

    if modes.classification == "Stable":
        # integrate starting on the computed orbit: a correct periodic
        # solution is invariant, so any drift over the horizon exposes an
        # inconsistent solve (cold-start settling would instead measure the
        # system's own transient, which for weakly damped cases outlasts any
        # reasonable horizon); keep one period and the samples after the
        # last whole one, which hold the last phase-aligned period
        traj = integrate(model, result.waveforms[0], horizon, step,
                         keep=p + (n_steps + 1) % p)
        report["oracle_diverged"] = traj.diverged
        if traj.diverged:
            report["rms_error"] = None
            passed = False
        else:
            cmp = compare_waveforms((result.grid.times, result.waveforms),
                                    last_period(traj, period))
            report["rms_error"] = {lab: float(v) for lab, v
                                   in zip(labels, cmp["rms_error"])}
            report["max_error"] = {lab: float(v) for lab, v
                                   in zip(labels, cmp["max_error"])}
            passed = bool(np.all(cmp["rms_error"] <= oracle_cfg["tolerance_rms"]))
    else:
        report["rms_error"] = None
        report["note"] = ("solver classifies this point Unstable; waveform "
                          "comparison skipped (the oracle cannot settle), "
                          "growth fit used instead")
        traj = kicked_response(model, result.waveforms[0], onset,
                               onset + horizon, step)
        fit = growth_rate_fit(traj, KICK_STATE, onset, period)
        agrees = fit.rate > 0.0
        report["growth"] = {"rate": fit.rate, "floored": fit.floored,
                            "sign_agrees": agrees,
                            "trajectory_diverged": traj.diverged}
        # the sign check gates only outside |Re| <= 0.5
        passed = bool(agrees and abs(weakest.real) > 0.5)
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


class _Parser(argparse.ArgumentParser):
    """Reports its own usage errors as :class:`UsageError` (exit 1)."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ltpkit",
        description="Periodic steady-state, stability, and impedance analysis "
                    "of periodically driven state-space models.")
    parser.add_argument(
        "command", choices=tuple(_COMMANDS),
        help="solve: the periodic steady state, spectrum and waveforms; "
             "eig: solve and report periodic-linearization eigenvalues; "
             "sweep: two-parameter stability sweep; "
             "impedance: harmonic frequency scan of the open-loop model; "
             "verify: cross-check the solver against time-domain integration")
    parser.add_argument("--case", help="case1, case2, or a .py model file")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a case parameter (repeatable)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--workers", type=int, default=1,
                        help="sweep worker processes")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the fully resolved config and exit")
    return parser


def main(argv=None) -> int:
    """Run one command; the exit code of a usage error is 1, of a solver
    failure 2, each with an ``error: …`` line on stderr."""
    try:
        args = _build_parser().parse_args(argv)
        config = resolve_config(args.command, args)
        if args.dump_config:
            print(json.dumps(config, indent=2, sort_keys=True))
            return 0
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out, args.workers)
    except (UsageError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2


if __name__ == "__main__":
    sys.exit(main())
