"""Correctness checks of one workload pass, run outside the timed region.

* Sweeps: seeded cells are re-solved cold.  Each must meet the
  ``pss_residual`` fixed-point bound defect <= tol * (1 + |N_blk X|), and the
  weakest mode of ``mode_set`` must match the cell's ``trait.csv`` row.
* Scan: seeded rows of ``scan.csv`` are compared with a harmonic transfer
  function the benchmark assembles itself from the model's ``jac_*`` samples
  on the PSS orbit, with ``numpy.fft`` coefficients, its own block-Toeplitz
  loops and a dense ``numpy.linalg.solve``.  No ltpkit spectral or analysis
  code is on that path.
* Verify: exit code 0, ``"pass": true``, the expected verdict, and a weakest
  mode outside the |Re| < 0.5 marginal zone.

Each check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from pathlib import Path

import numpy as np

import ltpkit.cli
from ltpkit.analysis import mode_set
from ltpkit.cases import case_builder
from ltpkit.solver import SolverConfig, pss_residual, solve_pss

SWEEP_CELLS = 3
SCAN_ROWS = 4
# Cold and warm-started solves stop at different sub-tolerance iterates, so
# their weakest modes agree to about the Newton tolerance, not to round-off.
MODE_RTOL = 1e-4
# Same algebra, different summation order and solver: the direct solve agrees
# to about 3e-15 of the column scale; a complex-Schur solve is expected to
# agree to about 1e-11 on case 2, whose resolvent is ill-conditioned.
HTF_RTOL = 1e-9


def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def resolved_config(argv) -> dict:
    """The config the CLI resolves for ``argv``, via ``--dump-config``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ltpkit.cli.main(list(argv) + ["--dump-config"])
    if code != 0:
        raise RuntimeError(f"--dump-config failed for {argv}")
    return json.loads(buf.getvalue())


def check_sweep(cmd: dict, rng: random.Random) -> list:
    config = resolved_config(cmd["argv"])
    rows = read_csv(Path(cmd["out"]) / "trait.csv")
    axis1 = config["sweep"]["axis1"]["name"]
    axis2 = config["sweep"]["axis2"]["name"]
    solver_cfg = SolverConfig(**config["solver"])
    results = []
    for index in sorted(rng.sample(range(len(rows)), min(SWEEP_CELLS, len(rows)))):
        row = rows[index]
        name = f"sweep cell {index} ({row['param1']}, {row['param2']})"
        if row["converged"] != "true":
            results.append((name, False, "cell did not converge in the sweep"))
            continue
        overrides = dict(config["set"])
        overrides[axis1] = float(row["param1"])
        overrides[axis2] = float(row["param2"])
        model = case_builder(config["case"])(overrides)[config["variant"]]
        result = solve_pss(model, solver_cfg)
        defect, nx = pss_residual(model, result.spectrum, result.grid)
        bound = solver_cfg.tolerance * (1.0 + nx)
        weakest = mode_set(result.hss).weakest
        listed = complex(float(row["re_weakest"]), float(row["im_weakest"]))
        gap = abs(weakest - listed)
        ok = defect <= bound and gap <= MODE_RTOL * (1.0 + abs(weakest))
        results.append((name, ok, f"defect {defect:.3e} (bound {bound:.3e}), "
                                  f"|weakest - trait| {gap:.3e}"))
    return results


def _harmonics(samples: np.ndarray, order: int) -> np.ndarray:
    """Fourier coefficients k = -order..order along axis 0, via the FFT."""
    m = samples.shape[0]
    spec = np.fft.fft(samples, axis=0) / m
    return spec[np.arange(-order, order + 1) % m]


def _toeplitz(samples: np.ndarray, n_harmonics: int) -> np.ndarray:
    coeffs = _harmonics(samples, 2 * n_harmonics)
    r, c = samples.shape[1:]
    dim = 2 * n_harmonics + 1
    out = np.zeros((dim * r, dim * c), dtype=complex)
    for k in range(dim):
        for l in range(dim):
            out[k * r:(k + 1) * r, l * c:(l + 1) * c] = coeffs[k - l + 2 * n_harmonics]
    return out


def reference_htf(model, waveforms: np.ndarray, solver_cfg: SolverConfig):
    """``s -> H(s) = C (sI + N_blk - A)^-1 B + D`` built with numpy alone."""
    n_h = solver_cfg.n_harmonics
    m = waveforms.shape[0]
    t = np.arange(m) * solver_cfg.step
    u = np.asarray(model.input_fn(t), dtype=complex)
    a, b, c, d = (_toeplitz(np.asarray(jac(t, waveforms, u), dtype=complex), n_h)
                  for jac in (model.jac_state, model.jac_input,
                              model.out_jac_state, model.out_jac_input))
    omega1 = 2.0 * np.pi / (m * solver_cfg.step)
    nblk = np.repeat(1j * omega1 * np.arange(-n_h, n_h + 1), model.n_states)
    base = np.diag(nblk) - a

    def htf(s):
        return c @ np.linalg.solve(base + s * np.eye(base.shape[0]), b) + d

    return htf


def check_scan(cmd: dict, rng: random.Random) -> list:
    config = resolved_config(cmd["argv"])
    rows = read_csv(Path(cmd["out"]) / "scan.csv")
    solver_cfg = SolverConfig(**config["solver"])
    model = case_builder(config["case"])(config["set"])[config["variant"]]
    result = solve_pss(model, solver_cfg)
    htf = reference_htf(model, result.waveforms, solver_cfg)
    n_h, p, m = solver_cfg.n_harmonics, model.n_outputs, model.n_inputs
    out_i = config["analysis"]["output_index"]
    in_i = config["analysis"]["input_index"]
    freqs = config["analysis"]["frequencies_hz"]
    results = []
    for index in sorted(rng.sample(range(len(rows)), min(SCAN_ROWS, len(rows)))):
        row = rows[index]
        name = f"{cmd['case']} {cmd['params']} scan row {index}"
        f_hz = float(row["f_hz"])
        if row["singular"] != "false" or f_hz != freqs[index]:
            results.append((name, False, f"row flagged singular or f = {f_hz} "
                                         f"is not grid point {freqs[index]}"))
            continue
        h = htf(2j * np.pi * f_hz)
        col = n_h * m + in_i
        expected = np.array([h[(n_h + k) * p + out_i, col] for k in (0, 2, -2)])
        got = np.array([complex(float(row[f"{key}_re"]), float(row[f"{key}_im"]))
                        for key in ("diag", "mirror_plus", "mirror_minus")])
        scale = 1.0 + float(np.max(np.abs(h[:, col])))
        gap = float(np.max(np.abs(expected - got)))
        results.append((name, gap <= HTF_RTOL * scale,
                        f"max |scan - reference| {gap:.3e} (scale {scale:.3e})"))
    return results


def check_verify(cmd: dict, exit_code: int) -> list:
    name = f"verify {cmd['case']} {cmd['params']}"
    report_path = Path(cmd["out"]) / "verify_report.json"
    if not report_path.exists():
        return [(name, False, f"exit {exit_code}, no verify_report.json")]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    verdict = "Unstable" if cmd["unstable"] else "Stable"
    weakest = report.get("weakest") or [0.0, 0.0]
    ok = (exit_code == 0 and report.get("pass") is True
          and report.get("solver_verdict") == verdict and abs(weakest[0]) > 0.5)
    return [(name, ok, f"exit {exit_code}, pass {report.get('pass')}, "
                       f"verdict {report.get('solver_verdict')} (expected {verdict}), "
                       f"weakest Re {weakest[0]:.4f}")]


def run_checks(commands: list, exit_codes: list, seed: int) -> list:
    rng = random.Random(f"checks:{seed}")
    results = []
    for cmd, code in zip(commands, exit_codes):
        name = " ".join(cmd["argv"][:3])
        try:
            if cmd["kind"] == "verify":
                results += check_verify(cmd, code)
            elif code != 0:
                results.append((name, False, f"exit {code}"))
            elif cmd["kind"] == "sweep":
                results += check_sweep(cmd, rng)
            else:
                results += check_scan(cmd, rng)
        except Exception as exc:  # a broken artifact fails its check, not the run
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
