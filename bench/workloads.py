"""Seeded inputs of the four benchmark workloads.

Every workload is a list of ``ltpkit`` CLI invocations.  The seed moves the
inputs only inside regions where the expected outcome is clear, so that a
correct program passes every check on every seed:

* ``sweep_case1`` / ``sweep_case2``: both sweep axes are shifted upward by a
  seeded fraction (0 to 1/2) of their grid step; the grid sizes stay at the
  CLI defaults (23 x 11 and 11 x 11), and every cell converges.
* ``scan``: three seeded open-loop operating points per case (balanced with a
  seeded current reference, unbalanced grid voltage, asymmetric converter
  filter) and a 400-point log grid from 1 Hz to 2.5 kHz multiplied by a
  seeded factor of up to half a grid step.
* ``verify``: a stable case-1 point (seeded PLL bandwidth, weakest
  Re between -9.9 and -6.7 1/s) and an unstable case-2 point (seeded alpha_c
  and k_sym_g around 150 Hz / 2.8, weakest Re between +2.8 and +4.8 1/s), both
  clear of the |Re| < 0.5 marginal zone.  The oracle horizon, onset and step
  are written into the config, so the RK4 step count is known exactly.

The open-loop models drive the converter bus directly, so the grid-side
asymmetry k_sym_g does not reach them; the scan's asymmetric point scales the
converter filter (k_sym_c) instead.

Only the standard library is used, so the runner can import this module
without NumPy.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("sweep_case1", "sweep_case2", "scan", "verify")

SWEEP_WORKERS = 2
SCAN_POINTS = 400

# Default CLI sweep grids: (name, start, stop, count) per axis.
_SWEEP_GRIDS = {
    "case1": (("alpha_pll", 5.0, 60.0, 23), ("u_gbeta_mag", 0.0, 0.5, 11)),
    "case2": (("alpha_c", 150.0, 250.0, 11), ("k_sym_g", 1.0, 3.0, 11)),
}

# Both cases run at 50 Hz; the oracle settings below go into the config.
_PERIOD_S = 0.02
_ORACLE = {"horizon_periods": 25.0, "step": 5e-5,
           "perturbation": {"onset_periods": 10.0}}


def _shifted_axis(rng: random.Random, start: float, stop: float, count: int):
    shift = 0.5 * rng.random() * (stop - start) / (count - 1)
    return {"start": start + shift, "stop": stop + shift, "count": count}


def _write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return str(path)


def _rk4_steps(unstable: bool) -> int:
    """RK4 steps one ``verify`` command integrates under ``_ORACLE``.

    A stable point integrates ``horizon`` periods on the orbit; an unstable
    one runs the kicked response over ``onset + horizon`` periods.
    """
    periods = _ORACLE["horizon_periods"]
    if unstable:
        periods += _ORACLE["perturbation"]["onset_periods"]
    return int(round(periods * _PERIOD_S / _ORACLE["step"]))


def build(workload: str, seed: int, workdir: Path, workers: int = SWEEP_WORKERS) -> list:
    """Write the workload's config files under ``workdir``; return its commands.

    Each command is a dict with ``argv`` (for ``ltpkit.cli.main``), ``out``
    (its artifact directory) and the facts the checks need.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    commands = []

    def add(argv, **facts):
        out = workdir / f"cmd{len(commands)}"
        commands.append({"argv": argv + ["--out", str(out)], "out": str(out), **facts})

    if workload.startswith("sweep_"):
        case = workload.split("_", 1)[1]
        axes = {}
        for which, (name, start, stop, count) in zip(("axis1", "axis2"), _SWEEP_GRIDS[case]):
            axes[which] = {"name": name, "values": _shifted_axis(rng, start, stop, count)}
        cfg = _write_config(workdir / "sweep.json", {"sweep": axes})
        add(["sweep", "--case", case, "--workers", str(workers), "--config", cfg],
            kind="sweep", case=case)
    elif workload == "scan":
        log_step = math.log(2500.0) / (SCAN_POINTS - 1)
        factor = math.exp(0.5 * rng.random() * log_step)
        freqs = {"start": 1.0 * factor, "stop": 2500.0 * factor,
                 "count": SCAN_POINTS, "spacing": "log"}
        cfg = _write_config(workdir / "scan.json", {"analysis": {"frequencies_hz": freqs}})
        for case in ("case1", "case2"):
            points = (
                {"i_d_ref": round(rng.uniform(0.8, 1.0), 6)},
                {"u_gbeta_mag": round(rng.uniform(0.6, 0.9), 6)},
                {"k_sym_c": round(rng.uniform(1.2, 1.6), 6)},
            )
            for point in points:
                add(["impedance", "--case", case, "--config", cfg] + _set_args(point),
                    kind="scan", case=case, params=point)
    else:
        cfg = _write_config(workdir / "oracle.json", {"oracle": _ORACLE})
        points = (("case1", {"alpha_pll": round(rng.uniform(18.0, 22.0), 6)}, False),
                  ("case2", {"alpha_c": round(rng.uniform(145.0, 155.0), 6),
                             "k_sym_g": round(rng.uniform(2.7, 2.9), 6)}, True))
        for case, point, unstable in points:
            add(["verify", "--case", case, "--config", cfg] + _set_args(point),
                kind="verify", case=case, params=point,
                unstable=unstable, rk4_steps=_rk4_steps(unstable))
    return commands


def _set_args(point: dict) -> list:
    return [arg for key, value in point.items() for arg in ("--set", f"{key}={value!r}")]
