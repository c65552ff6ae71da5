"""Span tracing of ltpkit from outside the package, and per-layer metrics.

``Tracer.install`` replaces public names with timing wrappers where the
importing module bound them (``ltpkit.solver.lu_factor``,
``ltpkit.sweep.solve_pss``, ``BlockToeplitz.full``, ...), and wraps the model
callables of every built ``SystemModel`` with ``dataclasses.replace``.  Nothing
under ``src/`` is modified, so two commits are traced by the same code.  A
name a later commit no longer defines is skipped and listed in
``Tracer.missing``.

A span is ``(id, name, start, end, parent, thread, run, note)``.  Its layer is
the part of the name before the first dot.  Spans stay in memory until
``dump``.  Self time is a span's duration minus the length of the union of its
children's intervals, so overlapping children from the two sweep threads are
not subtracted twice.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# (module, attribute, span name).  A function is wrapped once per module that
# binds it, so calls through any of those names are seen.
TARGETS = (
    ("ltpkit.cli", "resolve_config", "cli.resolve_config"),
    ("ltpkit.cli", "spectrum_to_samples", "spectral.transform"),
    ("ltpkit.solver", "samples_to_spectrum", "spectral.transform"),
    ("ltpkit.solver", "spectrum_to_samples", "spectral.transform"),
    ("ltpkit.spectral", "samples_to_spectrum", "spectral.transform"),
    ("ltpkit.solver", "build_toeplitz", "spectral.toeplitz_build"),
    ("ltpkit.solver", "build_nblk", "spectral.toeplitz_build"),
    ("ltpkit.spectral", "BlockToeplitz.full", "spectral.toeplitz_full"),
    ("ltpkit.cli", "solve_pss", "solver.solve"),
    ("ltpkit.sweep", "solve_pss", "solver.solve"),
    ("ltpkit.solver", "newton_step", "solver.newton_step"),
    ("ltpkit.solver", "lu_factor", "solver.lu"),
    ("ltpkit.solver", "lu_solve", "solver.lu"),
    ("ltpkit.analysis", "hss_eigenvalues", "analysis.eig"),
    ("ltpkit.cli", "hss_eigenvalues", "analysis.eig"),
    ("ltpkit.sweep", "hss_eigenvalues", "analysis.eig"),
    ("ltpkit.analysis", "weakest_mode", "analysis.modes"),
    ("ltpkit.cli", "weakest_mode", "analysis.modes"),
    ("ltpkit.sweep", "weakest_mode", "analysis.modes"),
    ("ltpkit.analysis", "mode_set", "analysis.modes"),
    ("ltpkit.cli", "mode_set", "analysis.modes"),
    ("ltpkit.analysis", "harmonic_transfer_function", "analysis.htf"),
    ("ltpkit.cli", "frequency_scan", "analysis.scan"),
    ("ltpkit.cli", "run_sweep", "sweep.run"),
    ("ltpkit.sweep", "_solve_cell", "sweep.cell"),
    ("ltpkit.cli", "extract_region", "sweep.region"),
    ("ltpkit.cli", "integrate", "oracle.integrate"),
    ("ltpkit.oracle", "integrate", "oracle.integrate"),
    ("ltpkit.cli", "kicked_response", "oracle.kicked"),
    ("ltpkit.cli", "last_period", "oracle.fit_compare"),
    ("ltpkit.cli", "compare_waveforms", "oracle.fit_compare"),
    ("ltpkit.cli", "growth_rate_fit", "oracle.fit_compare"),
)

MODEL_CALLABLES = ("dynamics", "jac_state", "jac_input", "out_jac_state",
                   "out_jac_input")
JACOBIANS = MODEL_CALLABLES[1:]


def _note_solve(args, kwargs, result):
    initial = kwargs.get("initial", args[2] if len(args) > 2 else None)
    return {"warm": initial is not None}


def _note_integrate(args, kwargs, result):
    return {"steps": int(len(result.times) - 1)}


NOTES = {"solver.solve": _note_solve, "oracle.integrate": _note_integrate}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self.missing = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, note=None):
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            info = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    info = note(args, kwargs, result)
                return result
            except Exception as exc:
                info = {"error": type(exc).__name__}
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent,
                                   threading.get_ident(), self.run, info))

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a root span of a new run id (one CLI command)."""
        self.run += 1
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for module_name, attr, span in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or leaf not in vars(owner):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patch(owner, leaf, self.wrap(span, vars(owner)[leaf], NOTES.get(span)))
        cli = importlib.import_module("ltpkit.cli")
        if "case_builder" in vars(cli):
            self._patch(cli, "case_builder", self._traced_case_builder(cli.case_builder))
        else:
            self.missing.append("ltpkit.cli.case_builder")
        # Spans opened in pool threads get the submitting span as parent.
        submit = ThreadPoolExecutor.submit

        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None

            def run(*a, **k):
                inner = self._stack()
                inner.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    inner.pop()

            return submit(pool, run, *args, **kwargs)

        self._patch(ThreadPoolExecutor, "submit", traced_submit)

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def _traced_case_builder(self, case_builder):
        def traced_case_builder(name):
            build = self.wrap("cases.build", case_builder(name))

            def traced_build(overrides=None):
                models = build(overrides)
                return {variant: self._traced_model(model)
                        for variant, model in models.items()}

            return traced_build

        return traced_case_builder

    def _traced_model(self, model):
        """Copy of a ``SystemModel`` whose callables record spans."""
        fields = {name: self.wrap(f"cases.{name}", getattr(model, name))
                  for name in MODEL_CALLABLES}
        return dataclasses.replace(model, **fields)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "thread", "run", "note"],
                       "spans": sorted(self.spans)}, fh)


# ---------------------------------------------------------------------------
# span arithmetic

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """``(self, overlap)`` per span id.

    ``self`` is the duration minus the union of the children's intervals
    (clipped to the span); ``overlap`` is the children's summed duration minus
    that union, the time children ran concurrently with each other.
    """
    children = defaultdict(list)
    for sid, _, t0, t1, parent, *_ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, *_ in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        kids = [(a, b) for a, b in kids if b > a]
        covered = union_length(kids)
        out[sid] = (t1 - t0 - covered, sum(b - a for a, b in kids) - covered)
    return out


def _quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans, wall_s: float, workers: int = 1) -> dict:
    """Per-layer metrics of one traced pass.

    ``wall_s`` is the summed wall time of the pass's CLI commands measured
    outside the spans; ``workers`` the sweep thread count.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    layer_ms = defaultdict(float)
    errors = defaultdict(int)
    overlap = 0.0
    cell_ms, sweep_wall = [], 0.0
    warm = steps = 0
    for sid, name, t0, t1, parent, thread, run, note in spans:
        own, ovl = selfs[sid]
        calls[name] += 1
        self_ms[name] += 1e3 * own
        layer_ms[name.split(".", 1)[0]] += 1e3 * own
        overlap += ovl
        note = note or {}
        if "error" in note:
            errors[(name, note["error"])] += 1
        warm += bool(note.get("warm"))
        steps += note.get("steps", 0)
        if name == "sweep.cell":
            cell_ms.append(1e3 * (t1 - t0))
        elif name == "sweep.run":
            sweep_wall += t1 - t0

    def ms(*names):
        return sum(self_ms[n] for n in names)

    solves = calls["solver.solve"]
    newton = calls["solver.newton_step"]
    integrate_self = self_ms["oracle.integrate"]
    m = {
        "spectral.transform_calls": calls["spectral.transform"],
        "spectral.transform_ms": ms("spectral.transform"),
        "spectral.toeplitz_build_ms": ms("spectral.toeplitz_build"),
        "spectral.toeplitz_full_calls": calls["spectral.toeplitz_full"],
        "spectral.toeplitz_full_ms": ms("spectral.toeplitz_full"),
        "cases.dynamics_calls": calls["cases.dynamics"],
        "cases.dynamics_ms": ms("cases.dynamics"),
        "cases.jacobian_calls": sum(calls[f"cases.{j}"] for j in JACOBIANS),
        "cases.jacobian_ms": ms(*(f"cases.{j}" for j in JACOBIANS)),
        **{f"cases.{j}_calls": calls[f"cases.{j}"] for j in JACOBIANS},
        "cases.build_ms": ms("cases.build"),
        "solver.solves": solves,
        "solver.newton_steps": newton,
        "solver.newton_steps_per_solve": newton / solves if solves else 0.0,
        "solver.warm_start_frac": warm / solves if solves else 0.0,
        "solver.newton_step_ms": ms("solver.newton_step"),
        "solver.lu_ms": ms("solver.lu"),
        "solver.solve_self_ms": ms("solver.solve"),
        "solver.max_iter": errors[("solver.solve", "MaxIterationsExceeded")],
        "solver.singular": errors[("solver.solve", "SingularIterationMatrix")],
        "solver.diverged": errors[("solver.solve", "DivergedTrajectory")],
        "analysis.eig_calls": calls["analysis.eig"],
        "analysis.eig_ms": ms("analysis.eig", "analysis.modes"),
        "analysis.htf_calls": calls["analysis.htf"],
        "analysis.htf_ms": ms("analysis.htf"),
        "analysis.scan_self_ms": ms("analysis.scan"),
        "analysis.singular_points": errors[("analysis.htf", "SingularAtFrequency")],
        "sweep.cell_samples": len(cell_ms),
        "sweep.cell_ms_p50": _quantile(cell_ms, 0.5),
        "sweep.cell_ms_p90": _quantile(cell_ms, 0.9),
        "sweep.parallel_efficiency": (sum(cell_ms) / (1e3 * sweep_wall * workers)
                                      if sweep_wall else 0.0),
        "sweep.self_ms": layer_ms["sweep"],
        "oracle.rk4_steps": steps,
        "oracle.integrate_ms": ms("oracle.integrate", "oracle.kicked"),
        "oracle.step_overhead_us": 1e3 * integrate_self / steps if steps else 0.0,
        "oracle.fit_compare_ms": ms("oracle.fit_compare"),
        "cli.self_ms": layer_ms["cli"],
        "trace.spans": len(spans),
        "trace.attributed_frac": ((sum(layer_ms.values()) - 1e3 * overlap)
                                  / (1e3 * wall_s) if wall_s else 0.0),
    }
    return m
