"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


def _span(sid, name, t0, t1, parent=None, thread=1, note=None):
    return (sid, name, t0, t1, parent, thread, 1, note)


def test_union_length():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert tracing.union_length([(0.0, 2.0), (1.0, 3.0), (1.5, 1.7)]) == 3.0


def test_self_time_with_overlapping_sweep_threads():
    # cli.main [0, 10] -> sweep.run [1, 9]; thread 2 runs cells [1, 5] and
    # [5, 9], thread 3 runs [1.5, 4.5] and [5, 8.5]; one transform inside the
    # first cell.
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "sweep.run", 1.0, 9.0, parent=0),
        _span(2, "sweep.cell", 1.0, 5.0, parent=1, thread=2),
        _span(3, "sweep.cell", 5.0, 9.0, parent=1, thread=2),
        _span(4, "sweep.cell", 1.5, 4.5, parent=1, thread=3),
        _span(5, "sweep.cell", 5.0, 8.5, parent=1, thread=3),
        _span(6, "spectral.transform", 2.0, 3.0, parent=2, thread=2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == (2.0, 0.0)
    # the cells cover [1, 9] completely; their summed time exceeds it by 6.5
    assert selfs[1] == pytest.approx((0.0, 6.5))
    assert selfs[2] == (3.0, 0.0)
    assert selfs[6] == (1.0, 0.0)

    m = tracing.layer_metrics(spans, wall_s=10.0, workers=2)
    assert m["cli.self_ms"] == pytest.approx(2000.0)
    assert m["spectral.transform_ms"] == pytest.approx(1000.0)
    assert m["spectral.transform_calls"] == 1
    # self times add up to wall + overlap; the overlap is taken back out
    assert m["sweep.self_ms"] == pytest.approx(1e3 * (0 + 3 + 4 + 3 + 3.5))
    assert m["trace.attributed_frac"] == pytest.approx(1.0)
    assert m["sweep.cell_samples"] == 4
    assert m["sweep.cell_ms_p50"] == pytest.approx(3750.0)
    assert m["sweep.parallel_efficiency"] == pytest.approx(14.5 / (8.0 * 2))


def test_self_time_clips_children_to_parent():
    spans = [_span(0, "cli.main", 0.0, 4.0),
             _span(1, "solver.solve", 3.0, 5.0, parent=0)]
    assert tracing.self_times(spans)[0] == (3.0, 0.0)


def test_solver_failures_and_notes_are_counted():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "solver.solve", 0.0, 1.0, parent=0, note={"warm": False}),
        _span(2, "solver.solve", 1.0, 2.0, parent=0, note={"warm": True}),
        _span(3, "solver.solve", 2.0, 3.0, parent=0,
              note={"error": "SingularIterationMatrix"}),
        _span(4, "oracle.integrate", 3.0, 7.0, parent=0, note={"steps": 2000}),
        _span(5, "cases.dynamics", 3.0, 5.0, parent=4),
    ]
    m = tracing.layer_metrics(spans, wall_s=10.0)
    assert m["solver.solves"] == 3
    assert m["solver.warm_start_frac"] == pytest.approx(1 / 3)
    assert m["solver.singular"] == 1
    assert m["oracle.rk4_steps"] == 2000
    assert m["oracle.integrate_ms"] == pytest.approx(2000.0)
    assert m["oracle.step_overhead_us"] == pytest.approx(1000.0)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    plain = {"setup_s": 0.4, "items": 253, "cells": 253, "wall_s": 2.0,
             "peak_rss_mb": 70.0, "artifact_bytes": 100}
    traced = dict(plain, layers=tracing.layer_metrics(
        [_span(0, "cli.main", 0.0, 1.0)], wall_s=1.0))
    e2e = run.end_to_end([0.4, 0.5], [plain], attempted=10, failed=0)
    layers = run.per_layer([plain], [plain], [traced], parallel=traced)
    spec = _spec()
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
    assert spec["paths"] == ["bench"]


def _cli_pass(tracer, argv, out):
    import ltpkit.cli

    argv = argv + ["--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = (ltpkit.cli.main(argv) if tracer is None
                else tracer.call("cli.main", ltpkit.cli.main, argv))
    assert code == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command, config", [
    (["sweep", "--case", "case1", "--workers", "2"],
     {"sweep": {"axis1": {"name": "alpha_pll",
                          "values": {"start": 10.0, "stop": 30.0, "count": 3}},
                "axis2": {"name": "u_gbeta_mag",
                          "values": {"start": 0.0, "stop": 0.2, "count": 2}}}}),
    (["impedance", "--case", "case2"],
     {"analysis": {"frequencies_hz": {"start": 1.0, "stop": 2500.0, "count": 12,
                                      "spacing": "log"}}}),
])
def test_traced_artifacts_are_byte_identical(tmp_path, monkeypatch, command, config):
    monkeypatch.syspath_prepend(str(run.SRC))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = command + ["--config", str(cfg)]
    plain = _cli_pass(None, argv, tmp_path / "plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = _cli_pass(tracer, argv, tmp_path / "traced")
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert plain and traced == plain
    assert tracer.missing == []
    layers = tracing.layer_metrics(tracer.spans, wall, workers=2)
    assert layers["solver.solves"] > 0 and layers["spectral.transform_calls"] > 0
    assert layers["trace.attributed_frac"] == pytest.approx(1.0, abs=run.ATTRIBUTED_TOL)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
