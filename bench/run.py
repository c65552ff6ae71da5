"""ltpkit benchmark: run one or all workloads, check the outputs, print metrics.

    python3 bench/run.py --workload sweep_case1 --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 3

Each pass runs in a fresh interpreter (``bench/worker.py``) with
OPENBLAS/OMP/MKL_NUM_THREADS=1 and the checkout's ``src`` on PYTHONPATH.
``--trace 0`` repeats untimed-check passes for ``--seconds`` and reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics.  Every metric is printed by
name with its unit, then the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed; 2 when the checkout holds no ltpkit sources.

Only the standard library is used here; NumPy is loaded by the workers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

MIN_PASSES = 2
MIN_SETUP_SAMPLES = 9
# A much slower program still ends a run well inside three minutes: no pass
# starts that is predicted to end after RUN_LIMIT_S.
RUN_LIMIT_S = 100
WORKER_TIMEOUT_S = 60
# A traced pass's layers must account for its wall time within this share.
ATTRIBUTED_TOL = 0.02
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ITEM_OF = {
    "sweep_case1": "converged cells per second of sweep wall time",
    "sweep_case2": "converged cells per second of sweep wall time",
    "scan": "non-singular scan rows per second of impedance wall time",
    "verify": "RK4 steps per second of verify wall time",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


def _worker(workload: str, seed: int, workdir: Path, **flags) -> dict:
    """Run one worker pass; return its result dict."""
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir / "cmds"),
           "--result", str(result_path), "--src", str(SRC)]
    for key, value in flags.items():
        if value is True:
            cmd.append("--" + key.replace("_", "-"))
        elif value not in (None, False):
            cmd += ["--" + key.replace("_", "-"), str(value)]
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s: {cmd}") from None
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _identical(name: str, got: dict, want: dict, only=None):
    keys = [k for k in want if only is None or k.endswith(only)]
    diff = [k for k in keys if got.get(k) != want[k]] + \
        [k for k in got if (only is None or k.endswith(only)) and k not in want]
    return [name, not diff and bool(keys),
            "byte-identical" if not diff else f"differs: {', '.join(sorted(diff))}"]


class Run:
    """Pass bookkeeping of one workload run."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.dir = OUT / f"{workload}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.count = 0
        self.checks = []
        self.attempted = self.failed = 0
        self.setup = []
        self.env = None

    def pass_(self, **flags) -> dict:
        workdir = self.dir / f"pass{self.count}"
        self.count += 1
        res = _worker(self.workload, self.seed, workdir, **flags)
        self.setup.append(res["setup_s"])
        if "wall_s" in res:
            self.attempted += res["attempted"]
            self.failed += res["failed"]
            shutil.rmtree(workdir / "cmds", ignore_errors=True)
        if "checks" in res:
            self.add_checks(res["checks"])
            self.env = res["environment"]
        return res

    def add_checks(self, checks):
        self.checks += checks
        self.attempted += len(checks)
        self.failed += sum(not ok for _, ok, _ in checks)

    def add_traced_checks(self, name: str, traced: dict, untraced: dict):
        """A traced pass wrote the untraced artifacts, found every wrapper
        target and attributed its wall time to the layers."""
        missing = traced["trace_missing"]
        frac = traced["layers"]["trace.attributed_frac"]
        self.add_checks([
            _identical(f"{name} artifacts equal untraced", traced["artifacts"],
                       untraced["artifacts"]),
            [f"{name} wrappers installed", not missing,
             "all targets found" if not missing else f"missing: {missing}"],
            [f"{name} layers attribute wall time", abs(frac - 1.0) <= ATTRIBUTED_TOL,
             f"attributed_frac {frac:.5f}, expected 1 ± {ATTRIBUTED_TOL}"],
        ])

    def top_up_setup(self, start: float):
        while (len(self.setup) < MIN_SETUP_SAMPLES
               and time.perf_counter() - start < RUN_LIMIT_S):
            self.pass_(import_only=True)


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced passes for about ``seconds``; returns (run, end-to-end metrics).

    Everything after the warm-up import counts against ``seconds``: the
    passes and the checks of pass 0.  After MIN_PASSES, a pass starts only
    while the run is predicted to end inside ``seconds``.  Every pass gives a
    setup sample; import-only interpreters after the passes top the samples
    up to MIN_SETUP_SAMPLES.
    """
    run = Run(workload, seed)
    run.pass_(import_only=True)  # compiles bytecode; not a sample
    run.setup.clear()
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run.pass_(check=not passes))
        if len(passes) > 1:
            run.add_checks([_identical(f"pass {len(passes) - 1} artifacts equal pass 0",
                                       passes[-1]["artifacts"], passes[0]["artifacts"])])
        next_end = (time.perf_counter() - start) * (len(passes) + 1) / len(passes)
        if next_end > RUN_LIMIT_S or (len(passes) >= MIN_PASSES and next_end > seconds):
            break
    run.top_up_setup(start)
    run.passes = passes
    return run, end_to_end(run.setup, passes, run.attempted, run.failed)


def end_to_end(setup: list, passes: list, attempted: int, failed: int) -> dict:
    """End-to-end metrics from the setup samples and untraced passes."""
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


# Per-layer metrics a sweep takes from its ``--workers 2`` traced pass; every
# other one comes from ``--workers 1`` traced passes, where no span waits for
# the other thread's interpreter lock.
PARALLEL_KEYS = ("sweep.cell_samples", "sweep.cell_ms_p50", "sweep.cell_ms_p90",
                 "sweep.parallel_efficiency")


def measure_traced(workload: str, seed: int, seconds: float) -> tuple:
    """Alternating untraced and traced passes; returns (run, per-layer metrics).

    A sweep's passes alternate untraced ``--workers 2`` (the end-to-end
    configuration), untraced ``--workers 1`` and traced ``--workers 1``; one
    traced ``--workers 2`` pass gives the cell percentiles and the parallel
    efficiency.  Other workloads alternate one untraced and one traced pass.
    """
    run = Run(workload, seed)
    run.pass_(import_only=True)
    run.setup.clear()
    spans = run.dir / "spans.json"
    sweep = workload.startswith("sweep_")
    start = time.perf_counter()
    plain, baseline, traced, parallel = [], [], [], None
    while True:
        plain.append(run.pass_(check=not plain))
        if sweep:
            baseline.append(run.pass_(workers=1))
            traced.append(run.pass_(trace=True, workers=1, spans=spans))
            if parallel is None:
                parallel = run.pass_(trace=True)
                run.add_traced_checks("traced --workers 2", parallel, plain[0])
            run.add_checks([_identical(f"--workers 1 pass {len(baseline) - 1} trait.csv "
                                       "equals --workers 2", baseline[-1]["artifacts"],
                                       plain[0]["artifacts"], only="trait.csv")])
        else:
            baseline.append(plain[-1])
            traced.append(run.pass_(trace=True, spans=spans))
        run.add_traced_checks(f"traced pass {len(traced) - 1}", traced[-1], baseline[0])
        if (time.perf_counter() - start) * (len(traced) + 1) / len(traced) > seconds:
            break
    run.passes = plain + (baseline + [parallel] if sweep else []) + traced
    return run, per_layer(plain, baseline, traced, parallel)


def per_layer(plain: list, baseline: list, traced: list, parallel) -> dict:
    """Per-layer metrics: medians over the traced passes' span metrics, plus
    figures from untraced passes.

    ``baseline`` holds the untraced passes with the traced passes' settings
    (``--workers 1`` for a sweep), ``parallel`` a sweep's traced
    ``--workers 2`` pass (None for other workloads).
    """
    layers = {key: statistics.median(p["layers"][key] for p in traced)
              for key in traced[0]["layers"]}
    if parallel is not None:
        layers.update({key: parallel["layers"][key] for key in PARALLEL_KEYS})
    baseline_wall = statistics.median(p["wall_s"] for p in baseline)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    layers.update({
        "sweep.converged_frac": (plain[0]["items"] / plain[0]["cells"]
                                 if plain[0]["cells"] else 0.0),
        "sweep.serial_cells_per_s": (statistics.median(p["items"] / p["wall_s"]
                                                       for p in baseline)
                                     if parallel is not None else 0.0),
        "cli.import_s": statistics.median(p["setup_s"] for p in traced),
        "cli.artifact_bytes": plain[0]["artifact_bytes"],
        "trace.overhead_frac": traced_wall / baseline_wall - 1.0,
    })
    return layers


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    if trace:
        run, values = measure_traced(workload, seed, seconds)
        wanted = spec["per_layer"]
    else:
        run, values = measure(workload, seed, seconds)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    correct = all(ok for _, ok, _ in run.checks)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "passes": len(run.passes), "git_commit": _git_commit(),
              "nproc": len(os.sched_getaffinity(0)), "pinned_env": PINNED, "environment": run.env, "checks": run.checks,
              "argv": run.passes[0]["argv"], "result": result}
    (run.dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# workload {workload} (seed {seed}, {len(run.passes)} passes, "
          f"trace {int(trace)}): {ITEM_OF[workload] if not trace else 'per-layer'}")
    env = run.env or {}
    print(f"# env: python {env.get('python')} numpy {env.get('numpy')} "
          f"scipy {env.get('scipy')} nproc {record['nproc']} "
          f"commit {record['git_commit']} blas threads "
          f"{[lib.get('threads') for lib in env.get('blas', {}).get('libraries', [])]}")
    for name, ok, detail in run.checks:
        if not ok:
            print(f"# CHECK FAILED {name}: {detail}")
    print(f"# checks: {sum(ok for _, ok, _ in run.checks)}/{len(run.checks)} passed")
    for m in wanted:
        print(f"{m['name']:<32} {values[m['name']]:>16.6g} {m['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "ltpkit" / "cli.py").is_file():
            raise BenchError(f"no ltpkit sources under {SRC}")
        spec = _spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, seconds, bool(args.trace), spec)
                   for w in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
