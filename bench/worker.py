"""One workload pass in a fresh interpreter.

The runner starts this script with BLAS pinned to one thread and ``src`` on
``PYTHONPATH``.  It times ``import ltpkit.cli`` first (only ``sys`` and
``time`` are loaded before it), then runs the workload's commands through
``ltpkit.cli.main`` and times each one.  Everything after the last command --
artifact parsing, correctness checks, span arithmetic -- is outside the timed
region.  The pass is written as JSON to ``--result``.

    PYTHONPATH=src python3 bench/worker.py --workload scan --seed 1 \
        --workdir W --result R.json --src src
"""

from __future__ import annotations

import sys
import time

# Timed before any other import, so that the modules ltpkit shares with this
# script (argparse, json, pathlib, ...) count towards its import time.
_T0 = time.perf_counter()
import ltpkit.cli  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _artifacts(commands) -> dict:
    """sha256 and size of every file a command wrote, keyed by relative path."""
    out = {}
    for i, cmd in enumerate(commands):
        out_dir = Path(cmd["out"])
        for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
            data = path.read_bytes()
            out[f"cmd{i}/{path.name}"] = [hashlib.sha256(data).hexdigest(), len(data)]
    return out


def _items(cmd: dict, code: int):
    """(work items done, sweep cells, operations attempted, operations failed).

    Operations are the command itself plus, for a sweep, each grid cell; a
    cell that did not converge is a failed operation.
    """
    from checks import read_csv

    if cmd["kind"] == "sweep":
        path = Path(cmd["out"]) / "trait.csv"
        rows = read_csv(path) if path.exists() else []
        done = sum(row["converged"] == "true" for row in rows)
        return done, len(rows), 1 + len(rows), int(code != 0) + len(rows) - done
    if cmd["kind"] == "scan":
        path = Path(cmd["out"]) / "scan.csv"
        rows = read_csv(path) if path.exists() else []
        return sum(row["singular"] == "false" for row in rows), 0, 1, int(code != 0)
    report_path = Path(cmd["out"]) / "verify_report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    leg = (report.get("growth") or {}).get("trajectory_diverged") if cmd["unstable"] \
        else report.get("oracle_diverged")
    done = cmd["rk4_steps"] if code == 0 and leg is False else 0
    return done, 0, 1, int(code != 0)


def _blas_info() -> dict:
    """BLAS build and run-time thread counts, without threadpoolctl.

    NumPy and SciPy wheels each bundle their own OpenBLAS; both are queried
    through their exported ``*get_num_threads*`` / ``*get_config*`` symbols.
    """
    import ctypes
    import glob

    import numpy as np
    import scipy

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = {k: build.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        build = None
    libraries = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parents[1] / f"{pkg.__name__}.libs"
        for lib_path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(lib_path)
            entry = {"package": pkg.__name__, "library": Path(lib_path).name}
            for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                                   ("openblas_", "64_"), ("openblas_", "")):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry.update(threads=threads(),
                                 config=config().decode(errors="replace"))
                    break
            libraries.append(entry)
    return {"numpy_build": build, "libraries": libraries}


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True, help="directory holding the ltpkit package")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans here")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    if src not in Path(ltpkit.cli.__file__).resolve().parents:
        print(f"ltpkit was imported from {ltpkit.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    result = {"setup_s": SETUP_S}
    if args.import_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    import workloads

    workers = workloads.SWEEP_WORKERS if args.workers is None else args.workers
    commands = workloads.build(args.workload, args.seed, Path(args.workdir), workers)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    codes, walls = [], []
    sink = io.StringIO()
    for cmd in commands:
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = ltpkit.cli.main(cmd["argv"])
                else:
                    code = tracer.call("cli.main", ltpkit.cli.main, cmd["argv"])
            except Exception:  # the console script would exit 1 with a traceback
                traceback.print_exc()
                code = 1
            walls.append(time.perf_counter() - t0)
        codes.append(code)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    done, cells, attempted, failed = (sum(col) for col in zip(
        *(_items(cmd, code) for cmd, code in zip(commands, codes))))
    artifacts = _artifacts(commands)
    result.update(wall_s=sum(walls), command_walls_s=walls, exit_codes=codes,
                  items=done, cells=cells, attempted=attempted, failed=failed,
                  peak_rss_mb=rss_mb, artifacts=artifacts,
                  artifact_bytes=sum(size for _, size in artifacts.values()),
                  argv=[cmd["argv"] for cmd in commands])
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, sum(walls), workers)
        result["trace_missing"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans)
    if args.check:
        import checks

        result["checks"] = [list(c) for c in checks.run_checks(commands, codes, args.seed)]
        result["environment"] = environment()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
