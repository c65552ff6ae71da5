"""Command-line interface: artifacts, exit codes, config resolution."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import ltpkit.solver
import ltpkit.sweep
from ltpkit import (DivergedTrajectory, MaxIterationsExceeded, SingularIterationMatrix,
                    SolverConfig, cli)
from ltpkit.cli import _write_csv, main


def assert_environment(report, environ):
    env = report["environment"]
    assert env["numpy"] == np.__version__
    assert env["scipy"] == scipy.__version__
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env[name] == environ.get(name)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# a model file: a builder with no default sweep axes
MODEL_FILE = ("from ltpkit import build_case1\n\n\n"
              "def build(overrides):\n"
              "    return build_case1(overrides)\n")

# a model file whose dynamics want numpy semantics: the oracle's list state
# becomes an array first, and ``[..., :]`` indexing would fail on a list
NUMPY_MODEL_FILE = ("import dataclasses\n\n"
                    "import numpy as np\n\n"
                    "from ltpkit import build_case1\n\n\n"
                    "def _numpy(dynamics):\n"
                    "    def wrapped(t, x, u):\n"
                    "        x = np.asarray(x)\n"
                    "        return dynamics(t, x[..., :], np.asarray(u)[..., :])\n"
                    "    return wrapped\n\n\n"
                    "def build(overrides):\n"
                    "    return {name: dataclasses.replace(m, dynamics=_numpy(m.dynamics))\n"
                    "            for name, m in build_case1(overrides).items()}\n")


class TestSolve:
    def test_defaults_write_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert main(["solve", "--case", "case1", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["converged"] is True
        assert report["case"] == "case1"
        assert_environment(report, os.environ)
        assert report["environment"]["OMP_NUM_THREADS"] == "3"
        assert report["environment"]["MKL_NUM_THREADS"] is None
        header, rows = read_csv(tmp_path / "pss_spectrum.csv")
        assert header == ["state", "k", "re", "im"]
        assert len(rows) == 6 * 9
        header, rows = read_csv(tmp_path / "pss_waveforms.csv")
        assert header[0] == "t"
        assert len(header) == 1 + 2 * 6
        assert len(rows) == 400

    def test_unknown_set_key_exits_1(self, tmp_path, capsys):
        rc = main(["solve", "--case", "case1", "--set", "bogus=1",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    def test_malformed_set_flag(self, tmp_path, capsys):
        assert main(["solve", "--set", "oops", "--out", str(tmp_path)]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_asymmetry_override_reaches_model(self, tmp_path):
        def mirror_coeff(d):
            _, rows = read_csv(d / "pss_spectrum.csv")
            for state, k, re_s, im_s in rows:
                if state == "i_c" and k == "-1":
                    return abs(complex(float(re_s), float(im_s)))
            raise AssertionError("i_c k=-1 row missing")

        bal = tmp_path / "bal"
        asym = tmp_path / "asym"
        assert main(["solve", "--case", "case1", "--out", str(bal)]) == 0
        assert main(["solve", "--case", "case1", "--set", "k_sym_c=0.1",
                     "--out", str(asym)]) == 0
        assert mirror_coeff(bal) < 1e-8
        assert mirror_coeff(asym) > 1e-3

    def test_nonconvergence_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": {"max_iterations": 1,
                                              "tolerance": 1e-13}}))
        rc = main(["solve", "--case", "case1", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["converged"] is False
        assert isinstance(report["elapsed_s"], float)
        assert "no convergence" in capsys.readouterr().err
        # the last iterate is written in full
        header, rows = read_csv(tmp_path / "pss_spectrum.csv")
        assert header == ["state", "k", "re", "im"]
        assert len(rows) == 6 * 9
        header, rows = read_csv(tmp_path / "pss_waveforms.csv")
        assert len(header) == 1 + 2 * 6
        assert len(rows) == 400

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["solve", "--case", "case1", "--set", "k_sym_g=1.3",
                         "--out", str(out)]) == 0
        assert (a / "pss_spectrum.csv").read_bytes() == \
               (b / "pss_spectrum.csv").read_bytes()
        assert (a / "pss_waveforms.csv").read_bytes() == \
               (b / "pss_waveforms.csv").read_bytes()


class TestEig:
    WEAKEST = re.compile(
        r"^weakest: (?P<re>[-+0-9.e]+) (?P<im>[-+0-9.e]+) "
        r"verdict: (?P<verdict>Stable|Unstable)$")

    def run_eig(self, args, tmp_path, capsys):
        rc = main(["eig", *args, "--out", str(tmp_path)])
        out = capsys.readouterr().out.strip().splitlines()[-1]
        match = self.WEAKEST.match(out)
        assert match, f"unexpected eig output: {out!r}"
        return rc, match

    def test_stdout_format_and_verdict(self, tmp_path, capsys):
        rc, match = self.run_eig(["--case", "case1"], tmp_path, capsys)
        assert rc == 0
        re_w = float(match["re"])
        assert (match["verdict"] == "Unstable") == (re_w > 0.0)
        assert match["verdict"] == "Stable"
        header, rows = read_csv(tmp_path / "eigenvalues.csv")
        assert header == ["re", "im"]
        assert len(rows) == 54

    def test_unstable_point_verdict(self, tmp_path, capsys):
        rc, match = self.run_eig(
            ["--case", "case2", "--set", "alpha_c=150", "--set", "k_sym_g=2.8"],
            tmp_path, capsys)
        assert rc == 0
        assert match["verdict"] == "Unstable"
        assert float(match["re"]) > 0.0

    def test_nonconvergence_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": {"max_iterations": 1,
                                              "tolerance": 1e-13}}))
        rc = main(["eig", "--case", "case1", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        _, rows = read_csv(tmp_path / "eigenvalues.csv")
        assert rows == []


class TestSweep:
    def test_single_cell_agrees_with_eig(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sweep": {"axis1": {"values": [20.0]}, "axis2": {"values": [1.0]}}}))
        rc = main(["sweep", "--case", "case1", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "trait.csv")
        assert len(rows) == 1
        p1, p2, re_w, im_w, converged, iters, failure = rows[0]
        assert (float(p1), float(p2)) == (20.0, 1.0)
        assert converged == "true"
        assert failure == ""

        rc2, match = TestEig().run_eig(["--case", "case1"], tmp_path, capsys)
        assert rc2 == 0
        assert float(re_w) == pytest.approx(float(match["re"]), abs=1e-9)
        header, region_rows = read_csv(tmp_path / "region.csv")
        assert header == ["param1", "param2", "unstable"]
        assert region_rows == [["20", "1", "false"]]

    def test_boundary_artifact_written(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "case": "case2",
            "sweep": {"axis1": {"values": [150.0, 250.0]},
                      "axis2": {"values": [1.0, 2.8]}}}))
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                   "--workers", "2"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "boundary.csv")
        assert header == ["param1_a", "param2_a", "param1_b", "param2_b"]
        assert len(rows) >= 1   # (150, 2.8) is unstable, the other corners not

    def test_no_converged_cell_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "solver": {"max_iterations": 1, "tolerance": 1e-13},
            "sweep": {"axis1": {"values": [20.0]}, "axis2": {"values": [0.0, 0.1]}}}))
        rc = main(["sweep", "--case", "case1", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "no sweep cell converged" in capsys.readouterr().err
        _, rows = read_csv(tmp_path / "trait.csv")
        assert [row[2:] for row in rows] == \
            [["nan", "nan", "false", "1", "MaxIterationsExceeded"]] * 2
        assert read_csv(tmp_path / "region.csv") == (["param1", "param2", "unstable"], [])
        assert read_csv(tmp_path / "boundary.csv") == \
            (["param1_a", "param2_a", "param1_b", "param2_b"], [])

    def test_model_file_sweep_independent_of_workers(self, tmp_path):
        # a builder loaded from a model file cannot be pickled; forked pool
        # processes inherit it
        model = tmp_path / "model.py"
        model.write_text(MODEL_FILE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {
            "axis1": {"name": "alpha_pll", "values": [10.0, 20.0]},
            "axis2": {"name": "u_gbeta_mag", "values": [0.0, 0.2, 0.4]}}}))
        trait = {}
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            rc = main(["sweep", "--case", str(model), "--config", str(cfg),
                       "--workers", workers, "--out", str(out)])
            assert rc == 0
            trait[workers] = (out / "trait.csv").read_bytes()
        assert trait["1"] == trait["2"]
        _, rows = read_csv(tmp_path / "workers1" / "trait.csv")
        assert [row[4] for row in rows] == ["true"] * 6

    def test_cli_import_loads_no_multiprocessing(self):
        import ltpkit

        env = dict(os.environ,
                   PYTHONPATH=str(Path(ltpkit.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, ltpkit.cli; print('multiprocessing' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout.strip() == "False"


class TestImpedance:
    def test_scan_csv_schema_and_mirror(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "analysis": {"frequencies_hz": [10.0, 35.0]}}))
        rc = main(["impedance", "--case", "case1", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "scan.csv")
        assert header == ["f_hz", "diag_re", "diag_im", "mirror_plus_re",
                          "mirror_plus_im", "mirror_minus_re", "mirror_minus_im",
                          "singular"]
        assert len(rows) == 2
        for row in rows:
            mirror = complex(float(row[5]), float(row[6]))
            assert abs(mirror) > 0.1
            assert row[7] == "false"

    def test_principal_entry_via_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "analysis": {"frequencies_hz": [10.0],
                         "output_index": 0, "input_index": 0}}))
        rc = main(["impedance", "--case", "case1", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "scan.csv")
        diag = complex(float(rows[0][1]), float(rows[0][2]))
        mirror = complex(float(rows[0][5]), float(rows[0][6]))
        assert abs(diag) > 1.0
        assert abs(mirror) < 1e-9


class TestVerify:
    def test_case1_defaults_pass(self, tmp_path):
        rc = main(["verify", "--case", "case1", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert rc == 0
        assert report["pass"] is True
        assert report["converged"] is True
        assert set(report["rms_error"]) == {"i_c", "i_c_conj", "x_cdq",
                                            "x_cdq_conj", "delta_pll", "x_pll"}
        assert all(v <= 0.01 for v in report["rms_error"].values())
        assert report["solver_verdict"] == "Stable"
        assert report["hss_real_form"] is True
        assert 0.0 <= report["hss_symmetry_defect"] <= 1e-13
        # balanced case 1: six invariant blocks, split at round-off entries
        assert sorted(report["hss_blocks"]) == [2, 6, 10, 12, 12, 12]
        assert 0.0 <= report["hss_decoupling_defect"] <= 1e-13
        assert_environment(report, os.environ)

    def test_numpy_model_file_matches_built_in(self, tmp_path):
        # an (n,) array state takes the built-in model's list arithmetic, and
        # the oracle's recursion is the same on the array rows it returns
        model = tmp_path / "model.py"
        model.write_text(NUMPY_MODEL_FILE)
        reports = {}
        for case in ("case1", str(model)):
            out = tmp_path / Path(case).stem
            assert main(["verify", "--case", case, "--out", str(out)]) == 0
            reports[case] = json.loads((out / "verify_report.json").read_text())
        numpy_report = reports[str(model)]
        assert numpy_report["pass"] is True
        assert numpy_report["oracle_diverged"] is False
        for key in ("rms_error", "max_error", "weakest"):
            assert numpy_report[key] == reports["case1"][key]

    def test_unstable_point_growth_sign_agreement(self, tmp_path):
        rc = main(["verify", "--case", "case2", "--set", "alpha_c=150",
                   "--set", "k_sym_g=2.8", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["solver_verdict"] == "Unstable"
        assert report["growth"]["sign_agrees"] is True
        assert report["growth"]["rate"] > 0.0
        assert report["pass"] is True
        assert rc == 0

    def test_fractional_horizon_compares_last_aligned_period(self, tmp_path):
        # the on-orbit run keeps only its tail; over 25.75 periods that tail
        # must still reach back to the last period starting at t mod T = 0
        cfg = tmp_path / "h.json"
        cfg.write_text(json.dumps({"oracle": {"horizon_periods": 25.75}}))
        rc = main(["verify", "--case", "case1", "--config", str(cfg),
                   "--out", str(tmp_path)])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert rc == 0
        assert report["pass"] is True

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_fundamental_follows_f_base(self, case, tmp_path):
        # solver grid, HSS and oracle all take the period from the model
        rc = main(["verify", "--case", case, "--set", "f_base=40",
                   "--out", str(tmp_path)])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["pass"] is True
        assert rc == 0


class TestOneVerdict:
    # (case, the point as values of its two default sweep axes)
    POINTS = {
        "case1_defaults": ("case1", {"alpha_pll": 20.0, "u_gbeta_mag": 1.0}),
        "case2_unstable": ("case2", {"alpha_c": 150.0, "k_sym_g": 2.8}),
    }

    @pytest.mark.parametrize("case, point", POINTS.values(), ids=POINTS.keys())
    def test_eig_verify_sweep_agree(self, case, point, tmp_path, capsys):
        # eig, verify and a 1x1 sweep read the weakest mode and the verdict
        # of one point through the same path
        flags = [arg for name, value in point.items()
                 for arg in ("--set", f"{name}={value}")]
        rc, match = TestEig().run_eig(["--case", case, *flags],
                                      tmp_path / "eig", capsys)
        assert rc == 0

        main(["verify", "--case", case, *flags, "--out", str(tmp_path / "verify")])
        report = json.loads((tmp_path / "verify" / "verify_report.json").read_text())

        (name1, value1), (name2, value2) = point.items()
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"case": case, "sweep": {
            "axis1": {"name": name1, "values": [value1]},
            "axis2": {"name": name2, "values": [value2]}}}))
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "sweep")]) == 0
        _, trait = read_csv(tmp_path / "sweep" / "trait.csv")
        _, region = read_csv(tmp_path / "sweep" / "region.csv")

        weakest = [float(match["re"]), float(match["im"])]
        assert report["weakest"] == weakest
        assert [float(v) for v in trait[0][2:4]] == weakest
        assert report["solver_verdict"] == match["verdict"]
        assert region[0][2] == ("true" if match["verdict"] == "Unstable" else "false")


class TestSolverFailure:
    PARTIAL = {"solve": "run_report.json", "eig": "eigenvalues.csv",
               "impedance": "scan.csv", "verify": "verify_report.json"}

    @pytest.mark.parametrize("command", sorted(PARTIAL))
    def test_singular_iteration_matrix_exits_2(self, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": {"cond_limit": 1}}))
        out = tmp_path / "out"
        rc = main([command, "--case", "case1", "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 2
        assert "singular" in capsys.readouterr().err
        assert (out / self.PARTIAL[command]).exists()
        if command in ("solve", "verify"):
            report = json.loads((out / self.PARTIAL[command]).read_text())
            # the guard trips on the first Newton step: none completed
            assert report["iterations"] == 0
        if command == "solve":
            assert isinstance(report["elapsed_s"], float)

    def test_exactly_singular_matrix_prints_one_line(self, tmp_path):
        # an exact zero pivot: nothing but the one "error: ..." line reaches
        # stderr
        import ltpkit

        env = dict(os.environ,
                   PYTHONPATH=str(Path(ltpkit.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "ltpkit", "eig", "--set", "alpha_pll=1e-300",
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: iteration matrix numerically singular at iteration 1 (cond ~ inf)"]

    @staticmethod
    def solver_error(kind):
        """A solver error populated as ``solve_pss`` raises it: two Newton
        steps completed in 0.25 s."""
        if kind is MaxIterationsExceeded:
            exc = MaxIterationsExceeded([0.5, 0.1], 1e-3,
                                        last_spectrum=np.ones((9, 6), complex))
        elif kind is SingularIterationMatrix:
            exc = SingularIterationMatrix(1e13)
            exc.iteration = 3
        else:
            exc = DivergedTrajectory("non-finite dynamics along reconstructed trajectory")
        exc.residual_history = [0.5, 0.1]
        exc.elapsed_s = 0.25
        return exc

    @pytest.mark.parametrize("kind", [MaxIterationsExceeded, SingularIterationMatrix,
                                      DivergedTrajectory], ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("command", sorted(PARTIAL))
    def test_solver_error_exits_2(self, command, kind, tmp_path, capsys, monkeypatch):
        # every solver error of every solving command: one stderr line, the
        # command's partial artifact, exit 2
        exc = self.solver_error(kind)

        def failing_solve(model, config):
            raise exc

        monkeypatch.setattr(cli, "solve_pss", failing_solve)
        out = tmp_path / "out"
        assert main([command, "--case", "case1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {exc}"]
        assert captured.out == ""
        assert (out / self.PARTIAL[command]).exists()
        if command in ("solve", "verify"):
            report = json.loads((out / self.PARTIAL[command]).read_text())
            assert report["converged"] is False
            assert report["iterations"] == 2
        if command == "solve":
            assert report["residual_history"] == [0.5, 0.1]
            assert report["elapsed_s"] == 0.25
            # only a max-iterations failure carries a last iterate to write
            written = (out / "pss_spectrum.csv").exists()
            assert written == (kind is MaxIterationsExceeded)


MALFORMED_CONFIGS = {
    "grid_start_str": ("impedance", {"analysis": {"frequencies_hz": {"start": "a", "stop": 10}}}),
    "grid_count_str": ("impedance", {"analysis": {"frequencies_hz": {"start": 5, "stop": 10,
                                                                     "count": "x"}}}),
    "n_harmonics_str": ("solve", {"solver": {"n_harmonics": "4"}}),
    "tolerance_null": ("solve", {"solver": {"tolerance": None}}),
    "max_iterations_fraction": ("solve", {"solver": {"max_iterations": 2.5}}),
    "output_index_str": ("impedance", {"analysis": {"output_index": "1"}}),
    "axis_value_str": ("sweep", {"sweep": {"axis1": {"values": [1, "b"]}}}),
    # the kick is fixed, 1e-3 on state 0 and its conjugate partner: its
    # state and magnitude are no config keys, at a stable or unstable point
    "state_index_range": ("verify", {"case": "case2",
                                     "set": {"alpha_c": 150, "k_sym_g": 2.8},
                                     "oracle": {"perturbation": {"state_index": 40}}}),
    "state_index_range_stable": ("verify", {"oracle": {"perturbation": {"state_index": 40}}}),
    "state_index_negative": ("verify", {"oracle": {"perturbation": {"state_index": -1}}}),
    "perturbation_magnitude": ("verify", {"oracle": {"perturbation": {"magnitude": 0.01}}}),
    "case_not_str": ("solve", {"case": 5}),
    "set_not_object": ("solve", {"set": [1]}),
    "solver_not_object": ("solve", {"solver": [1]}),
    "oracle_not_object": ("verify", {"oracle": [1]}),
    "axis_not_object": ("sweep", {"sweep": {"axis1": [1, 2]}}),
    "axis_name_list": ("sweep", {"sweep": {"axis1": {"name": ["alpha_pll"],
                                                     "values": [30, 35]}}}),
    # keys that no longer exist: the period comes from the model, the growth
    # fit runs exactly when the point is unstable, axes carry no unit
    "solver_period": ("solve", {"solver": {"period": 0.025}}),
    "oracle_growth_fit": ("verify", {"oracle": {"growth_fit": True}}),
    "axis_unit": ("sweep", {"sweep": {"axis1": {"unit": "Hz"}}}),
    # NaN and ±Infinity are no float settings; grids and case parameters
    # must be finite
    "oracle_step_nan": ("verify", {"oracle": {"step": math.nan}}),
    "horizon_periods_nan": ("verify", {"oracle": {"horizon_periods": math.nan}}),
    "solver_step_nan": ("solve", {"solver": {"step": math.nan}}),
    "tolerance_nan": ("solve", {"solver": {"tolerance": math.nan}}),
    "tolerance_inf": ("solve", {"solver": {"tolerance": math.inf}}),
    "horizon_periods_inf": ("verify", {"oracle": {"horizon_periods": math.inf}}),
    "frequency_nan": ("impedance", {"analysis": {"frequencies_hz": [math.nan, 10]}}),
    "frequency_stop_inf": ("impedance", {"analysis": {"frequencies_hz": {
        "start": 1, "stop": math.inf, "count": 3}}}),
    "axis_value_inf": ("sweep", {"sweep": {"axis1": {"values": [math.inf]}}}),
    "set_nan": ("solve", {"set": {"alpha_pll": math.nan}}),
    "set_inf": ("solve", {"set": {"alpha_pll": -math.inf}}),
    # a file's case parameters are JSON numbers; strings are for --set
    "set_string": ("solve", {"set": {"alpha_pll": "35"}}),
    "set_bool": ("solve", {"set": {"alpha_pll": True}}),
    # every case-2 command builds the open loop, which needs r_cf > 0
    "r_cf_zero": ("solve", {"case": "case2", "set": {"r_cf": 0}}),
    # JSON integers too large for a float
    "tolerance_huge_int": ("solve", {"solver": {"tolerance": 10**400}}),
    "set_huge_int": ("solve", {"set": {"alpha_pll": 10**400}}),
    # refused against the 400-sample grid before anything is allocated
    "n_harmonics_huge": ("solve", {"solver": {"n_harmonics": 10**30}}),
    # grid counts above the cap, refused before the grid is built
    "frequency_count_huge": ("impedance", {"analysis": {"frequencies_hz": {
        "start": 5, "stop": 2000, "count": 10**30}}}),
    "frequency_count_cap": ("impedance", {"analysis": {"frequencies_hz": {
        "start": 5, "stop": 2000, "count": cli.MAX_GRID_COUNT + 1}}}),
}


class TestImportPath:
    def test_commands_leave_scipy_linalg_unloaded(self, tmp_path):
        # scipy's LAPACK is reached without running scipy.linalg's package
        # import, which costs more than the rest of `import ltpkit.cli`
        import ltpkit

        env = dict(os.environ,
                   PYTHONPATH=str(Path(ltpkit.__file__).resolve().parents[1]))
        commands = [["eig", "--case", "case1", "--out", str(tmp_path / "eig")],
                    ["impedance", "--case", "case2", "--out", str(tmp_path / "scan")]]
        script = (
            "import json, sys\n"
            "import ltpkit.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert ltpkit.cli.main(argv) == 0, argv\n"
            "sys.exit('scipy.linalg' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "eig" / "eigenvalues.csv").exists()
        assert (tmp_path / "scan" / "scan.csv").exists()


class TestWriteCsv:
    def test_columns_match_per_value_formatting(self, tmp_path):
        # the per-value reference: floats round-trip through format(v, ".17g")
        floats = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                  sys.float_info.max, 0.1, -1.0 / 3.0, 1e22]
        n = len(floats)
        _write_csv(tmp_path / "t.csv", {
            "x": np.array(floats), "k": np.arange(-2, n - 2),
            "flag": np.arange(n) % 3 == 0, "name": [f"s{i}" for i in range(n)]})
        expect = ["x,k,flag,name"] + [
            f"{format(v, '.17g')},{i - 2},{'true' if i % 3 == 0 else 'false'},s{i}"
            for i, v in enumerate(floats)]
        assert (tmp_path / "t.csv").read_text().splitlines() == expect


class TestConfigHandling:
    @pytest.mark.parametrize("command, payload", MALFORMED_CONFIGS.values(),
                             ids=MALFORMED_CONFIGS.keys())
    def test_malformed_value_is_usage_error(self, command, payload, tmp_path, capsys):
        # a wrong-typed value is a usage error (exit 1), never a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_set_flag_is_usage_error(self, value, tmp_path, capsys):
        rc = main(["solve", "--set", f"alpha_pll={value}", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "not a finite number" in err
        # one finite-number check: the config file's `set` value reads the same
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"set": {"alpha_pll": float(value)}}))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("n_harmonics, need", [(50, 402), (60, 482)])
    def test_unresolvable_n_harmonics_exits_before_newton(
            self, n_harmonics, need, tmp_path, capsys, monkeypatch):
        # the HSS needs harmonics to order 2N: 400 samples resolve N <= 49
        def no_step(*args):
            raise AssertionError("the first Newton step ran")

        monkeypatch.setattr(ltpkit.solver, "newton_step", no_step)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": {"n_harmonics": n_harmonics}}))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: 400 samples cannot resolve harmonics cleanly at n_harmonics "
            f"{n_harmonics}, which needs {need} per period\n")

    @pytest.mark.parametrize("oracle, message", [
        # 5e11 steps over the 25-period horizon
        ({"step": 1e-12}, "exceed the limit"),
        # a whole 20,000-step horizon, but 666.67 steps per period
        ({"step": 3e-5, "horizon_periods": 30}, "period/step"),
        # the verdict, and so the oracle run, is known only after the solve:
        # a default stable point still needs a grid the kicked run accepts
        ({"horizon_periods": 2}, "three post-onset periods"),
        ({"perturbation": {"onset_periods": 0.5}}, "onset/step"),
    ], ids=["tiny_step", "fractional_period", "short_horizon", "early_onset"])
    def test_bad_oracle_grid_exits_before_solve(self, oracle, message, tmp_path, capsys,
                                                monkeypatch):
        def no_solve(*args):
            raise AssertionError("verify solved before checking its oracle grid")

        monkeypatch.setattr(cli, "solve_pss", no_solve)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle": oracle}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and message in lines[0]

    @pytest.mark.parametrize("command, payload, message", [
        ("sweep", {"sweep": {"axis1": {"name": "alpha_pll", "values": [10, 40]},
                             "axis2": {"name": "alpha_pll", "values": [20, 30]}}},
         "error: both sweep axes name 'alpha_pll'\n"),
        ("solve", {"solver": {"cond_limit": -5}},
         "error: cond_limit must be >= 1 (got -5.0)\n"),
    ], ids=["same_axis_names", "cond_limit_below_1"])
    def test_config_refused_before_solve(self, command, payload, message, tmp_path, capsys,
                                         monkeypatch):
        # a config no solve could honour is a usage error, not a solver failure
        def no_solve(*args):
            raise AssertionError("the refused config reached the solver")

        monkeypatch.setattr(cli, "solve_pss", no_solve)
        monkeypatch.setattr(ltpkit.sweep, "solve_pss", no_solve)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("argv", [["bogus"], ["solve", "--workers", "x"], []],
                             ids=["unknown_command", "workers_not_int", "no_command"])
    def test_parser_error_exits_1(self, argv, capsys):
        # argparse's own usage errors are usage errors too: one line, exit 1
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "impedance" in capsys.readouterr().out

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": {}}))
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_section_key(self, tmp_path, capsys):
        # no damping key: the step-halving line search shortens a step whose
        # norm grows
        for command, payload, message in (
                ("verify", {"oracle": {"kick": 1.0}},
                 "error: unknown oracle config key 'kick'\n"),
                ("solve", {"solver": {"damping": 0.5}},
                 "error: unknown solver config key 'damping'\n")):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(payload))
            rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
            assert rc == 1
            assert capsys.readouterr().err == message

    def test_marginal_band_key_rejected(self, tmp_path, capsys):
        # the verdict is the sign of the weakest mode alone; a config asking
        # for a band around zero is rejected, not silently ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "case2",
                                   "set": {"alpha_c": 150, "k_sym_g": 1.4},
                                   "analysis": {"marginal_band": 0.5}}))
        rc = main(["eig", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: unknown analysis config key 'marginal_band'\n"

    @pytest.mark.parametrize("missing", ["name", "values"])
    def test_model_file_axis_missing_key(self, missing, tmp_path, capsys):
        # a model file has no default axes to fill the gap from
        model = tmp_path / "model.py"
        model.write_text(MODEL_FILE)
        axis1 = {"name": "alpha_pll", "values": [20.0, 30.0]}
        del axis1[missing]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {
            "axis1": axis1, "axis2": {"name": "u_gbeta_mag", "values": [0.0]}}}))
        rc = main(["sweep", "--case", str(model), "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: sweep axis1: missing key {missing!r}\n"

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_dump_config_round_trip(self, tmp_path, capsys):
        rc = main(["solve", "--case", "case2", "--set", "alpha_c=170",
                   "--dump-config"])
        assert rc == 0
        dumped = capsys.readouterr().out
        config = json.loads(dumped)
        assert config["case"] == "case2"
        assert config["set"]["alpha_c"] == 170.0
        assert config["solver"]["n_harmonics"] == 4
        assert config["solver"] == dataclasses.asdict(SolverConfig())

        # feeding the dump back must resolve to the identical config
        cfg = tmp_path / "resolved.json"
        cfg.write_text(dumped)
        assert main(["solve", "--config", str(cfg), "--dump-config"]) == 0
        assert json.loads(capsys.readouterr().out) == config
