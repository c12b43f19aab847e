"""Experiment configuration, problem assembly, and the command line."""

import csv
import json
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aaprox.bregman import BregmanProblem
from aaprox.cli import (
    ExperimentConfig,
    ProblemSetup,
    assemble_problem,
    main,
    run_experiment,
)
from aaprox.counterexample import CYCLE_POINT, STEP
from aaprox.datasets import DatasetMatrix, write_libsvm


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cols = {key: [r[key] for r in rows] for key in rows[0]}
    return rows, cols


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.problem == "quadratic"
        assert cfg.methods == ["guarded_aa_pga"]
        assert cfg.m == 5 and cfg.tol == 1e-10

    def test_unknown_problem(self):
        with pytest.raises(ValueError, match="unknown problem"):
            ExperimentConfig(problem="ridge")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(methods=["sgd"])

    def test_kl_l1_requires_a_bregman_method(self):
        with pytest.raises(ValueError, match="Bregman"):
            ExperimentConfig(problem="kl_l1", methods=["pga"])
        ExperimentConfig(problem="kl_l1", methods=["bpg", "guarded_aa_bpg"])

    def test_counterexample_rejects_bregman_methods(self):
        with pytest.raises(ValueError, match="Euclidean"):
            ExperimentConfig(problem="counterexample", methods=["bpg"])

    def test_from_sources_reads_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"problem": "nnls", "methods": ["pga"],
                                 "synth": [30, 8], "max_iters": 50}))
        cfg = ExperimentConfig.from_sources(json_path=p)
        assert cfg.problem == "nnls"
        assert cfg.synth == (30, 8)
        assert cfg.max_iters == 50

    def test_explicit_flags_beat_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"problem": "nnls", "max_iters": 50,
                                 "synth": [30, 8]}))
        cfg = ExperimentConfig.from_sources(json_path=p, max_iters=77,
                                            seed=None)
        assert cfg.max_iters == 77
        assert cfg.seed == 0  # None overrides are ignored

    def test_unknown_json_keys_are_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"problem": "nnls", "stepsize": 0.1}))
        with pytest.raises(ValueError, match="stepsize"):
            ExperimentConfig.from_sources(json_path=p)

    @pytest.mark.parametrize("name, value", [
        ("gamma", 0.0), ("gamma", -0.5), ("m", -1), ("max_iters", 0),
        ("max_iters", -3), ("tol", -1e-12), ("synth", (0, 5)),
        ("synth", (5, 0))], ids=str)
    def test_out_of_range_settings_are_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: value})

    def test_boundary_settings_are_accepted(self):
        cfg = ExperimentConfig(m=0, max_iters=1, tol=0.0, synth=(1, 1),
                               gamma=1e-300)
        assert (cfg.m, cfg.max_iters, cfg.synth) == (0, 1, (1, 1))


class TestAssembleProblem:
    def test_quadratic_defaults(self):
        setup = assemble_problem(ExperimentConfig(problem="quadratic", seed=3))
        assert setup.kind == "euclidean"
        assert setup.problem.n == 20
        assert setup.gamma == pytest.approx(1e-2, rel=1e-12)  # top eig 100
        assert_allclose(setup.x0, np.zeros(20))
        # the energy kernel's mirror map is the identity
        assert setup.y0 is setup.x0

    def test_gamma_override(self):
        cfg = ExperimentConfig(problem="quadratic", gamma=0.5)
        assert assemble_problem(cfg).gamma == 0.5

    def test_counterexample_setup(self):
        setup = assemble_problem(ExperimentConfig(problem="counterexample"))
        assert setup.kind == "euclidean"
        assert setup.gamma == STEP
        assert_allclose(setup.x0, [2.1])
        assert setup.problem.f.smoothness == 25.0
        assert setup.problem.objective(np.array([1.0])) == 12.5

    def test_kl_l1_is_a_bregman_setup(self):
        cfg = ExperimentConfig(problem="kl_l1", methods=["bpg"],
                               synth=(30, 10), lam=0.01)
        setup = assemble_problem(cfg)
        assert setup.kind == "bregman"
        assert isinstance(setup.problem, BregmanProblem)
        assert setup.problem.kernel.name == "shannon"
        assert setup.problem.h.params["lam"] == 0.01
        assert_allclose(setup.x0, np.ones(10))
        # mirror image of the all-ones start: grad phi(1) = 1 + log 1 = 1
        assert_allclose(setup.y0, np.ones(10))

    def test_logreg_box_setup(self):
        cfg = ExperimentConfig(problem="logreg_box", methods=["pga"],
                               synth=(40, 12), mu=0.01)
        setup = assemble_problem(cfg)
        assert setup.kind == "euclidean"
        assert setup.problem.h.kind == "box"
        assert setup.gamma == pytest.approx(1.0 / setup.problem.f.smoothness)

    def test_data_problems_need_a_source(self):
        cfg = ExperimentConfig(problem="nnls", methods=["pga"])
        with pytest.raises(ValueError, match="--data or --synth"):
            assemble_problem(cfg)

    @pytest.mark.parametrize("name", ["d.csv", "d.svm"])
    def test_csv_data_source(self, tmp_path, name):
        # a .csv suffix selects the dense reader, anything else LIBSVM
        p = tmp_path / name
        rng = np.random.default_rng(0)
        A = rng.random((10, 3))
        b = A @ np.array([1.0, 2.0, 0.5])
        if name.endswith(".csv"):
            np.savetxt(p, np.column_stack([A, b]), delimiter=",")
        else:
            write_libsvm(DatasetMatrix(A, b), p)
        cfg = ExperimentConfig(problem="nnls", methods=["pga"], data=str(p))
        setup = assemble_problem(cfg)
        assert setup.problem.n == 3
        x = np.array([0.5, 1.0, 1.5])
        assert setup.problem.f.value(x) == pytest.approx(
            np.sum((A @ x - b) ** 2) / 20, rel=1e-12)


class TestRunExperiment:
    def test_single_method_outputs(self, tmp_path):
        out = tmp_path / "run1"
        cfg = ExperimentConfig(problem="quadratic", methods=["guarded_aa_pga"],
                               synth=(1, 12), max_iters=200, seed=1,
                               out=str(out))
        reports = run_experiment(cfg)
        assert set(reports) == {"guarded_aa_pga"}
        rows, cols = read_trace(out / "trace.csv")
        assert list(rows[0]) == ["iter", "objective", "subopt", "residual",
                                 "step_kind", "elapsed_s"]
        assert cols["iter"] == [str(i + 1) for i in range(len(rows))]
        report = reports["guarded_aa_pga"]
        # 17 significant digits: values survive the text round trip exactly
        assert [float(v) for v in cols["objective"]] == report.trace.objective
        assert [float(v) for v in cols["residual"]] == report.trace.residual
        assert cols["step_kind"] == report.trace.step_kind

        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["config"]["problem"] == "quadratic"
        res = summary["results"]["guarded_aa_pga"]
        assert set(res) == {"final_objective", "best_objective", "iterations",
                            "wall_time_s", "termination", "gamma",
                            "trace_file"}
        assert res["trace_file"] == "trace.csv"
        assert res["iterations"] == len(rows)
        assert res["final_objective"] == report.trace.objective[-1]

    def test_comparison_run_files_and_shared_baseline(self, tmp_path):
        out = tmp_path / "cmp"
        cfg = ExperimentConfig(problem="quadratic",
                               methods=["pga", "guarded_aa_pga"],
                               synth=(1, 10), max_iters=300, seed=2,
                               out=str(out))
        reports = run_experiment(cfg)
        assert (out / "trace_pga.csv").exists()
        assert (out / "trace_guarded_aa_pga.csv").exists()
        assert not (out / "trace.csv").exists()

        best = min(min(r.trace.objective) for r in reports.values())
        lows = []
        for name in ("pga", "guarded_aa_pga"):
            _, cols = read_trace(out / ("trace_%s.csv" % name))
            subopt = np.array([float(v) for v in cols["subopt"]])
            obj = np.array([float(v) for v in cols["objective"]])
            assert_allclose(subopt, obj - best, atol=0.0)
            assert np.all(subopt >= 0.0)
            lows.append(subopt.min())
        assert min(lows) == 0.0

        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert set(summary["results"]) == {"pga", "guarded_aa_pga"}
        assert summary["results"]["pga"]["best_objective"] == best

    def test_guarded_subopt_column_is_nonincreasing(self, tmp_path):
        # holds for indicator constraints, where the recorded objective is
        # the smooth part that the acceptance test controls
        out = tmp_path / "g"
        cfg = ExperimentConfig(problem="nnls", methods=["guarded_aa_pga"],
                               synth=(40, 15), max_iters=400, seed=3,
                               out=str(out))
        run_experiment(cfg)
        _, cols = read_trace(out / "trace.csv")
        subopt = np.array([float(v) for v in cols["subopt"]])
        assert np.all(subopt >= 0.0)
        assert np.all(np.diff(subopt) <= 0.0)

    def test_deterministic_except_wall_clock(self, tmp_path):
        cfgs = [ExperimentConfig(problem="nnls",
                                 methods=["guarded_aa_pga", "pga"],
                                 synth=(30, 10), max_iters=150, seed=4,
                                 out=str(tmp_path / ("d%d" % i)))
                for i in range(2)]
        for cfg in cfgs:
            run_experiment(cfg)
        for name in ("trace_pga.csv", "trace_guarded_aa_pga.csv"):
            _, a = read_trace(tmp_path / "d0" / name)
            _, b = read_trace(tmp_path / "d1" / name)
            for key in ("iter", "objective", "subopt", "residual",
                        "step_kind"):
                assert a[key] == b[key]
        summaries = []
        for i in range(2):
            with open(tmp_path / ("d%d" % i) / "summary.json") as fh:
                s = json.load(fh)
            s["config"]["out"] = ""
            for res in s["results"].values():
                res.pop("wall_time_s")
            summaries.append(s)
        assert summaries[0] == summaries[1]

    def test_kl_l1_comparison_smoke(self, tmp_path):
        out = tmp_path / "kl"
        cfg = ExperimentConfig(problem="kl_l1",
                               methods=["bpg", "guarded_aa_bpg"],
                               synth=(30, 10), max_iters=300, seed=5,
                               out=str(out))
        reports = run_experiment(cfg)
        for rep in reports.values():
            assert rep.iterations == 300
            assert np.isfinite(rep.trace.objective[-1])
        _, cols = read_trace(out / "trace_guarded_aa_bpg.csv")
        assert np.all(np.array([float(v) for v in cols["subopt"]]) >= 0.0)

    def test_cycling_reproduces_through_the_generic_runner(self, tmp_path):
        out = tmp_path / "cyc"
        cfg = ExperimentConfig(problem="counterexample", methods=["aa_pga"],
                               m=1, max_iters=210, tol=0.0, out=str(out))
        reports = run_experiment(cfg)
        obj = np.array(reports["aa_pga"].trace.objective)
        assert obj[-1] > 9000.0  # still visiting the outer cycle points
        assert np.any(np.diff(obj) > 0.0)

    def test_guard_breaks_the_cycle(self, tmp_path):
        out = tmp_path / "fix"
        cfg = ExperimentConfig(problem="counterexample",
                               methods=["guarded_aa_pga"], m=1,
                               max_iters=210, out=str(out))
        reports = run_experiment(cfg)
        assert reports["guarded_aa_pga"].trace.objective[-1] <= 1e-12


class TestMain:
    def test_run_subcommand(self, tmp_path, capsys):
        rc = main(["run", "--problem", "quadratic", "--method", "pga",
                   "--synth", "1,8", "--max-iters", "60",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "pga:" in capsys.readouterr().out
        assert (tmp_path / "o" / "trace.csv").exists()

    def test_run_with_method_list_and_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": "quadratic",
                                        "synth": [1, 8], "max_iters": 40}))
        rc = main(["run", "--config", str(cfg_path),
                   "--method", "pga,nesterov", "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pga:" in out and "nesterov:" in out
        assert (tmp_path / "o" / "trace_nesterov.csv").exists()

    def test_bpg_on_a_euclidean_problem_matches_pga(self, tmp_path, capsys):
        # Bregman methods on nnls run under the energy kernel, whose plain
        # iteration is the proximal gradient iteration
        rc = main(["run", "--problem", "nnls", "--synth", "60,20",
                   "--method", "pga,bpg", "--tol", "0", "--max-iters", "50",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "bpg:" in capsys.readouterr().out
        _, pga = read_trace(tmp_path / "o" / "trace_pga.csv")
        _, bpg = read_trace(tmp_path / "o" / "trace_bpg.csv")
        assert len(pga["objective"]) == 50
        assert pga["objective"] == bpg["objective"]

    @pytest.mark.parametrize("method", ["pga", "nesterov"])
    def test_run_with_no_finite_objective_exits_cleanly(self, tmp_path,
                                                         capsys, method):
        # a step of 1e308 overflows the first iterate, so the run records
        # one non-finite objective and stops as degenerate
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["run", "--problem", "quadratic", "--gamma", "1e308",
                       "--method", method, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "degenerate" in capsys.readouterr().out
        rows, cols = read_trace(tmp_path / "o" / "trace.csv")
        assert len(rows) == 1
        assert not math.isfinite(float(cols["objective"][0]))
        with open(tmp_path / "o" / "summary.json") as fh:
            result = json.load(fh)["results"][method]
        assert result["termination"] == "degenerate"

    def test_summary_without_a_finite_objective_is_strict_json(self,
                                                               tmp_path):
        # no method has a finite objective: final and best are null, and
        # the file parses without the non-standard NaN/Infinity tokens
        with np.errstate(over="ignore", invalid="ignore"):
            main(["run", "--problem", "quadratic", "--gamma", "1e308",
                  "--method", "pga", "--out", str(tmp_path / "o")])

        def reject(token):
            raise ValueError("non-standard JSON token %s" % token)

        with open(tmp_path / "o" / "summary.json") as fh:
            result = json.load(fh, parse_constant=reject)["results"]["pga"]
        assert result["final_objective"] is None
        assert result["best_objective"] is None
        _, cols = read_trace(tmp_path / "o" / "trace.csv")
        assert math.isnan(float(cols["subopt"][0]))

    def test_non_finite_settings_are_rejected(self):
        for name in ("mu", "lam", "gamma", "tol"):
            with pytest.raises(ValueError, match=name):
                ExperimentConfig(**{name: float("inf")})

    def test_rejected_settings_write_nothing(self, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="m must be"):
            main(["run", "--problem", "nnls", "--synth", "50,20",
                  "--method", "pga", "--m", "-1", "--out", str(out)])
        assert not out.exists()

    def test_bad_synth_argument(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--problem", "quadratic", "--synth", "abc",
                  "--out", str(tmp_path)])

    def test_counterexample_subcommand(self, tmp_path, capsys):
        rc = main(["counterexample", "--cycles", "5",
                   "--out", str(tmp_path / "c")])
        assert rc == 0
        assert "closed-form gap" in capsys.readouterr().out
        rows, cols = read_trace(tmp_path / "c" / "trace.csv")
        assert list(rows[0]) == ["iter", "x", "objective"]
        assert cols["iter"][0] == "0"
        assert float(cols["x"][0]) == 2.1
        xs = np.array([float(v) for v in cols["x"]])
        assert np.any(np.abs(xs - CYCLE_POINT) < 1e-9)
        assert np.any(np.abs(xs + CYCLE_POINT) < 1e-9)
