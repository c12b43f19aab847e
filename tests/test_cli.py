"""Experiment configuration, problem assembly, and the command line."""

import csv
import json
import math
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aaprox.anderson import AAConfig
from aaprox.bregman import (BregmanProblem, energy_kernel, run_guarded_aa_bpg,
                            shannon_kernel)
from aaprox.cli import (
    ExperimentConfig,
    assemble_problem,
    main,
    run_experiment,
)
from aaprox.counterexample import CYCLE_POINT, STEP
from aaprox.datasets import (DatasetMatrix, generate_kl_instance,
                             generate_nnls_instance, write_libsvm)
from aaprox.problems import (CompositeProblem, kl_loss, l1_term,
                             least_squares_loss, nonneg_indicator)


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cols = {key: [r[key] for r in rows] for key in rows[0]}
    return rows, cols


def refused(argv, capture):
    """Run main(argv), which must refuse it with exit status 2 and one
    "aaprox <command>: error:" line on stderr; returns that line's message."""
    assert main(argv) == 2
    err = capture.readouterr().err
    prefix = "aaprox %s: error: " % argv[0]
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert err.endswith("\n")
    return err[len(prefix):-1]


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
        problem, gamma, x0 = assemble_problem(
            ExperimentConfig(problem="quadratic", seed=3))
        assert type(problem) is CompositeProblem
        assert problem.n == 20
        assert gamma == pytest.approx(1e-2, rel=1e-12)  # top eig 100
        assert_allclose(x0, np.zeros(20))

    def test_gamma_override(self):
        cfg = ExperimentConfig(problem="quadratic", gamma=0.5)
        assert assemble_problem(cfg)[1] == 0.5

    def test_counterexample_setup(self):
        problem, gamma, x0 = assemble_problem(
            ExperimentConfig(problem="counterexample"))
        assert type(problem) is CompositeProblem
        assert gamma == STEP
        assert_allclose(x0, [2.1])
        assert problem.f.smoothness == 25.0
        assert problem.objective(np.array([1.0])) == 12.5

    def test_kl_l1_is_a_bregman_setup(self):
        cfg = ExperimentConfig(problem="kl_l1", methods=["bpg"],
                               synth=(30, 10), lam=0.01)
        problem, gamma, x0 = assemble_problem(cfg)
        assert isinstance(problem, BregmanProblem)
        assert problem.kernel.name == "shannon"
        assert problem.gamma == gamma
        assert problem.h.params["lam"] == 0.01
        assert_allclose(x0, np.ones(10))

    def test_logreg_box_setup(self):
        cfg = ExperimentConfig(problem="logreg_box", methods=["pga"],
                               synth=(40, 12), mu=0.01)
        problem, gamma, _ = assemble_problem(cfg)
        assert type(problem) is CompositeProblem
        assert problem.h.kind == "box"
        assert gamma == pytest.approx(1.0 / problem.f.smoothness)

    def test_data_problems_need_a_source(self):
        cfg = ExperimentConfig(problem="nnls", methods=["pga"])
        with pytest.raises(ValueError, match="--data or --synth"):
            assemble_problem(cfg)

    @pytest.mark.parametrize("name", ["d.csv", "d.svm", "header.csv"])
    def test_csv_data_source(self, tmp_path, name):
        # a .csv suffix selects the dense reader, anything else LIBSVM
        p = tmp_path / name
        rng = np.random.default_rng(0)
        A = rng.random((10, 3))
        b = A @ np.array([1.0, 2.0, 0.5])
        header = name == "header.csv"
        if name.endswith(".csv"):
            np.savetxt(p, np.column_stack([A, b]), delimiter=",",
                       header="a1,a2,a3,b" if header else "", comments="")
        else:
            write_libsvm(DatasetMatrix(A, b), p)
        cfg = ExperimentConfig(problem="nnls", methods=["pga"], data=str(p),
                               csv_has_header=header)
        problem = assemble_problem(cfg)[0]
        assert problem.n == 3
        x = np.array([0.5, 1.0, 1.5])
        assert problem.f.value(x) == pytest.approx(
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

    @pytest.mark.parametrize("problem, iters", [("nnls", 80),
                                                ("kl_l1", 300)])
    def test_guarded_bpg_starts_from_the_mirror_image_of_x0(
            self, tmp_path, problem, iters):
        # nnls runs under the energy kernel, whose mirror map is the identity;
        # kl_l1 under the Shannon kernel, from grad phi(1)
        cfg = ExperimentConfig(problem=problem, methods=["guarded_aa_bpg"],
                               synth=(60, 20), tol=0.0, max_iters=iters,
                               out=str(tmp_path / "o"))
        got = run_experiment(cfg)["guarded_aa_bpg"]
        if problem == "nnls":
            data = generate_nnls_instance(60, 20, 0)
            f, h = least_squares_loss(data.A, data.b), nonneg_indicator()
            kernel, x0 = energy_kernel(), np.zeros(20)
        else:
            data = generate_kl_instance(60, 20, 0)
            f, h = kl_loss(data.A, data.b), l1_term(0.001)
            kernel, x0 = shannon_kernel(), np.ones(20)
        want = run_guarded_aa_bpg(
            BregmanProblem(kernel, f, h, 1.0 / f.smoothness, 20),
            kernel.grad(x0), AAConfig(m=5), tol=0.0, max_iters=iters)
        assert got.iterations == want.iterations == iters
        assert got.trace.objective == want.trace.objective
        assert got.trace.residual == want.trace.residual
        assert got.trace.step_kind == want.trace.step_kind
        assert np.array_equal(got.x, want.x)

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

    def test_rejected_settings_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        for name in ("m", "seed", "mu"):
            message = refused(["run", "--problem", "nnls", "--synth", "50,20",
                               "--method", "pga", "--" + name, "-1",
                               "--out", str(out)], capsys)
            assert re.search("^%s must be at least 0" % name, message)
            assert not out.exists()

    def test_zero_smoothness_without_a_step_writes_nothing(self, tmp_path,
                                                            capsys):
        # an all-zero A has L = 0, so the default step 1/L does not exist
        data = tmp_path / "zeros.csv"
        data.write_text("0,0,1\n0,0,2\n0,0,-1\n")
        out = tmp_path / "o"
        message = refused(["run", "--problem", "nnls", "--data", str(data),
                           "--method", "pga", "--out", str(out)], capsys)
        assert re.search("L of the loss is 0.*--gamma", message)
        assert not out.exists()

    @pytest.mark.parametrize("problem, value", [
        ("logreg_box", "nan"), ("logreg_box", "inf"), ("nnls", "nan"),
        ("nnls", "-inf")])
    def test_non_finite_data_writes_nothing(self, tmp_path, capfd, problem,
                                            value):
        # rejected by the loss, before ARPACK would fail on it
        data = tmp_path / "bad.svm"
        data.write_text("+1 1:0.8 3:%s\n-1 2:1.5 3:0.3\n+1 1:-0.4 2:0.9\n"
                        % value)
        out = tmp_path / "o"
        # the error line is all that reaches stderr: no warning comes first
        message = refused(["run", "--problem", problem, "--data", str(data),
                           "--method", "pga", "--out", str(out)], capfd)
        assert re.search("A must hold only finite", message)
        assert not out.exists()

    @pytest.mark.parametrize("flags,fields,fragment", [
        (["--method", "pga,pga"], {}, "'pga' is named twice"),
        (["--method", ""], {}, "unknown method ''"),
        ([], {"methods": []}, "at least one method"),
    ], ids=["repeated_flag", "empty_flag", "empty_json"])
    def test_bad_method_lists_write_nothing(self, tmp_path, capsys, flags,
                                            fields, fragment):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(problem="quadratic", **fields)))
        out = tmp_path / "o"
        message = refused(["run", "--config", str(cfg_path), *flags,
                           "--out", str(out)], capsys)
        assert re.search(fragment, message)
        assert not out.exists()

    @pytest.mark.parametrize("fields, fragment", [
        ({"m": 2.5}, "m must be an integer"),
        ({"max_iters": 2.5}, "max_iters must be an integer"),
        ({"seed": "1"}, "seed must be an integer"),
        ({"m": True}, "m must be an integer"),
        ({"tol": "1e-6"}, "tol must be a number"),
        ({"gamma": False}, "gamma must be a number"),
        ({"problem": 5}, "problem must be a string"),
        ({"data": 5}, "data must be a string"),
        ({"out": 5}, "out must be a string"),
        ({"csv_has_header": "no"}, "csv_has_header must be true or false"),
        ({"synth": [30]}, "synth must be two integers"),
        ({"synth": [30.7, 10.2]}, "synth must be two integers"),
        ({"synth": "30,10"}, "synth must be two integers"),
        ({"methods": "pga"}, "methods must be a list of strings"),
        ({"methods": ["pga", 1]}, "methods must be a list of strings"),
    ], ids=["m_float", "max_iters_float", "seed_str", "m_bool", "tol_str",
            "gamma_bool", "problem_int", "data_int", "out_int", "header_str",
            "synth_one", "synth_floats", "synth_str", "methods_str",
            "methods_int_item"])
    def test_json_fields_of_the_wrong_type_write_nothing(
            self, tmp_path, monkeypatch, capsys, fields, fragment):
        monkeypatch.chdir(tmp_path)  # where a relative "out" would land
        config = {"problem": "quadratic", "methods": ["pga"], "max_iters": 5,
                  "out": "o"}
        config.update(fields)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        message = refused(["run", "--config", "cfg.json"], capsys)
        assert re.search(fragment, message)
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("problem, flags, fragment", [
        ("kl_l1", ["--mu", "0.5", "--method", "bpg", "--synth", "30,10"],
         "^mu is the ridge weight of .*problem 'kl_l1' has none"),
        ("quadratic", ["--mu", "0.5"],
         "^mu is the ridge weight of .*problem 'quadratic' has none"),
        ("counterexample", ["--mu", "1e-300"],
         "^mu is the ridge weight of .*problem 'counterexample' has none"),
        ("nnls", ["--lambda", "0.01", "--synth", "30,10"],
         "^lam is the l1 weight of .*problem 'nnls' has none"),
        ("logreg_box", ["--lambda", "0", "--synth", "30,10"],
         "^lam is the l1 weight of .*problem 'logreg_box' has none"),
        ("quadratic", ["--lambda", "0.001"],
         "^lam is the l1 weight of .*problem 'quadratic' has none"),
        ("counterexample", ["--lambda", "0.01"],
         "^lam is the l1 weight of .*problem 'counterexample' has none"),
        # the data files named below do not exist: each setting is refused
        # before any file is opened
        ("quadratic", ["--data", "missing.csv"],
         "^data is read by .* not by problem 'quadratic'$"),
        ("counterexample", ["--data", "t.svm"],
         "^data is read by .* not by problem 'counterexample'$"),
        ("counterexample", ["--synth", "5,5"],
         "^synth is read by .*quadratic only, not by problem "
         "'counterexample'$"),
        ("nnls", ["--synth", "30,10", "--data", "t.svm"],
         "^data and synth both give the instance"),
        ("nnls", ["--synth", "30,10", "--csv-has-header"],
         "^csv_has_header describes a .csv data file, and data is None$"),
        ("nnls", ["--data", "t.svm", "--csv-has-header"],
         "^csv_has_header describes a .csv data file, and data is 't.svm'$"),
    ], ids=["mu_kl_l1", "mu_quadratic", "mu_counterexample", "lam_nnls",
            "lam_logreg_box", "lam_quadratic", "lam_counterexample",
            "data_quadratic", "data_counterexample", "synth_counterexample",
            "data_and_synth", "header_with_synth", "header_with_svm"])
    def test_settings_the_problem_does_not_use_write_nothing(
            self, tmp_path, capsys, problem, flags, fragment):
        # each was accepted and then ignored: the run wrote the trace of
        # the setting's default
        out = tmp_path / "o"
        message = refused(["run", "--problem", problem, *flags,
                           "--max-iters", "5", "--out", str(out)], capsys)
        assert re.search(fragment, message), message
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--problem", "nnls", "--data", "missing.svm"],
        ["--problem", "nnls", "--data", "missing.csv"],
        ["--config", "missing.json"],
    ], ids=["svm", "csv", "config"])
    def test_a_missing_file_writes_nothing(self, tmp_path, monkeypatch,
                                           capsys, flags):
        # each printed a traceback and exited 1
        monkeypatch.chdir(tmp_path)
        message = refused(["run", *flags, "--out", "o"], capsys)
        assert "missing." in message
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("name, content, flags, start", [
        ("bad.svm", b"+1 1:0.8\n-1 2:\xff\n", [],
         "bad.svm: not utf-8 text: invalid start byte"),
        ("bad.csv", b"a1,a2,b\n0.8,0.1,1\n0.3,x,-1\n", ["--csv-has-header"],
         "bad.csv: line 3: could not convert string"),
    ], ids=["svm_not_utf8", "csv_bad_cell"])
    def test_a_bad_data_file_is_named_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys, name, content, flags,
            start):
        # the LIBSVM file raised a bare UnicodeDecodeError; numpy put the
        # CSV cell at row 1, counting data rows from 0 after the header
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_bytes(content)
        message = refused(["run", "--problem", "nnls", "--data", name,
                           *flags, "--out", "o"], capsys)
        assert message.startswith(start), message
        assert os.listdir(tmp_path) == [name]

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"problem"'],
                             ids=["number", "list", "string"])
    def test_a_config_that_is_not_an_object_writes_nothing(
            self, tmp_path, monkeypatch, capsys, text):
        # a number raised a TypeError; a list or a string was read as keys
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(text)
        message = refused(["run", "--config", "cfg.json", "--out", "o"],
                          capsys)
        assert message == "cfg.json must hold a JSON object of config fields"
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_a_lam_set_in_json_is_rejected_on_nnls(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": "nnls", "lam": 0.001,
                                        "synth": [30, 10]}))
        message = refused(["run", "--config", str(cfg_path), "--out",
                           str(tmp_path / "o")], capsys)
        assert re.search("problem 'nnls' has none", message)
        assert not (tmp_path / "o").exists()

    def test_unset_weights_are_accepted_everywhere(self):
        # lam is unset but on kl_l1, where it defaults to 0.001; mu = 0 is
        # the default and has nothing to set
        for problem in ("logreg_box", "nnls", "quadratic", "counterexample"):
            cfg = ExperimentConfig(problem=problem, mu=0.0)
            assert cfg.lam is None
        cfg = ExperimentConfig(problem="kl_l1", methods=["bpg"], mu=0.0,
                               synth=(30, 10))
        assert cfg.lam == 0.001
        assert assemble_problem(cfg)[0].h.params["lam"] == 0.001

    def test_bad_synth_argument(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--problem", "quadratic", "--synth", "abc",
                  "--out", str(tmp_path)])

    @pytest.mark.parametrize("flags, fragment", [
        (["--cycles", "-1"], "^n_cycles must be nonnegative"),
        (["--x0", "nan"], "^x0 must be finite"),
    ], ids=["cycles", "x0"])
    def test_rejected_counterexample_settings_write_nothing(
            self, tmp_path, capsys, flags, fragment):
        out = tmp_path / "c"
        message = refused(["counterexample", *flags, "--out", str(out)],
                          capsys)
        assert re.search(fragment, message)
        assert not out.exists()

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
