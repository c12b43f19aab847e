"""Benchmark command line: assemble a problem, run solvers, write traces.

Every run writes trace.csv (one row per iteration) and summary.json into
the output directory. Running several methods on the same instance writes
trace_<method>.csv per method plus a combined summary. Given the same
config and seed, output files are identical except for the elapsed_s
column and summary.json's wall_time_s and config.out.
"""

from __future__ import annotations

import argparse
import csv
import json
import numbers
import os
import sys
from dataclasses import dataclass, field, asdict

import numpy as np

from .anderson import AAConfig
from .bregman import (BregmanProblem, energy_kernel, run_bpg,
                      run_guarded_aa_bpg, shannon_kernel)
from .counterexample import PiecewiseLoss, run_counterexample, value_f
from .datasets import (generate_kl_instance, generate_logreg_instance,
                       generate_nnls_instance, load_dense_csv, parse_libsvm)
from .problems import (CompositeProblem, QuadraticLoss, box_indicator,
                       kl_loss, l1_term, least_squares_loss, logistic_loss,
                       nonneg_indicator, zero_term)
from .solvers import (_step_size, run_aa_pga, run_guarded_aa_pga,
                      run_nesterov_pga, run_pga)

__all__ = [
    "ExperimentConfig",
    "assemble_problem",
    "main",
    "run_experiment",
]

PROBLEMS = ("logreg_box", "nnls", "kl_l1", "quadratic", "counterexample")
RIDGE_PROBLEMS = ("logreg_box", "nnls")  # the problems whose loss takes mu
DATA_PROBLEMS = ("logreg_box", "nnls", "kl_l1")  # read data, else synth
EUCLIDEAN_METHODS = ("pga", "aa_pga", "guarded_aa_pga", "nesterov")
BREGMAN_METHODS = ("bpg", "guarded_aa_bpg")
METHODS = EUCLIDEAN_METHODS + BREGMAN_METHODS


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    problem: str = "quadratic"
    methods: list = field(default_factory=lambda: ["guarded_aa_pga"])
    m: int = 5
    mu: float = 0.0
    lam: float | None = None  # kl_l1 only, where it defaults to 0.001
    gamma: float | None = None
    max_iters: int = 1000
    tol: float = 1e-10
    seed: int = 0
    data: str | None = None
    csv_has_header: bool = False
    synth: tuple | None = None
    out: str = "out"

    def __post_init__(self):
        # a JSON config can hold any type, so types are checked before values
        for names, is_type, kind in (
                (("m", "max_iters", "seed"), _is_int, "an integer"),
                (("mu", "lam", "gamma", "tol"), _is_number, "a number"),
                (("problem", "data", "out"), lambda v: isinstance(v, str),
                 "a string"),
                (("csv_has_header",), lambda v: isinstance(v, bool),
                 "true or false")):
            for name in names:
                value = getattr(self, name)
                if not is_type(value) and not (
                        value is None and name in ("lam", "gamma", "data")):
                    raise ValueError("%s must be %s, got %r"
                                     % (name, kind, value))
        if self.synth is not None and not (
                isinstance(self.synth, (list, tuple)) and len(self.synth) == 2
                and all(map(_is_int, self.synth))):
            raise ValueError("synth must be two integers M, n, got %r"
                             % (self.synth,))
        if not (isinstance(self.methods, list)
                and all(isinstance(m, str) for m in self.methods)):
            raise ValueError("methods must be a list of strings, got %r"
                             % (self.methods,))
        if self.problem not in PROBLEMS:
            raise ValueError("unknown problem %r" % self.problem)
        for name in ("mu", "lam", "gamma", "tol"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError("%s must be finite, got %r" % (name, value))
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive, got %r" % self.gamma)
        for name, low in (("m", 0), ("mu", 0), ("max_iters", 1), ("tol", 0),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError("%s must be at least %d, got %r"
                                 % (name, low, getattr(self, name)))
        if self.mu > 0 and self.problem not in RIDGE_PROBLEMS:
            raise ValueError("mu is the ridge weight of %s; problem %r has "
                             "none" % (" and ".join(RIDGE_PROBLEMS),
                                       self.problem))
        if self.problem != "kl_l1" and self.lam is not None:
            raise ValueError("lam is the l1 weight of kl_l1; problem %r has "
                             "none" % self.problem)
        if self.problem == "kl_l1" and self.lam is None:
            self.lam = 0.001
        for name, readers in (("data", DATA_PROBLEMS),
                              ("synth", DATA_PROBLEMS + ("quadratic",))):
            if getattr(self, name) is not None and self.problem not in readers:
                raise ValueError("%s is read by %s only, not by problem %r"
                                 % (name, ", ".join(readers), self.problem))
        if self.data is not None and self.synth is not None:
            raise ValueError("data and synth both give the instance; set one "
                             "of them")
        if self.csv_has_header and not (self.data or "").endswith(".csv"):
            raise ValueError("csv_has_header describes a .csv data file, and "
                             "data is %r" % self.data)
        if self.synth is not None and min(self.synth) < 1:
            raise ValueError("synth sizes must be at least 1, got %r"
                             % (self.synth,))
        if not self.methods:
            raise ValueError("methods must name at least one method")
        for i, method in enumerate(self.methods):
            if method not in METHODS:
                raise ValueError("unknown method %r" % method)
            if method in self.methods[:i]:
                raise ValueError("method %r is named twice" % method)
            if self.problem == "kl_l1" and method not in BREGMAN_METHODS:
                raise ValueError(
                    "problem kl_l1 needs a Bregman method, not %r" % method)
            if self.problem == "counterexample" and method in BREGMAN_METHODS:
                raise ValueError(
                    "the counterexample problem is Euclidean; %r does not "
                    "apply" % method)

    @classmethod
    def from_sources(cls, json_path=None, **overrides):
        """Build from an optional JSON file; explicit flags win."""
        fields = {}
        if json_path:
            with open(json_path) as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError("%s must hold a JSON object of config fields"
                                 % json_path)
            unknown = set(loaded) - set(cls.__dataclass_fields__)
            if unknown:
                raise ValueError("unknown config keys %s" % sorted(unknown))
            fields.update(loaded)
        for key, val in overrides.items():
            if val is not None:
                fields[key] = val
        if isinstance(fields.get("synth"), list):
            fields["synth"] = tuple(fields["synth"])
        return cls(**fields)


def _load_data(config: ExperimentConfig):
    if config.data is not None:
        if config.data.endswith(".csv"):
            return load_dense_csv(config.data, config.csv_has_header)
        return parse_libsvm(config.data)
    if config.synth is None:
        raise ValueError("provide --data or --synth M,n for this problem")
    M, n = config.synth
    if config.problem == "logreg_box":
        return generate_logreg_instance(M, n, config.seed)
    if config.problem == "nnls":
        return generate_nnls_instance(M, n, config.seed)
    return generate_kl_instance(M, n, config.seed)


def assemble_problem(config: ExperimentConfig) -> tuple:
    """Build the optimization problem an experiment runs on.

    Returns (problem, gamma, x0). Each problem picks its loss, its
    nonsmooth term and its start x0. The problem is a CompositeProblem, or
    for kl_l1 a BregmanProblem under the Shannon kernel. The step gamma is
    config.gamma when set, else 1/L for the loss's smoothness constant L
    (relative smoothness for kl_l1, 25 for counterexample), by
    solvers._step_size; an unset step with L = 0 is a ValueError.
    """
    if config.problem == "counterexample":
        loss, h, x0 = PiecewiseLoss(), zero_term(), np.array([2.1])
    elif config.problem == "quadratic":
        n = config.synth[1] if config.synth else 20
        rng = np.random.default_rng(config.seed)
        eigs = np.logspace(0.0, 2.0, n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        H = (q * eigs) @ q.T
        loss = QuadraticLoss(H, center=rng.standard_normal(n),
                             smoothness=float(eigs[-1]))
        h, x0 = zero_term(), np.zeros(n)
    else:
        data = _load_data(config)
        n = data.shape[1]
        if config.problem == "logreg_box":
            loss = logistic_loss(data.A, data.b, mu=config.mu)
            h, x0 = box_indicator(-1.0, 1.0), np.zeros(n)
        elif config.problem == "nnls":
            loss = least_squares_loss(data.A, data.b, mu=config.mu)
            h, x0 = nonneg_indicator(), np.zeros(n)
        else:  # kl_l1
            loss = kl_loss(data.A, data.b)
            h, x0 = l1_term(config.lam), np.ones(n)
    gamma = _step_size(loss, config.gamma)
    if config.problem == "kl_l1":
        return (BregmanProblem(shannon_kernel(), loss, h, gamma, x0.size),
                gamma, x0)
    return CompositeProblem(loss, h, x0.size), gamma, x0


def _run_method(method: str, problem, gamma: float, x0,
                config: ExperimentConfig):
    aa = AAConfig(m=config.m)
    kwargs = dict(tol=config.tol, max_iters=config.max_iters)
    if method in BREGMAN_METHODS and not isinstance(problem, BregmanProblem):
        problem = BregmanProblem(energy_kernel(), problem.f, problem.h,
                                 gamma, problem.n)
    if method == "pga":
        return run_pga(problem, x0, gamma, **kwargs)
    if method == "aa_pga":
        return run_aa_pga(problem, x0, gamma, aa, **kwargs)
    if method == "guarded_aa_pga":
        return run_guarded_aa_pga(problem, x0, gamma, aa, **kwargs)
    if method == "nesterov":
        return run_nesterov_pga(problem, x0, gamma, **kwargs)
    if method == "bpg":
        return run_bpg(problem, x0, **kwargs)
    # the mirror start grad phi(x0); x0 itself under the energy kernel
    return run_guarded_aa_bpg(problem, problem.kernel.grad(x0), aa, **kwargs)


def _write_csv(path, header, rows) -> None:
    """Write header and rows to a CSV file, each float with 17 significant
    digits, so that it reads back as the same double."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v
                          for v in row] for row in rows)


def _write_trace(path, report, best_objective: float) -> None:
    trace = report.trace
    _write_csv(path, ["iter", "objective", "subopt", "residual", "step_kind",
                      "elapsed_s"],
               ([i + 1, obj, obj - best_objective, trace.residual[i],
                 trace.step_kind[i], trace.elapsed[i]]
                for i, obj in enumerate(trace.objective)))


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every configured method on one shared instance; write outputs."""
    problem, gamma, x0 = assemble_problem(config)
    os.makedirs(config.out, exist_ok=True)
    reports = {}
    for method in config.methods:
        reports[method] = _run_method(method, problem, gamma, x0, config)

    finite_objs = [o for rep in reports.values() for o in rep.trace.objective
                   if np.isfinite(o)]
    # with no finite objective there is no best, and every gap is nan
    best = min(finite_objs) if finite_objs else np.nan

    single = len(config.methods) == 1
    summary = {"config": asdict(config), "results": {}}
    for method, report in reports.items():
        name = "trace.csv" if single else "trace_%s.csv" % method
        _write_trace(os.path.join(config.out, name), report, best)
        summary["results"][method] = {
            "final_objective": _finite_or_none(report.trace.objective[-1]),
            "best_objective": _finite_or_none(best),
            "iterations": report.iterations,
            "wall_time_s": report.trace.elapsed[-1],
            "termination": report.termination,
            "gamma": report.gamma,
            "trace_file": name,
        }
    with open(os.path.join(config.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return reports


def _finite_or_none(value):
    """value as a float, or None (JSON null) if it is not finite."""
    return float(value) if np.isfinite(value) else None


def _parse_synth(text: str) -> tuple:
    try:
        m_str, n_str = text.split(",")
        return int(m_str), int(n_str)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected M,n (two comma-separated integers), got %r" % text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aaprox",
        description="extrapolated proximal gradient benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one or more methods on a problem")
    run_p.add_argument("--config", help="JSON file with config fields")
    run_p.add_argument("--problem", choices=PROBLEMS)
    run_p.add_argument("--method", help="method name, or comma-separated list "
                       "for a comparison run (%s)" % ", ".join(METHODS))
    run_p.add_argument("--m", type=int, help="extrapolation window depth")
    run_p.add_argument("--mu", type=float, help="ridge weight of the loss")
    run_p.add_argument("--lambda", dest="lam", type=float,
                       help="l1 weight for kl_l1")
    run_p.add_argument("--gamma", type=float, help="step size override")
    run_p.add_argument("--max-iters", dest="max_iters", type=int)
    run_p.add_argument("--tol", type=float)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--data", help="LIBSVM file, or .csv with the label "
                       "in the last column")
    run_p.add_argument("--csv-has-header", dest="csv_has_header",
                       action="store_const", const=True, default=None)
    run_p.add_argument("--synth", type=_parse_synth, metavar="M,N",
                       help="generate a synthetic instance of this shape")
    run_p.add_argument("--out", help="output directory")

    cyc_p = sub.add_parser("counterexample",
                           help="emit the cycling trajectory as CSV")
    cyc_p.add_argument("--x0", type=float, default=2.1)
    cyc_p.add_argument("--cycles", type=int, default=50)
    cyc_p.add_argument("--out", default="out")
    return parser


def _cmd_run(args) -> int:
    fields = {key: value for key, value in vars(args).items()
              if key in ExperimentConfig.__dataclass_fields__}
    if args.method is not None:
        fields["methods"] = args.method.split(",")
    config = ExperimentConfig.from_sources(args.config, **fields)
    reports = run_experiment(config)
    for method, report in reports.items():
        print("%s: %d iterations, objective %.10g, %s"
              % (method, report.iterations, report.trace.objective[-1],
                 report.termination))
    return 0


def _cmd_counterexample(args) -> int:
    report = run_counterexample(args.x0, args.cycles)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "trace.csv")
    _write_csv(path, ["iter", "x", "objective"],
               ([k, xk, float(value_f(xk))]
                for k, xk in enumerate(report.iterates)))
    print("wrote %d iterates to %s (max closed-form gap %.3g)"
          % (len(report.iterates), path, report.max_closed_form_gap))
    return 0


def main(argv=None) -> int:
    """Run the command line. A rejected setting or data file (a ValueError),
    or a data or config file that cannot be read (an OSError, such as a
    missing file), prints one "aaprox <command>: error: <message>" line to
    stderr and returns 2, as argparse does for a bad flag."""
    args = _build_parser().parse_args(argv)
    command = _cmd_run if args.command == "run" else _cmd_counterexample
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print("aaprox %s: error: %s" % (args.command, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
