"""Workloads: instances, independent reference optima, calibrated jobs.

A job is one (instance, method, target) solve from the standard start. An
untimed calibration solve at the method's iteration budget finds the first
iteration k whose suboptimality (F(x) - F*) / max(1, |F*|) meets the target;
the timed solve then runs exactly max_iters=k, or the whole budget on a miss.
F* comes from scipy (nnls, or L-BFGS-B with bounds), never from the solvers.

Seeds. Seed 0 gives the acceptance instances unchanged. Any other seed gives
an equivalent instance, so that time to target measures the same amount of
work on every seed: Euclidean instances get a seeded permutation of rows and
columns, and the KL instance has A and b scaled by a power of two, which
leaves every iterate bit-identical (guarded mirror extrapolation is so
sensitive to rounding that a permutation moves its iterations to 1e-6 between
2490 and 5199).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import minimize, nnls
from scipy.special import expit

from aaprox import bregman, cli, datasets, problems, solvers
from aaprox.anderson import AAConfig

LOOSE = 1e-6
TIGHT = 1e-10
UNDERCUT = 1e-12  # an iterate this far below F* (relative) disproves F*
AA = AAConfig(m=5, reg_scale=1e-10)
CLI_ITERS = 60
CLI_METHODS = ("pga", "guarded_aa_pga")

# the host probe whose kind matches each workload's ops
PROBE_KIND = {"dense_small": "compute", "dense_large": "memory",
              "kl_mirror": "compute", "libsvm_cli": "compute"}

# end-to-end metric each (method, target) job adds its time to
METRIC = {
    ("pga", LOOSE): "plain_s", ("bpg", LOOSE): "plain_s",
    ("nesterov", LOOSE): "momentum_s", ("aa_pga", LOOSE): "aa_s",
    ("guarded_aa_pga", LOOSE): "guarded_s",
    ("guarded_aa_bpg", LOOSE): "guarded_s",
    ("pga", TIGHT): "plain_tight_s",
    ("guarded_aa_pga", TIGHT): "guarded_tight_s",
}


class ReferenceMismatch(RuntimeError):
    """A solver iterate undercut the reference optimum: F* is wrong."""


@dataclass
class Instance:
    name: str
    problem: object          # CompositeProblem or BregmanProblem
    x0: np.ndarray
    gamma: float
    budgets: dict            # method -> iteration budget
    targets: dict            # method -> targets timed
    lower: float             # bounds of the reference solve
    upper: float
    y0: np.ndarray | None = None   # mirror start of guarded_aa_bpg
    data_path: str | None = None   # LIBSVM file of the CLI op
    fstar: float = float("nan")
    reference: dict = field(default_factory=dict)

    @property
    def shape(self):
        return list(self.problem.f.A.shape)

    @property
    def scale(self) -> float:
        return max(1.0, abs(self.fstar))


@dataclass
class Job:
    inst: Instance
    method: str              # a solver name, or "cli"
    target: float
    metric: str
    iters: int = 0           # k from calibration, or the budget on a miss
    hit: bool = False        # calibration met the target within the budget


@dataclass
class Outcome:
    seconds: float
    failure: str | None      # None when the op succeeded
    iterations: int = 0
    accepted: int = 0        # guarded steps taken from the extrapolation
    fallbacks: int = 0
    trace_rows: int = 0      # CLI op only
    trace_bytes: int = 0


# -- instances -------------------------------------------------------------

def _permute(A, b, seed: int):
    if seed == 0:
        return A, b
    rng = np.random.default_rng(seed)
    rows = rng.permutation(A.shape[0])
    cols = rng.permutation(A.shape[1])
    A = A[rows][:, cols]
    if sparse.issparse(A):
        A = A.tocsr()
        A.sort_indices()
    return A, b[rows]


def _euclidean(name, loss, term, budgets, targets, lower, upper):
    n = loss.n
    return Instance(name, problems.CompositeProblem(loss, term, n),
                    np.zeros(n), 1.0 / loss.smoothness, budgets, targets,
                    lower, upper)


def _logreg_small(seed):
    data = datasets.generate_logreg_instance(200, 100, seed=0, cond=1e5)
    A, y = _permute(data.A, data.b, seed)
    loss = problems.logistic_loss(A, y, mu=1e-5)
    return _euclidean("logreg", loss, problems.box_indicator(-20.0, 20.0),
                      dict(pga=1000, nesterov=500, aa_pga=500,
                           guarded_aa_pga=1000),
                      dict(pga=(LOOSE, TIGHT), nesterov=(LOOSE,),
                           aa_pga=(LOOSE,), guarded_aa_pga=(LOOSE, TIGHT)),
                      -20.0, 20.0)


def _nnls(name, M, n, instance_seed, cond, seed, budgets, targets):
    data = datasets.generate_nnls_instance(M, n, seed=instance_seed, cond=cond)
    A, b = _permute(data.A, data.b, seed)
    loss = problems.least_squares_loss(A, b)
    return _euclidean(name, loss, problems.nonneg_indicator(), budgets,
                      targets, 0.0, np.inf)


def _kl_hard(seed):
    data = datasets.generate_kl_instance(500, 50, seed=3, density=0.5,
                                         noise=0.1)
    scale = 2.0 ** (seed % 8)
    loss = problems.kl_loss(data.A * scale, data.b * scale)
    kernel = bregman.shannon_kernel()
    gamma = 1.0 / loss.smoothness
    ones = np.ones(loss.n)
    prob = bregman.BregmanProblem(kernel, loss, problems.zero_term(), gamma,
                                  loss.n)
    inst = Instance("kl_hard", prob, ones, gamma,
                    dict(bpg=25000, guarded_aa_bpg=6000),
                    dict(bpg=(LOOSE,), guarded_aa_bpg=(LOOSE,)), 0.0, np.inf)
    inst.y0 = kernel.grad(ones) - gamma * loss.grad(ones)
    return inst


def _sparse_logreg(seed, out_dir):
    """20000 x 2000, about 10 nonzeros per row, labels from a planted model
    with 5 percent flipped; written once as LIBSVM for the CLI op."""
    M, n, per_row = 20000, 2000, 10
    rng = np.random.default_rng(5)
    rows = np.repeat(np.arange(M), per_row)
    cols = rng.integers(0, n, size=M * per_row)
    A = sparse.csr_matrix((rng.standard_normal(M * per_row), (rows, cols)),
                          shape=(M, n))  # repeated columns are summed
    y = np.where(A @ rng.standard_normal(n) >= 0.0, 1.0, -1.0)
    flip = rng.random(M) < 0.05
    y[flip] = -y[flip]
    A, y = _permute(A, y, seed)
    if A.getnnz(axis=0).min() == 0:
        raise RuntimeError("empty column: the LIBSVM file would lose it")
    path = os.path.join(out_dir, "sparse_logreg.svm")
    datasets.write_libsvm(datasets.DatasetMatrix(A, y), path)
    # the CLI's logreg_box problem: mu = 0, box [-1, 1], x0 = 0, gamma = 1/L
    inst = _euclidean("sparse_logreg", problems.logistic_loss(A, y),
                      problems.box_indicator(-1.0, 1.0),
                      dict(pga=200, guarded_aa_pga=200),
                      dict(pga=(LOOSE,), guarded_aa_pga=(LOOSE,)), -1.0, 1.0)
    inst.data_path = path
    return inst


def build(workload: str, seed: int, out_dir: str) -> list[Instance]:
    """Generate the workload's instances (generation, transform, write)."""
    if workload == "dense_small":
        return [_logreg_small(seed),
                _nnls("nnls", 200, 100, 1, 1e3, seed,
                      dict(pga=10000, nesterov=2000, aa_pga=2000,
                           guarded_aa_pga=2000),
                      dict(pga=(LOOSE, TIGHT), nesterov=(LOOSE,),
                           aa_pga=(LOOSE,), guarded_aa_pga=(LOOSE, TIGHT)))]
    if workload == "dense_large":
        return [_nnls("nnls_large", 2000, 1000, 4, 30.0, seed,
                      dict(pga=700, nesterov=200, aa_pga=200,
                           guarded_aa_pga=200),
                      dict(pga=(LOOSE,), nesterov=(LOOSE,), aa_pga=(LOOSE,),
                           guarded_aa_pga=(LOOSE,)))]
    if workload == "kl_mirror":
        return [_kl_hard(seed)]
    if workload == "libsvm_cli":
        return [_sparse_logreg(seed, out_dir)]
    raise ValueError("unknown workload %r" % workload)


class HostProbe:
    """A fixed piece of numpy work with no aaprox code in it.

    The host this benchmark was built on changes speed by 20 percent and
    more for minutes at a time, and not evenly: small numpy calls under a
    Python loop and streaming a large matrix slow down at different times.
    A probe of the same kind as a workload's ops follows it (over 15-second
    blocks, op over probe time varied 1 to 5 percent where the op alone
    varied 12 to 30), while changes to the package leave the probe alone.
    "compute" is mirror-descent steps on a small relative-entropy fit (small
    matvecs, exp, log); "memory" is products with a 16 MB matrix. Probing
    for a share of the time just measured samples the host as the ops saw
    it.
    """

    NOMINAL_S = {"compute": 0.0045, "memory": 0.007}  # medians when tuned
    SHARE = 0.15  # probe time per second of op time

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        if kind == "compute":
            self.A = rng.random((500, 50))
            self.b = self.A @ rng.uniform(0.5, 2.0, 50)
            self.gamma = 1.0 / float(self.A.sum(axis=0).max())
        else:
            self.A = rng.standard_normal((2000, 1000))
            self.b = rng.standard_normal(1000)

    def chunk(self) -> float:
        A, b = self.A, self.b
        t0 = time.perf_counter()
        if self.kind == "compute":
            x = np.ones(A.shape[1])
            for _ in range(300):
                ratio = np.log((A @ x) / b)
                x = np.exp(np.log(x) - self.gamma * (A.T @ ratio))
        else:
            for _ in range(4):
                A.T @ (A @ b)
        return time.perf_counter() - t0

    def follow(self, seconds: float, chunks: list[float]) -> None:
        """Probe for SHARE * seconds (at least one chunk) into chunks."""
        spent = 0.0
        while not spent or spent < self.SHARE * seconds:
            chunks.append(self.chunk())
            spent += chunks[-1]

    def speed(self, chunks: list[float]) -> float:
        """Nominal over measured chunk time: above 1 on a slow host."""
        return self.NOMINAL_S[self.kind] / float(np.median(chunks))


# -- reference optima (numpy and scipy only) ------------------------------

def _objective_and_grad(inst: Instance):
    f = inst.problem.f
    A = f.A
    if isinstance(f, problems.LeastSquaresLoss):
        M = A.shape[0]

        def fg(x):
            r = A @ x - f.b
            return float(r @ r) / (2.0 * M), A.T @ r / M
    elif isinstance(f, problems.LogisticLoss):
        M = A.shape[0]

        def fg(x):
            t = -f.y * (A @ x)
            g = A.T @ (-f.y * expit(t)) / M + 2.0 * f.mu * x
            return float(np.mean(np.logaddexp(0.0, t)) + f.mu * (x @ x)), g
    else:
        def fg(x):
            u = A @ x
            ratio = np.log(u / f.b)
            return float(np.sum(u * ratio - u + f.b)), A.T @ ratio
    return fg


def reference(inst: Instance) -> None:
    """F* from scipy, with its projected-gradient residual."""
    fg = _objective_and_grad(inst)
    if isinstance(inst.problem.f, problems.LeastSquaresLoss):
        x, _ = nnls(inst.problem.f.A, inst.problem.f.b)
        method, message = "scipy.optimize.nnls", "converged"
    else:
        upper = inst.upper if np.isfinite(inst.upper) else None
        res = minimize(fg, np.asarray(inst.x0, dtype=float), jac=True,
                       method="L-BFGS-B",
                       bounds=[(inst.lower, upper)] * inst.x0.size,
                       options=dict(maxiter=20000, maxcor=30, ftol=0.0,
                                    gtol=1e-14))
        x, method, message = res.x, "L-BFGS-B", str(res.message)
    fstar, grad = fg(x)
    step = np.clip(x - grad, inst.lower, inst.upper)
    inst.fstar = fstar
    inst.reference = dict(method=method, message=message, fstar=fstar,
                          pg_residual=float(np.max(np.abs(x - step))))


# -- solves and checks ------------------------------------------------------

def solve(inst: Instance, method: str, iters: int):
    p = inst.problem
    if method == "pga":
        return solvers.run_pga(p, inst.x0, inst.gamma, tol=0.0,
                               max_iters=iters)
    if method == "nesterov":
        return solvers.run_nesterov_pga(p, inst.x0, inst.gamma, tol=0.0,
                                        max_iters=iters)
    if method == "aa_pga":
        return solvers.run_aa_pga(p, inst.x0, inst.gamma, AA, tol=0.0,
                                  max_iters=iters)
    if method == "guarded_aa_pga":
        return solvers.run_guarded_aa_pga(p, inst.x0, inst.gamma, AA,
                                          tol=0.0, max_iters=iters)
    if method == "bpg":
        return bregman.run_bpg(p, inst.x0, tol=0.0, max_iters=iters)
    if method == "guarded_aa_bpg":
        return bregman.run_guarded_aa_bpg(p, inst.y0, AA, tol=0.0,
                                          max_iters=iters)
    raise ValueError("unknown method %r" % method)


def gaps(inst: Instance, objectives) -> np.ndarray:
    """Relative suboptimality of each objective; raises if one undercuts F*."""
    gap = (np.asarray(objectives, dtype=float) - inst.fstar) / inst.scale
    finite = gap[np.isfinite(gap)]
    if finite.size and finite.min() < -UNDERCUT:
        raise ReferenceMismatch(
            "%s: an iterate is %.3g below F* = %.17g (%s); the reference "
            "optimum is wrong" % (inst.name, -finite.min(), inst.fstar,
                                  inst.reference.get("method")))
    return gap


def calibrate(instances: list[Instance]) -> list[Job]:
    """One untimed solve per (instance, method) at its budget sets each k."""
    jobs = []
    for inst in instances:
        for method, budget in inst.budgets.items():
            try:
                gap = gaps(inst, solve(inst, method, budget).trace.objective)
            except ReferenceMismatch:
                raise
            except Exception:  # the timed op raises again and is counted
                gap = np.full(budget, np.inf)
            for target in inst.targets[method]:
                hits = np.flatnonzero(gap <= target)
                job = Job(inst, method, target, METRIC[(method, target)],
                          iters=int(hits[0]) + 1 if hits.size else budget,
                          hit=bool(hits.size))
                jobs.append(job)
        if inst.data_path is not None:
            jobs.append(Job(inst, "cli", LOOSE, "cli_run_s", iters=CLI_ITERS,
                            hit=True))
    return jobs


def run_job(job: Job, cli_dir: str, timer=None) -> Outcome:
    """Time one op and check its output; timer(fn) may wrap it in a span."""
    if job.method == "cli":
        return _run_cli(job, cli_dir, timer)
    call = lambda: solve(job.inst, job.method, job.iters)  # noqa: E731
    try:
        report, seconds = timer(call) if timer else _timed(call)
    except ReferenceMismatch:
        raise
    except Exception as exc:
        return Outcome(0.0, "exception: %s: %s" % (type(exc).__name__, exc))
    kinds = report.trace.step_kind
    out = Outcome(seconds, None, report.iterations, kinds.count("AA"),
                  kinds.count("fallback"))
    gap = gaps(job.inst, report.trace.objective)
    if not np.all(np.isfinite(gap)):
        out.failure = "non-finite objective"
    elif not job.hit:
        out.failure = "missed %.0e within the budget of %d iterations" % (
            job.target, job.iters)
    elif report.iterations != job.iters or gap[-1] > job.target:
        out.failure = "timed solve ended outside its target"
    return out


def _timed(call):
    t0 = time.perf_counter()
    result = call()
    return result, time.perf_counter() - t0


def _run_cli(job: Job, out_dir: str, timer) -> Outcome:
    argv = ["run", "--problem", "logreg_box", "--data", job.inst.data_path,
            "--method", ",".join(CLI_METHODS), "--tol", "0",
            "--max-iters", str(job.iters), "--out", out_dir]
    call = lambda: cli.main(argv)  # noqa: E731
    summary = os.path.join(out_dir, "summary.json")
    if os.path.exists(summary):  # a stale summary must not pass the checks
        os.remove(summary)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code, seconds = timer(call) if timer else _timed(call)
    except ReferenceMismatch:
        raise
    except Exception as exc:
        return Outcome(0.0, "exception: %s: %s" % (type(exc).__name__, exc))
    out = Outcome(seconds, None)
    try:
        with open(summary) as fh:
            results = json.load(fh)["results"]
        best = min(r["best_objective"] for r in results.values())
        for method in CLI_METHODS:
            res = results[method]
            path = os.path.join(out_dir, res["trace_file"])
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            out.trace_rows += len(rows)
            out.trace_bytes += os.path.getsize(path)
            out.iterations += res["iterations"]
            objectives = [float(row["objective"]) for row in rows]
            if not np.all(np.isfinite(objectives)):
                out.failure = "%s: non-finite objective" % method
            kinds = [row["step_kind"] for row in rows]
            if method.startswith("guarded"):
                out.accepted += kinds.count("AA")
                out.fallbacks += kinds.count("fallback")
            if len(rows) != job.iters or res["iterations"] != job.iters:
                out.failure = "%s: %d trace rows for %d iterations" % (
                    method, len(rows), job.iters)
            gaps(job.inst, objectives)
        out.trace_bytes += os.path.getsize(summary)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.failure = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        return out
    if code != 0:
        out.failure = "exit code %r" % code
    elif out.failure is None and not gaps(job.inst, [best])[0] <= job.target:
        out.failure = "best objective misses %.0e" % job.target
    return out
