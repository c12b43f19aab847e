"""Proximal gradient drivers: steps, guards, traces, and stopping."""

import math
import time
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from aaprox import problems, solvers
from aaprox.anderson import AAConfig, AndersonEngine
from aaprox.counterexample import STEP, PiecewiseLoss, grad_f, value_f
from aaprox.datasets import (
    generate_kl_instance,
    generate_logreg_instance,
    generate_nnls_instance,
)
from aaprox.bregman import (
    BregmanProblem,
    bpg_step,
    energy_kernel,
    run_bpg,
    run_guarded_aa_bpg,
    shannon_kernel,
)
from aaprox.problems import (
    PROJECTION_KINDS,
    CompositeProblem,
    DomainError,
    NonsmoothTerm,
    QuadraticLoss,
    UnsupportedProxError,
    box_indicator,
    kl_loss,
    l1_term,
    least_squares_loss,
    logistic_loss,
    nonneg_indicator,
    simplex_indicator,
    zero_term,
)
from aaprox.solvers import (
    IterationTrace,
    SolveReport,
    _finite,
    _norm,
    _step_size,
    _stop,
    _value_or_inf,
    descent_check,
    pga_step,
    run_aa_pga,
    run_guarded_aa_pga,
    run_nesterov_pga,
    run_pga,
)
from test_problems import CountingCsr


def lasso_problem(seed=0, M=30, n=12, lam=0.1):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((M, n))
    b = rng.standard_normal(M)
    f = least_squares_loss(A, b)
    return CompositeProblem(f, l1_term(lam), n)


def quadratic_problem(seed=0, n=8):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    H = B.T @ B + np.eye(n)
    c = rng.standard_normal(n)
    return CompositeProblem(QuadraticLoss(H, c), zero_term(), n)


def test_pga_step_fixed_point_is_stationary():
    prob = quadratic_problem()
    c = prob.f.center
    assert_allclose(pga_step(prob, c, 0.1), c)


def test_pga_step_matches_manual_composition():
    prob = lasso_problem()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(prob.n)
    gamma = 0.05
    manual = prob.h.prox(x - gamma * prob.f.grad(x), gamma)
    assert_allclose(pga_step(prob, x, gamma), manual)


def test_descent_check_examples():
    # threshold at f_curr - gamma/2 * ||grad||^2 = 1 - 0.05 * 4 = 0.8
    assert descent_check(0.7, 1.0, 4.0, 0.1)
    assert descent_check(0.8, 1.0, 4.0, 0.1)  # ties accepted
    assert not descent_check(0.81, 1.0, 4.0, 0.1)
    assert not descent_check(np.inf, 1.0, 4.0, 0.1)
    assert not descent_check(np.nan, 1.0, 4.0, 0.1)


class TestRunPga:
    def test_converges_on_lasso(self):
        prob = lasso_problem()
        rep = run_pga(prob, np.zeros(prob.n), tol=1e-12, max_iters=5000)
        assert rep.termination == "tol"
        # fixed point: x = prox(x - gamma grad f(x))
        assert_allclose(pga_step(prob, rep.x, rep.gamma), rep.x, atol=1e-10)

    def test_objective_monotone_with_default_step(self):
        prob = lasso_problem(seed=2)
        rep = run_pga(prob, np.ones(prob.n), max_iters=200)
        obj = np.array(rep.trace.objective)
        assert np.all(np.diff(obj) <= 1e-12)

    def test_default_gamma_is_inverse_smoothness(self):
        prob = lasso_problem(seed=3)
        rep = run_pga(prob, np.zeros(prob.n), max_iters=2)
        assert_allclose(rep.gamma, 1.0 / prob.f.smoothness)

    def test_max_iters_bounds_trace_length(self):
        prob = lasso_problem(seed=4)
        rep = run_pga(prob, np.zeros(prob.n), max_iters=7)
        assert rep.iterations == 7
        assert rep.termination == "max_iters"

    def test_keep_iterates_stores_every_step(self):
        prob = lasso_problem(seed=5)
        rep = run_pga(prob, np.zeros(prob.n), max_iters=9, keep_iterates=True)
        assert len(rep.trace.iterates) == 9
        assert_allclose(rep.trace.iterates[-1], rep.x)


class TestRunAaPga:
    def test_depth_zero_reproduces_plain_pga_exactly(self):
        prob = lasso_problem(seed=6, M=50, n=20)
        x0 = np.zeros(20)
        r1 = run_pga(prob, x0, max_iters=500)
        r2 = run_aa_pga(prob, x0, aa_config=AAConfig(m=0), max_iters=500)
        assert np.array_equal(r1.x, r2.x)
        assert r1.trace.objective == r2.trace.objective
        assert r1.trace.residual == r2.trace.residual

    def test_accelerates_strongly_convex_quadratic(self):
        prob = quadratic_problem(seed=7)
        x0 = np.full(prob.n, 3.0)
        plain = run_pga(prob, x0, tol=1e-10, max_iters=5000)
        fast = run_aa_pga(prob, x0, aa_config=AAConfig(m=5), tol=1e-10,
                          max_iters=5000)
        assert fast.termination == "tol"
        assert fast.iterations < plain.iterations

    def test_first_iteration_is_plain(self):
        prob = lasso_problem(seed=8)
        rep = run_aa_pga(prob, np.zeros(prob.n), aa_config=AAConfig(m=3),
                         max_iters=3)
        assert rep.trace.step_kind[0] == "plain"
        assert rep.trace.step_kind[1] == "AA"
        assert rep.iterations == 3 and rep.termination == "max_iters"

    def test_full_memory_terminates_finitely_on_a_quadratic(self):
        # with h = 0 each step maps x affinely; with a window at least the
        # dimension the extrapolated iterate solves the fixed-point
        # equation exactly, up to roundoff
        prob = quadratic_problem(seed=27, n=10)
        rep = run_aa_pga(prob, np.zeros(10),
                         aa_config=AAConfig(m=12, reg_scale=0.0), tol=1e-9,
                         max_iters=13)
        assert rep.termination == "tol"
        assert rep.iterations <= 12
        assert_allclose(rep.x, prob.f.center, atol=1e-8)

    def test_runs_are_deterministic(self):
        prob = lasso_problem(seed=28)
        run = partial(run_aa_pga, prob, np.ones(prob.n),
                      aa_config=AAConfig(m=3), max_iters=30,
                      keep_iterates=True)
        first, second = run(), run()
        assert np.array_equal(first.trace.iterates, second.trace.iterates)
        assert first.trace.objective == second.trace.objective

    def test_gradient_budget_is_respected(self):
        base = lasso_problem(seed=29)
        loss = CountingLoss(base.f)
        prob = CompositeProblem(loss, base.h, base.n)
        rep = run_aa_pga(prob, np.ones(prob.n), aa_config=AAConfig(m=2),
                         max_iters=7)
        assert rep.iterations == 7
        assert len(loss.values_per_row) == 7

    def test_divergence_at_depth_one_is_reported_without_a_warning(self):
        # a step 50 times too long on a nonnegative least-squares problem:
        # depth-1 extrapolation does not rescue it, and the run's own
        # errstate keeps the overflowing rows quiet
        data = generate_nnls_instance(80, 40)
        f = least_squares_loss(data.A, data.b)
        prob = CompositeProblem(f, nonneg_indicator(), 40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = run_aa_pga(prob, np.ones(40), gamma=50.0 / f.smoothness,
                             aa_config=AAConfig(m=1), max_iters=1000)
        assert caught == []
        assert rep.termination == "degenerate"
        assert rep.iterations == 258
        assert np.isfinite(rep.trace.objective[:-1]).all()
        assert rep.trace.objective[-1] == np.inf


class TestRunGuardedAaPga:
    def test_accepted_steps_satisfy_the_descent_inequality(self):
        prob = lasso_problem(seed=9, M=40, n=15)
        rep = run_guarded_aa_pga(prob, np.zeros(15), aa_config=AAConfig(m=4),
                                 max_iters=300, keep_iterates=True)
        xs = rep.trace.iterates
        gamma = rep.gamma
        for k in range(1, len(xs)):
            if rep.trace.step_kind[k] != "AA":
                continue
            g = prob.f.grad(xs[k - 1])
            assert descent_check(prob.f.value(xs[k]), prob.f.value(xs[k - 1]),
                                 float(np.dot(g, g)), gamma)

    def test_objective_never_increases(self):
        for seed in range(3):
            prob = lasso_problem(seed=seed, M=40, n=15)
            rep = run_guarded_aa_pga(prob, np.ones(15),
                                     aa_config=AAConfig(m=5), max_iters=400)
            obj = np.array(rep.trace.objective)
            assert np.all(np.diff(obj) <= 1e-12)

    def test_feasibility_with_box_constraints(self):
        prob = lasso_problem(seed=12)
        prob = CompositeProblem(prob.f, box_indicator(-0.4, 0.4), prob.n)
        rep = run_guarded_aa_pga(prob, np.zeros(prob.n),
                                 aa_config=AAConfig(m=5), max_iters=300,
                                 keep_iterates=True)
        for x in rep.trace.iterates:
            assert np.all(x >= -0.4) and np.all(x <= 0.4)

    def test_reaches_constrained_optimum(self):
        prob = lasso_problem(seed=13)
        prob = CompositeProblem(prob.f, nonneg_indicator(), prob.n)
        rep = run_guarded_aa_pga(prob, np.zeros(prob.n),
                                 aa_config=AAConfig(m=5), tol=1e-12,
                                 max_iters=3000)
        assert rep.termination == "tol"
        assert_allclose(pga_step(prob, rep.x, rep.gamma), rep.x, atol=1e-9)

    @pytest.mark.parametrize("name", ["logreg", "nnls"])
    def test_qr_window_follows_the_dense_solve(self, name):
        # the acceptance instances of criteria 6 and 10; the two coefficient
        # routes differ at rounding level, which takes longer than 50 steps
        # to change a guard decision. The gap is relative to the objective
        # at the start: the nnls objective falls toward zero, so relative to
        # its own values a gap of 1e-15 reads 1e-11 by step 50
        if name == "logreg":
            data = generate_logreg_instance(200, 100, seed=0, cond=1e5)
            prob = CompositeProblem(logistic_loss(data.A, data.b, mu=1e-5),
                                    box_indicator(-20.0, 20.0), 100)
        else:
            data = generate_nnls_instance(200, 100, seed=1, cond=1e3)
            prob = CompositeProblem(least_squares_loss(data.A, data.b),
                                    nonneg_indicator(), 100)
        x0 = np.zeros(100)
        dense, qr = (run_guarded_aa_pga(prob, x0,
                                        aa_config=AAConfig(m=5, **opt),
                                        max_iters=50)
                     for opt in ({}, {"use_qr_updates": True}))
        assert dense.trace.step_kind == qr.trace.step_kind
        assert "AA" in dense.trace.step_kind
        assert_allclose(qr.trace.objective, dense.trace.objective, rtol=0.0,
                        atol=1e-12 * prob.objective(x0))


class ValueOnlyAt:
    """A loss whose value raises DomainError away from the given points."""

    def __init__(self, loss, points):
        self.loss, self.points = loss, points
        self.smoothness = loss.smoothness

    def value(self, x):
        if not any(np.array_equal(x, p) for p in self.points):
            raise DomainError("outside the plain trajectory")
        return self.loss.value(x)

    def grad(self, x):
        return self.loss.grad(x)


class FiniteOnly:
    """A loss that fails the test when its value is asked at a non-finite x."""

    def __init__(self, loss):
        self.loss = loss
        self.smoothness = loss.smoothness

    def value(self, x):
        assert np.all(np.isfinite(x)), "f evaluated at a non-finite point"
        return self.loss.value(x)

    def grad(self, x):
        return self.loss.grad(x)


def guarded_and_plain(geometry, prob, x0, gamma, aa_config, **options):
    """One guarded and one plain run, Euclidean or under the energy kernel."""
    if geometry == "euclidean":
        return (run_guarded_aa_pga(prob, x0, gamma, aa_config, **options),
                run_pga(prob, x0, gamma, **options))
    bp = BregmanProblem(energy_kernel(), prob.f, prob.h, gamma, prob.n)
    return (run_guarded_aa_bpg(bp, x0, aa_config, **options),
            run_bpg(bp, x0, **options))


def plain_point(geometry, prob, x, gamma):
    """The plain step from x that guarded_and_plain's guarded run takes."""
    if geometry == "euclidean":
        return pga_step(prob, x, gamma)
    bp = BregmanProblem(energy_kernel(), prob.f, prob.h, gamma, prob.n)
    return bpg_step(bp, x)[1]


@pytest.mark.parametrize("geometry", ["euclidean", "energy"])
class TestGuardCandidates:
    """Candidate handling shared by both guards."""

    def assert_follows_plain(self, guarded, plain):
        assert guarded.trace.step_kind == (
            ["plain"] + ["fallback"] * (len(plain.trace) - 1))
        assert guarded.trace.objective == plain.trace.objective
        assert guarded.trace.residual == plain.trace.residual
        assert np.array_equal(guarded.x, plain.x)

    def test_domain_error_candidates_fall_back(self, geometry):
        base = quadratic_problem(seed=18)
        x0 = np.full(base.n, 2.0)
        gamma = 1.0 / base.f.smoothness
        points = run_pga(base, x0, gamma, max_iters=30,
                         keep_iterates=True).trace.iterates
        prob = CompositeProblem(ValueOnlyAt(base.f, points), base.h, base.n)
        guarded, plain = guarded_and_plain(geometry, prob, x0, gamma,
                                           AAConfig(m=3), max_iters=30)
        self.assert_follows_plain(guarded, plain)

    def test_non_finite_candidates_fall_back_unevaluated(self, geometry):
        base = quadratic_problem(seed=19)
        x0 = np.full(base.n, 2.0)
        gamma = 1.0 / base.f.smoothness
        points = [x0] + run_pga(base, x0, gamma, max_iters=30,
                                keep_iterates=True).trace.iterates

        def prox(y, gamma):
            if any(np.array_equal(y, p) for p in points):
                return y
            return np.full_like(y, np.nan)

        h = NonsmoothTerm(value=lambda x: 0.0, prox=prox)
        prob = CompositeProblem(FiniteOnly(base.f), h, base.n)
        guarded, plain = guarded_and_plain(geometry, prob, x0, gamma,
                                           AAConfig(m=3), max_iters=30)
        self.assert_follows_plain(guarded, plain)

    def test_kept_plain_points_cover_every_row(self, geometry):
        prob = lasso_problem(seed=20)
        gamma = 1.0 / prob.f.smoothness
        guarded, _ = guarded_and_plain(geometry, prob, np.zeros(prob.n),
                                       gamma, AAConfig(m=4), max_iters=80,
                                       keep_iterates=True)
        xs = guarded.trace.iterates
        assert len(xs) == len(guarded.trace) == 80
        kinds = guarded.trace.step_kind
        assert "AA" in kinds and "fallback" in kinds
        for k in range(1, len(xs)):
            if kinds[k] == "fallback":
                assert np.array_equal(
                    xs[k], plain_point(geometry, prob, xs[k - 1], gamma))

    def test_degenerate_row_keeps_its_plain_point(self, geometry):
        # a step ten times too long diverges until the objective overflows
        prob = quadratic_problem(seed=21)
        gamma = 10.0 / prob.f.smoothness
        with np.errstate(over="ignore", invalid="ignore"):
            guarded, _ = guarded_and_plain(geometry, prob, np.ones(prob.n),
                                           gamma, AAConfig(m=0),
                                           max_iters=5000, keep_iterates=True)
            assert guarded.termination == "degenerate"
            xs = guarded.trace.iterates
            assert len(xs) == len(guarded.trace)
            # the run stops on the first infinite objective, at a finite
            # iterate, the plain step from the row before
            assert np.isfinite(guarded.trace.objective[:-1]).all()
            assert guarded.trace.objective[-1] == np.inf
            assert np.array_equal(
                xs[-1], plain_point(geometry, prob, xs[-2], gamma))
            assert np.isfinite(xs[-1]).all()

    def test_degenerate_row_is_reached_without_a_warning(self, geometry):
        # the run above with no errstate of the caller's
        prob = quadratic_problem(seed=21)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            guarded, plain = guarded_and_plain(geometry, prob,
                                               np.ones(prob.n),
                                               10.0 / prob.f.smoothness,
                                               AAConfig(m=0), max_iters=5000)
        assert caught == []
        for rep in (guarded, plain):
            assert rep.termination == "degenerate"
            assert rep.trace.objective[-1] == np.inf


class CycleLoss:
    """The cycling counterexample as a 1-d smooth loss."""

    smoothness = 1.0 / STEP

    def value(self, x):
        return float(value_f(x[0]))

    def grad(self, x):
        return np.atleast_1d(grad_f(x))


class DomainLoss:
    """A loss on the domain x >= -1 that counts what it is asked outside
    it: DomainError there, and non-finite points."""

    def __init__(self, loss):
        self.loss = loss
        self.smoothness = loss.smoothness
        self.nonfinite = self.domain_errors = 0

    def value(self, x):
        self.nonfinite += not np.isfinite(x).all()
        if np.min(x) < -1.0:
            self.domain_errors += 1
            raise DomainError("x must be at least -1")
        return self.loss.value(x)

    def grad(self, x):
        return self.loss.grad(x)


class CountingLoss:
    """Counts f.value calls per driver iteration (one f.grad call each)."""

    def __init__(self, loss):
        self.loss = loss
        self.smoothness = loss.smoothness
        self.values_per_row = []

    def value(self, x):
        self.values_per_row[-1] += 1
        return self.loss.value(x)

    def grad(self, x):
        self.values_per_row.append(0)
        return self.loss.grad(x)


@pytest.fixture
def products(monkeypatch):
    """Counts the forward products of every loss built after it is set up.

    Least squares makes one per point: Q x on the normal-matrix route of
    dense A, through problems._symmetric_product, and A x on the residual
    route, through problems._product. A loss binds them when it is built.
    """
    made = []

    def counting(product):
        def counted(x, A):
            made.append(1)
            return product(x, A)
        return counted

    for name in ("_product", "_symmetric_product"):
        monkeypatch.setattr(problems, name,
                            counting(getattr(problems, name)))
    return made


class GradProducts:
    """Records the forward products each f.grad call of the loss makes."""

    def __init__(self, loss, products):
        self.loss, self.products = loss, products
        self.smoothness = loss.smoothness
        self.per_call = []

    def value(self, x):
        return self.loss.value(x)

    def grad(self, x):
        before = len(self.products)
        g = self.loss.grad(x)
        self.per_call.append(len(self.products) - before)
        return g


class CountingProx:
    """A prox that records, per call, the row of a CountingLoss it falls in.

    Row -1 is before the first gradient, such as a driver's start point.
    """

    def __init__(self, prox, loss):
        self.prox, self.loss = prox, loss
        self.rows = []

    def __call__(self, y, gamma):
        self.rows.append(len(self.loss.values_per_row) - 1)
        return self.prox(y, gamma)

    def per_row(self):
        rows = [r for r in self.rows if r >= 0]
        return np.bincount(rows, minlength=len(self.loss.values_per_row))


@pytest.mark.parametrize("config", [AAConfig(m=0)], ids=["m0"])
@pytest.mark.parametrize("driver", ["aa_pga", "guarded_aa_pga",
                                    "guarded_aa_bpg"])
def test_plain_weights_take_the_plain_step(driver, config):
    # at depth 0 every step's weights are (1, 0, ..., 0), so each step is
    # exactly the plain one, at its cost
    base = lasso_problem(seed=10)
    x0 = np.zeros(base.n)
    gamma = 1.0 / base.f.smoothness
    loss = CountingLoss(base.f)
    prox = CountingProx(base.h.prox, loss)
    prob = CompositeProblem(loss, NonsmoothTerm(base.h.value, prox,
                                                base.h.kind, base.h.params),
                            base.n)
    if driver == "guarded_aa_bpg":
        rep = run_guarded_aa_bpg(
            BregmanProblem(energy_kernel(), prob.f, prob.h, gamma, prob.n),
            x0, config, max_iters=100)
        ref = run_bpg(
            BregmanProblem(energy_kernel(), base.f, base.h, gamma, base.n),
            x0, max_iters=100)
    else:
        run = run_aa_pga if driver == "aa_pga" else run_guarded_aa_pga
        rep = run(prob, x0, gamma, config, max_iters=100)
        ref = run_pga(base, x0, gamma, max_iters=100)
    assert rep.trace.step_kind == ["plain"] * 100
    assert np.array_equal(rep.trace.objective, ref.trace.objective)
    assert np.array_equal(rep.trace.residual, ref.trace.residual)
    assert np.array_equal(rep.x, ref.x)
    assert loss.values_per_row == [1] * 100
    assert prox.per_row().tolist() == [1] * 100


# (problem, x0, gamma, config) cases on which the Euclidean guard takes at
# least one damped step
def cycle_case():
    return (CompositeProblem(CycleLoss(), zero_term(), 1), np.array([246.0]),
            STEP, AAConfig(m=1, reg_scale=0.0, use_qr_updates=False))


def nonneg_lasso_case():
    """Least squares plus 0.1 * sum(x) over x >= 0, from x = 3."""
    rng = np.random.default_rng(0)
    f = least_squares_loss(rng.standard_normal((60, 30)),
                           rng.standard_normal(60))
    h = NonsmoothTerm(
        value=lambda x: 0.1 * float(np.sum(x)) if np.all(x >= 0) else np.inf,
        prox=lambda y, gamma: np.maximum(y - 0.1 * gamma, 0.0))
    return (CompositeProblem(f, h, 30), np.full(30, 3.0), 1.0 / f.smoothness,
            AAConfig(m=5))


def plain_passes(prob, rep, k):
    """Whether row k's plain point passes descent_check from row k - 1."""
    x_prev = rep.trace.iterates[k - 1]
    grad = prob.f.grad(x_prev)
    return descent_check(prob.f.value(pga_step(prob, x_prev, rep.gamma)),
                         prob.f.value(x_prev), float(np.dot(grad, grad)),
                         rep.gamma)


class TestDampedRetry:
    """The halfway retry of the Euclidean guard, inside its bracket."""

    @pytest.mark.parametrize("case", [cycle_case, nonneg_lasso_case])
    def test_damped_rows_pass_the_guard_inside_the_bracket(self, case):
        prob, x0, gamma, cfg = case()
        rep = run_guarded_aa_pga(prob, x0, gamma, cfg, max_iters=150,
                                 keep_iterates=True)
        xs = rep.trace.iterates
        damped = [k for k, kind in enumerate(rep.trace.step_kind)
                  if kind == "damped"]
        assert damped
        for k in damped:
            grad = prob.f.grad(xs[k - 1])
            assert descent_check(prob.f.value(xs[k]), prob.f.value(xs[k - 1]),
                                 float(np.dot(grad, grad)), rep.gamma)
            assert plain_passes(prob, rep, k)
            assert not np.array_equal(xs[k],
                                      pga_step(prob, xs[k - 1], rep.gamma))

    @pytest.mark.parametrize("case", [cycle_case, nonneg_lasso_case])
    def test_bregman_guard_never_damps(self, case):
        prob, x0, gamma, cfg = case()
        bp = BregmanProblem(energy_kernel(), prob.f, prob.h, gamma, prob.n)
        rep = run_guarded_aa_bpg(bp, x0, cfg, max_iters=150)
        assert "fallback" in rep.trace.step_kind
        assert "damped" not in rep.trace.step_kind

    def test_oracle_cost_per_row(self, monkeypatch):
        # near the solution the plain step fails the guard at the active
        # bounds, so most rejections make no retry and cost what they cost
        # without one: the candidate's value and the plain point's. A
        # candidate whose lower bound already fails the guard costs no
        # value; on this lasso that decides every rejected extrapolation,
        # and on the cycle, whose candidates jump across the minimum, none
        probes = []  # (row, decided) per candidate probed, in order
        probe = solvers._bound_rejects
        counting = None

        def spy(*args):
            decided = probe(*args)
            probes.append((len(counting.values_per_row) - 1, decided))
            return decided

        monkeypatch.setattr(solvers, "_bound_rejects", spy)
        rejected = set()  # whether each rejected extrapolation was decided
        for case, rows, kinds in (
                (nonneg_lasso_case, 150,
                 {"plain", "AA", "fallback", "tried", "damped"}),
                (cycle_case, 6, {"plain", "tried", "damped"})):
            base, x0, gamma, cfg = case()
            counting = CountingLoss(base.f)
            prob = CompositeProblem(counting, base.h, base.n)
            probes.clear()
            rep = run_guarded_aa_pga(prob, x0, gamma, cfg, max_iters=150,
                                     keep_iterates=True)
            costs = counting.values_per_row
            assert len(rep.trace) == rows
            # the cycle stops on tol in a row that records nothing
            assert costs[rows:] == ([0] if rep.termination == "tol" else [])
            decided = np.bincount([row for row, hit in probes if hit],
                                  minlength=rows)
            first = {}  # the row's extrapolated candidate is probed first
            for row, hit in probes:
                first.setdefault(row, hit)
            seen = set()
            for k, (kind, cost) in enumerate(zip(rep.trace.step_kind,
                                                 costs)):
                if kind == "fallback":
                    kind = ("tried" if plain_passes(base, rep, k)
                            else "fallback")
                expected = {"plain": 1, "AA": 1, "fallback": 2, "tried": 3,
                            "damped": 3}[kind]
                assert cost == expected - decided[k], (k, kind)
                seen.add(kind)
                if kind not in ("plain", "AA"):
                    rejected.add(first[k])
            assert seen == kinds
        assert rejected == {True, False}

    def test_an_out_of_domain_candidate_costs_no_value_or_guard_call(
            self, monkeypatch):
        # the term's prox refuses every other extrapolated candidate with
        # DomainError. Such a row costs the plain point's value and guard
        # call, and, where the plain point passes, the halfway try's probe
        # and, when the probe leaves it open, its value and guard call
        base, x0, gamma, cfg = nonneg_lasso_case()
        counting = CountingLoss(base.f)
        latest = {"g": None, "y_ext": None}
        offers, refused, guards, probes = [0], [], [], []
        push, extrapolate = AndersonEngine.push, AndersonEngine.extrapolate
        check, probe = solvers.descent_check, solvers._bound_rejects

        def row():
            return len(counting.values_per_row) - 1

        def pushed(engine, g, y):
            latest["g"] = g
            return push(engine, g, y)

        def proposed(engine):
            out = extrapolate(engine)
            latest["y_ext"] = out[0]
            return out

        def prox(y, gamma):
            if y is latest["y_ext"] and y is not latest["g"]:
                offers[0] += 1
                if offers[0] % 2:
                    refused.append(row())
                    raise DomainError("outside the term's domain")
            return base.h.prox(y, gamma)

        def guard(*args):
            guards.append(row())
            return check(*args)

        def probed(*args):
            hit = probe(*args)
            probes.append((row(), hit))
            return hit

        monkeypatch.setattr(AndersonEngine, "push", pushed)
        monkeypatch.setattr(AndersonEngine, "extrapolate", proposed)
        monkeypatch.setattr(solvers, "descent_check", guard)
        monkeypatch.setattr(solvers, "_bound_rejects", probed)
        h = NonsmoothTerm(base.h.value, prox)
        rep = run_guarded_aa_pga(CompositeProblem(counting, h, base.n), x0,
                                 gamma, cfg, max_iters=150,
                                 keep_iterates=True)
        assert len(rep.trace) == 150
        kinds = rep.trace.step_kind
        for k in refused:
            tried = [hit for r, hit in probes if r == k]  # the halfway try
            assert len(tried) == plain_passes(base, rep, k)
            assert counting.values_per_row[k] == 1 + tried.count(False)
            assert guards.count(k) == 1 + len(tried) + tried.count(False)
            assert kinds[k] in ("fallback", "damped")
            if kinds[k] == "damped":
                assert tried == [False]
        assert {kinds[k] for k in refused} == {"fallback", "damped"}

    @staticmethod
    def assert_gradient_reuses_the_product(case, products):
        # a failed halfway try evaluates f last at the halfway point, and
        # the next row starts with the gradient at the plain point
        base, x0, gamma, cfg = case
        counted = GradProducts(base.f, products)
        prob = CompositeProblem(counted, base.h, base.n)
        rep = run_guarded_aa_pga(prob, x0, gamma, cfg, max_iters=150,
                                 keep_iterates=True)
        tried = [k for k, kind in enumerate(rep.trace.step_kind)
                 if kind == "fallback" and plain_passes(base, rep, k)]
        assert tried and tried[0] < 149
        assert counted.per_call == [1] + [0] * 149

    def test_gradient_after_a_failed_try_reuses_its_product(self, products):
        # dense A: the normal-matrix route, whose product is Q x
        self.assert_gradient_reuses_the_product(nonneg_lasso_case(),
                                                products)

    def test_gradient_after_a_failed_try_reuses_its_product_on_csr(
            self, products):
        # the same case on the residual route, whose product is A x
        base, x0, gamma, cfg = nonneg_lasso_case()
        f = least_squares_loss(sparse.csr_matrix(base.f.A), base.f.b)
        self.assert_gradient_reuses_the_product(
            (CompositeProblem(f, base.h, base.n), x0, gamma, cfg), products)



# Guarded runs for the lower-bound probe (solvers._bound_rejects): the
# acceptance instances at shortened budgets, the nonnegative lasso, the
# counterexample loss, and CSR logistic with a box term. PROBE_CASES maps
# each name to a function returning (f, run), run being a zero-argument solve.
AA5 = AAConfig(m=5, reg_scale=1e-10)


def _guarded_pga(prob, x0, rows, cfg=AA5, gamma=None):
    return prob.f, partial(run_guarded_aa_pga, prob, x0, gamma, cfg,
                           max_iters=rows)


def _guarded_kl(M, n, seed, density, noise, rows):
    data = generate_kl_instance(M, n, seed=seed, density=density, noise=noise)
    f = kl_loss(data.A, data.b)
    gamma = 1.0 / f.smoothness
    prob = BregmanProblem(shannon_kernel(), f, zero_term(), gamma, n)
    ones = np.ones(n)
    y0 = prob.kernel.grad(ones) - gamma * f.grad(ones)
    return f, partial(run_guarded_aa_bpg, prob, y0, AA5, max_iters=rows)


def _logreg_case():
    data = generate_logreg_instance(200, 100, seed=0, cond=1e5)
    f = logistic_loss(data.A, data.b, mu=1e-5)
    return _guarded_pga(CompositeProblem(f, box_indicator(-20.0, 20.0), 100),
                        np.zeros(100), 400)


def _nnls_case():
    data = generate_nnls_instance(200, 100, seed=1, cond=1e3)
    f = least_squares_loss(data.A, data.b)
    return _guarded_pga(CompositeProblem(f, nonneg_indicator(), 100),
                        np.zeros(100), 1000)


def _csr_logreg_box_case():
    A = sparse.random(2000, 200, density=0.02, random_state=0, format="csr")
    b = np.random.default_rng(0).choice([-1.0, 1.0], size=2000)
    f = logistic_loss(A, b)
    return _guarded_pga(CompositeProblem(f, box_indicator(-1.0, 1.0), 200),
                        np.zeros(200), 200)


def _counterexample_case():
    # from outside the cycle's basin, where some candidates overshoot far
    # enough for their lower bound to fail the guard
    prob = CompositeProblem(PiecewiseLoss(), zero_term(), 1)
    return _guarded_pga(prob, np.array([-200.0]), 100,
                        AAConfig(m=5, reg_scale=0.0), STEP)


PROBE_CASES = {
    "logreg": _logreg_case,
    "nnls": _nnls_case,
    "kl_small": partial(_guarded_kl, 100, 50, 2, 1.0, 0.05, 1000),
    "kl_hard": partial(_guarded_kl, 500, 50, 3, 0.5, 0.1, 1000),
    "nonneg_lasso": lambda: _guarded_pga(*nonneg_lasso_case()[:2], 150),
    "counterexample": _counterexample_case,
    "csr_logreg_box": _csr_logreg_box_case,
}


class TestBoundProbe:
    """A candidate whose convex lower bound fails the guard skips f."""

    @pytest.mark.parametrize("name", sorted(PROBE_CASES))
    def test_a_decided_candidate_fails_the_guard_on_its_value(
            self, name, monkeypatch):
        probe = solvers._bound_rejects
        decided, probed = [], []

        def spy(*args):
            hit = probe(*args)
            probed.append(hit)
            if hit:
                decided.append(args)
            return hit

        monkeypatch.setattr(solvers, "_bound_rejects", spy)
        f, run = PROBE_CASES[name]()
        run()
        assert probed
        # every instance but logreg, whose candidates mostly descend, has
        # rejections the probe decides
        assert (name == "logreg") == (not decided)
        with np.errstate(over="ignore", invalid="ignore"):
            for guard, f_curr, grad, x_test, x_plain, x, gamma in decided:
                f_test = _value_or_inf(f, x_test)
                assert not guard(f_test, f_curr, grad, x_plain, x, gamma)

    @pytest.mark.parametrize("name", ["counterexample", "kl_hard",
                                      "nonneg_lasso"])
    def test_a_decided_candidate_asks_the_guard_once(self, name,
                                                     monkeypatch):
        # the probe's refusal of a number bound is the guard's answer on
        # the candidate's value, so the guard is not asked again at inf
        from aaprox import bregman

        probe = solvers._bound_rejects
        decided = []
        asked = 0

        def spy(*args):
            hit = probe(*args)
            decided.append(hit)
            return hit

        def counted(check):
            def guard(*args, **kwargs):
                nonlocal asked
                asked += 1
                return check(*args, **kwargs)
            return guard

        monkeypatch.setattr(solvers, "_bound_rejects", spy)
        monkeypatch.setattr(solvers, "descent_check",
                            counted(descent_check))
        monkeypatch.setattr(bregman, "bregman_descent_check",
                            counted(bregman.bregman_descent_check))
        _, run = PROBE_CASES[name]()
        rep = run()
        assert any(decided)
        # one ask per probe, one more per candidate the probe leaves open,
        # and in the Euclidean bracket one for the plain point of each
        # rejected row (every plain point here is finite)
        rejected = sum(kind in ("fallback", "damped")
                       for kind in rep.trace.step_kind)
        bracket = 0 if name == "kl_hard" else rejected
        assert asked == len(decided) + decided.count(False) + bracket

    @pytest.mark.parametrize("name", sorted(PROBE_CASES))
    def test_the_probe_changes_no_float(self, name, monkeypatch):
        _, run = PROBE_CASES[name]()
        ref = run()
        monkeypatch.setattr(solvers, "_bound_rejects", lambda *args: False)
        rep = run()
        assert rep.trace.objective == ref.trace.objective
        assert rep.trace.residual == ref.trace.residual
        assert rep.trace.step_kind == ref.trace.step_kind
        assert np.array_equal(rep.x, ref.x)

    @pytest.mark.parametrize("probing", [True, False],
                             ids=["probe", "no_probe"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan, -5.0],
                             ids=["inf", "nan", "domain"])
    def test_a_bad_candidate_falls_back_quietly(self, bad, probing,
                                                monkeypatch):
        # every extrapolated candidate gets one bad entry: inf, nan, or one
        # outside the loss's domain x >= -1. With the identity prox it
        # reaches f, so each row falls back to the plain step and the run
        # is run_pga's, whether the probe or f's value rejects it
        base = lasso_problem(seed=3)
        loss = DomainLoss(base.f)
        prob = CompositeProblem(loss, zero_term(), base.n)
        x0 = np.zeros(base.n)
        extrapolate = AndersonEngine.extrapolate

        def spoiled(engine):
            y_ext, coeffs = extrapolate(engine)
            if len(engine) < 2:  # the first step is plain
                return y_ext, coeffs
            y_bad = y_ext.copy()
            y_bad[0] = bad
            return y_bad, coeffs

        monkeypatch.setattr(AndersonEngine, "extrapolate", spoiled)
        if not probing:
            monkeypatch.setattr(solvers, "_bound_rejects",
                                lambda *args: False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = run_guarded_aa_pga(prob, x0, aa_config=AAConfig(m=3),
                                     max_iters=30)
        assert caught == []
        ref = run_pga(CompositeProblem(base.f, zero_term(), base.n), x0,
                      max_iters=30)
        assert rep.trace.step_kind == ["plain"] + ["fallback"] * 29
        assert rep.trace.objective == ref.trace.objective
        assert np.array_equal(rep.x, ref.x)
        # f is only asked at finite points; outside its domain it raises
        assert loss.nonfinite == 0
        assert (loss.domain_errors > 0) == (bad == -5.0)

class TestDescentGuard:
    """run_guarded_aa_pga's guard: descent_check, with ||grad f(x)||^2 of
    the gradient it is given."""

    def test_every_guard_call_reaches_descent_check(self, monkeypatch):
        f, run = _nnls_case()
        ref = run()

        # the guard run_guarded_aa_pga takes, and the module name it checks
        # through, which the benchmark tracer patches
        guarded, checked = [], []
        guard, check = solvers._descent_guard, solvers.descent_check

        def counted(*args):
            guarded.append(args[2])
            return guard(*args)

        def spy(*args):
            checked.append(args)
            return check(*args)

        monkeypatch.setattr(solvers, "_descent_guard", counted)
        monkeypatch.setattr(solvers, "descent_check", spy)
        rep = run()

        assert len(checked) == len(guarded) > 0
        for (_, _, grad_norm_sq, _), g in zip(checked, guarded):
            assert grad_norm_sq == float(g.dot(g))
        assert rep.trace.objective == ref.trace.objective
        assert rep.trace.residual == ref.trace.residual
        assert rep.trace.step_kind == ref.trace.step_kind
        assert np.array_equal(rep.x, ref.x)


def test_an_overflowing_first_step_ends_the_run_quietly():
    # the first step is plain, and its objective overflows: the run reports
    # it as degenerate instead of warning
    prob = lasso_problem(seed=17)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run_guarded_aa_pga(prob, np.full(prob.n, 1e200), max_iters=1)
    assert caught == []
    assert rep.termination == "degenerate"
    assert list(rep.trace.objective) == [np.inf]


@pytest.mark.parametrize("driver,rows", [(run_nesterov_pga, 95),
                                         (run_pga, 114)])
def test_divergence_stops_at_the_first_non_finite_objective(driver, rows):
    # a step 50 times too long: the loss overflows while the iterate is
    # still finite, and would give nan objectives from then on
    data = generate_nnls_instance(80, 40)
    f = least_squares_loss(data.A, data.b)
    prob = CompositeProblem(f, nonneg_indicator(), 40)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = driver(prob, np.ones(40), gamma=50.0 / f.smoothness,
                     max_iters=1000)
    assert rep.termination == "degenerate"
    assert rep.iterations == rows
    objective = np.array(rep.trace.objective)
    assert np.isfinite(objective[:-1]).all() and objective[-1] == np.inf
    assert np.isfinite(rep.x).all()


@pytest.mark.parametrize("driver,rows", [(run_nesterov_pga, 95),
                                         (run_pga, 114)])
def test_divergence_is_reported_without_a_warning(driver, rows):
    # the divergence above with no errstate of the caller's: the driver's
    # own keeps every row quiet, the overflowing last one included
    data = generate_nnls_instance(80, 40)
    f = least_squares_loss(data.A, data.b)
    prob = CompositeProblem(f, nonneg_indicator(), 40)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = driver(prob, np.ones(40), gamma=50.0 / f.smoothness,
                     max_iters=1000)
    assert caught == []
    assert rep.termination == "degenerate"
    assert rep.iterations == rows
    assert rep.trace.objective[-1] == np.inf


@pytest.mark.parametrize("driver", [run_pga, run_guarded_aa_pga,
                                    run_nesterov_pga])
def test_a_callers_underflow_errstate_does_not_reach_the_loop(driver):
    # a target near the smallest normal float: the loop's products and dots
    # underflow, which the caller's under="raise" would turn into a
    # FloatingPointError halfway through the run
    rng = np.random.default_rng(0)
    A = rng.standard_normal((20, 5))
    b = 1e-300 * rng.standard_normal(20)
    prob = CompositeProblem(least_squares_loss(A, b), zero_term(), 5)
    expected = driver(prob, np.zeros(5), max_iters=50)
    with np.errstate(under="raise"):
        rep = driver(prob, np.zeros(5), max_iters=50)
    assert rep.trace.objective == expected.trace.objective
    assert rep.trace.residual == expected.trace.residual
    assert np.array_equal(rep.x, expected.x)


def far_quadratic(scale, h=None, seed=23, n=6):
    """f(x) = scale q(x / scale) for a quadratic q near 1 in size: values,
    gradients and steps of the unit-scale problem, times a power of two.
    At scale 2^512 and above, x^T x overflows at every x of its runs."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    H = B.T @ B + np.eye(n)
    c = rng.standard_normal(n)
    L = float(np.linalg.eigvalsh(H)[-1])
    loss = QuadraticLoss(H / scale, scale * c, smoothness=L / scale)
    start = scale * (c + 1e-3 * rng.standard_normal(n))
    return CompositeProblem(loss, zero_term() if h is None else h, n), start


class TestFiniteIterates:
    """An iterate is tested for inf and nan with one dot, x^T x, and
    entry by entry only where that dot is not finite."""

    @pytest.mark.parametrize("driver", [run_pga, run_nesterov_pga])
    def test_an_iterate_whose_square_overflows_is_evaluated(self, driver):
        # entries near 1e200: a power-of-two scale keeps every float of the
        # unit-scale run, so each row is exactly 2^664 times its own
        scale = 2.0 ** 664
        unit, x0 = far_quadratic(1.0)
        far, x0_far = far_quadratic(scale)
        assert np.array_equal(x0_far, scale * x0)
        ref = driver(unit, x0, max_iters=30)
        rep = driver(far, x0_far, max_iters=30, keep_iterates=True)
        assert rep.termination == "max_iters"
        assert list(rep.trace.objective) == [scale * v for v in
                                             ref.trace.objective]
        assert np.array_equal(rep.x, scale * ref.x)
        with np.errstate(over="ignore"):
            assert all(x.dot(x) == np.inf for x in rep.trace.iterates)

    @pytest.mark.parametrize("h", [zero_term(), nonneg_indicator()],
                             ids=["zero", "nonneg"])
    def test_guarded_candidates_whose_square_overflows_are_evaluated(self,
                                                                     h):
        # at 2^512 the residuals still square to finite numbers, so the
        # engine proposes and the guard evaluates candidates of that size
        prob, x0 = far_quadratic(2.0 ** 512, h)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = run_guarded_aa_pga(prob, x0, aa_config=AAConfig(m=3),
                                     max_iters=40, keep_iterates=True)
        assert caught == []
        assert rep.termination == "max_iters"
        assert np.isfinite(rep.trace.objective).all()
        with np.errstate(over="ignore"):
            assert all(x.dot(x) == np.inf for x in rep.trace.iterates)
        if h.kind == "zero":
            assert "AA" in rep.trace.step_kind

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("driver", [run_pga, run_aa_pga,
                                        run_guarded_aa_pga, run_nesterov_pga])
    def test_a_non_finite_entry_ends_the_run_unevaluated(self, driver, bad):
        # from the fourth prox call on, one entry of each output is bad; f
        # is never asked its value there, and the row records inf
        base = quadratic_problem(seed=22)
        calls = []

        def prox(y, gamma):
            calls.append(1)
            if len(calls) < 4:
                return y
            out = y.copy()
            out[1] = bad
            return out

        h = NonsmoothTerm(value=lambda x: 0.0, prox=prox)
        prob = CompositeProblem(FiniteOnly(base.f), h, base.n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = driver(prob, np.ones(base.n), max_iters=50)
        assert caught == []
        assert rep.termination == "degenerate"
        assert np.isfinite(rep.trace.objective[:-1]).all()
        assert rep.trace.objective[-1] == np.inf
        assert np.array_equal(rep.x[1], bad, equal_nan=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("driver", [run_pga, run_aa_pga,
                                        run_guarded_aa_pga, run_nesterov_pga])
    def test_a_non_finite_start_ends_the_run_after_one_gradient(self, driver,
                                                                bad):
        # the first step is always taken; its output holds the bad entry,
        # so the run records one inf row, unevaluated, and ends quietly
        base = quadratic_problem(seed=25)
        loss = CountingLoss(base.f)
        prob = CompositeProblem(FiniteOnly(loss), base.h, base.n)
        x0 = np.ones(base.n)
        x0[2] = bad
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = driver(prob, x0, max_iters=10)
        assert caught == []
        assert rep.termination == "degenerate"
        assert rep.trace.step_kind == ["plain"]
        assert list(rep.trace.objective) == [np.inf]
        assert loss.values_per_row == [0]

    def test_value_or_inf_takes_the_exact_test_after_the_dot(self):
        # outside any errstate: the test itself warns about nothing
        prob, x0 = far_quadratic(2.0 ** 664)
        assert _value_or_inf(prob.f, x0) == prob.f.value(x0)
        for bad in (np.nan, np.inf, -np.inf):
            x = np.ones(prob.n)
            x[-1] = bad
            assert _value_or_inf(FiniteOnly(prob.f), x) == np.inf


@pytest.mark.parametrize("driver", [run_pga, run_aa_pga,
                                    run_guarded_aa_pga])
def test_the_first_step_is_taken_even_at_a_fixed_point(driver):
    # the stopping test starts at the second residual: the run records the
    # plain step from the minimiser, then stops on its zero residual
    base = quadratic_problem(seed=24)
    loss = CountingLoss(base.f)
    prob = CompositeProblem(loss, base.h, base.n)
    rep = driver(prob, base.f.center.copy(), tol=1e-8, max_iters=5)
    assert rep.termination == "tol"
    assert rep.trace.step_kind == ["plain"]
    assert len(loss.values_per_row) == 2  # one gradient per residual


@pytest.mark.parametrize("driver", [run_pga, run_nesterov_pga, run_aa_pga,
                                    run_guarded_aa_pga, run_bpg,
                                    run_guarded_aa_bpg])
def test_a_zero_budget_still_takes_the_first_step(driver):
    prob = lasso_problem(seed=19)
    x0 = np.ones(prob.n)
    gamma = 1.0 / prob.f.smoothness
    if driver in (run_bpg, run_guarded_aa_bpg):
        # the energy kernel's mirror map is the identity, so x0 is also y0
        run = partial(driver, BregmanProblem(energy_kernel(), prob.f, prob.h,
                                             gamma, prob.n), x0)
    else:
        run = partial(driver, prob, x0, gamma)
    rep, one = run(max_iters=0), run(max_iters=1)
    assert rep.trace.step_kind == ["plain"]
    assert rep.trace.objective == one.trace.objective
    assert np.array_equal(rep.x, one.x)


def projection_case(kind):
    """Logistic problems on which the guarded solver takes "AA", "damped"
    and "fallback" rows: over the orthant at mu = 0, over a box at
    mu = 0.1."""
    seed, mu, h = {"orthant": (0, 0.0, nonneg_indicator()),
                   "box": (1, 0.1, box_indicator(-0.2, 0.3))}[kind]
    data = generate_logreg_instance(100, 20, seed)
    f = logistic_loss(data.A, data.b, mu=mu)
    return CompositeProblem(f, h, 20), np.full(20, 0.5)


EUCLIDEAN_SOLVERS = [run_pga, run_aa_pga, run_guarded_aa_pga,
                     run_nesterov_pga]


class TestProjectionRows:
    """Rows of box and orthant runs record f alone, which is f + h."""

    @staticmethod
    def assert_rows_are_f_plus_h(prob, rep):
        assert len(rep.trace.iterates) == len(rep.trace) > 1
        for objective, x in zip(rep.trace.objective, rep.trace.iterates):
            assert prob.h.value(x) == 0.0
            assert objective == prob.f.value(x) + prob.h.value(x)

    @pytest.mark.parametrize("kind", ["orthant", "box"])
    @pytest.mark.parametrize("solve", EUCLIDEAN_SOLVERS,
                             ids=lambda d: d.__name__)
    def test_every_row_is_f_plus_h_at_a_point_of_the_set(self, kind, solve):
        prob, x0 = projection_case(kind)
        rep = solve(prob, x0, max_iters=150, keep_iterates=True)
        if solve is run_guarded_aa_pga:
            assert {"AA", "damped", "fallback"} <= set(rep.trace.step_kind)
        self.assert_rows_are_f_plus_h(prob, rep)

    @pytest.mark.parametrize("kind", ["orthant", "box"])
    @pytest.mark.parametrize("solve", [run_bpg, run_guarded_aa_bpg],
                             ids=lambda d: d.__name__)
    def test_energy_kernel_rows_too(self, kind, solve):
        prob, x0 = projection_case(kind)
        bp = BregmanProblem(energy_kernel(), prob.f, prob.h,
                            1.0 / prob.f.smoothness, prob.n)
        rep = solve(bp, x0, max_iters=150, keep_iterates=True)
        if solve is run_guarded_aa_bpg:
            assert {"AA", "fallback"} <= set(rep.trace.step_kind)
        self.assert_rows_are_f_plus_h(prob, rep)

    @pytest.mark.parametrize("kind, per_row", [
        ("box", 0), ("nonneg", 0), ("custom", 1)])
    @pytest.mark.parametrize("solve", EUCLIDEAN_SOLVERS,
                             ids=lambda d: d.__name__)
    def test_h_value_is_called_only_outside_the_projection_kinds(
            self, kind, per_row, solve):
        prob, x0 = projection_case("box")
        calls = []

        def value(x):
            calls.append(x)
            return prob.h.value(x)

        h = NonsmoothTerm(value=value, prox=prob.h.prox, kind=kind)
        rep = solve(CompositeProblem(prob.f, h, prob.n), x0, max_iters=40)
        assert len(calls) == per_row * len(rep.trace)

    @pytest.mark.parametrize("h", [nonneg_indicator(),
                                   box_indicator(0.0, np.inf)],
                             ids=["orthant", "half_infinite_box"])
    @pytest.mark.parametrize("solve", EUCLIDEAN_SOLVERS,
                             ids=lambda d: d.__name__)
    def test_a_non_finite_prox_output_still_ends_the_run(self, h, solve):
        # h is skipped, but a first step that overflows to an infinite prox
        # output still records inf and ends the run, quietly
        data = generate_nnls_instance(80, 40)
        f = least_squares_loss(data.A, data.b)
        prob = CompositeProblem(f, h, 40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = solve(prob, np.full(40, -1e300), gamma=1e10 / f.smoothness,
                         max_iters=50, keep_iterates=True)
        assert caught == []
        assert rep.termination == "degenerate"
        assert list(rep.trace.objective) == [np.inf]
        assert np.isinf(rep.trace.iterates[0]).any()


class TestRunNesterovPga:
    def test_default_momentum_schedule(self):
        # beta_1 = 0 so the first step must be the plain step
        prob = lasso_problem(seed=15)
        x0 = np.ones(prob.n)
        r = run_nesterov_pga(prob, x0, max_iters=1, keep_iterates=True)
        assert_allclose(r.trace.iterates[0],
                        pga_step(prob, x0, r.gamma))

    def test_converges_on_lasso(self):
        prob = lasso_problem(seed=16)
        rep = run_nesterov_pga(prob, np.zeros(prob.n), tol=1e-11,
                               max_iters=5000)
        assert rep.termination == "tol"
        assert_allclose(pga_step(prob, rep.x, rep.gamma), rep.x, atol=1e-9)


class TestIterationTrace:
    def test_records_all_columns(self):
        tr = IterationTrace(keep_iterates=True)
        tr.record(1.5, 0.2, "AA", 0.01, x=np.array([1.0]))
        tr.record(1.2, 0.1, "fallback", 0.02, x=np.array([0.5]))
        assert len(tr) == 2
        assert list(tr.objective) == [1.5, 1.2]
        assert tr.step_kind == ["AA", "fallback"]
        assert len(tr.iterates) == 2

    def test_iterates_dropped_when_not_kept(self):
        tr = IterationTrace(keep_iterates=False)
        tr.record(1.0, 0.1, "plain", 0.0, x=np.array([1.0]))
        assert tr.iterates == []


def six_drivers(gamma):
    """Each driver's run at step gamma on a small nnls problem, by name;
    the Bregman drivers take gamma from their problem."""
    prob = CompositeProblem(least_squares_loss(np.eye(3), np.ones(3)),
                            nonneg_indicator(), 3)
    mirror = BregmanProblem(energy_kernel(), prob.f, prob.h, gamma, 3)
    x0 = np.zeros(3)
    return {
        "pga": lambda: run_pga(prob, x0, gamma),
        "aa_pga": lambda: run_aa_pga(prob, x0, gamma),
        "guarded_aa_pga": lambda: run_guarded_aa_pga(prob, x0, gamma),
        "nesterov": lambda: run_nesterov_pga(prob, x0, gamma),
        "bpg": lambda: run_bpg(mirror, x0),
        "guarded_aa_bpg": lambda: run_guarded_aa_bpg(mirror, x0),
    }


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("driver", sorted(six_drivers(1.0)))
def test_every_driver_refuses_a_step_not_positive_and_finite(driver, gamma):
    # a zero or negative step used to stop on "tol" at a non-optimal point,
    # nan and inf on "degenerate"
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        six_drivers(gamma)[driver]()


@pytest.mark.parametrize("driver", sorted(six_drivers(0.5)))
def test_trace_float_columns_are_float64_buffers(driver):
    trace = six_drivers(0.5)[driver]().trace
    for column in (trace.objective, trace.residual, trace.elapsed):
        assert memoryview(column).format == "d"


def test_a_trace_row_keeps_at_most_40_bytes():
    # three doubles and one step-kind pointer are 32 bytes; a float object
    # per value would add 72 more
    rows = 20000
    # the second coordinate shrinks by 1 - 1e-6 a row, never reaching 0
    prob = CompositeProblem(QuadraticLoss(np.diag([1.0, 1e-6])),
                            zero_term(), 2)
    tracemalloc.start()
    try:
        trace = run_pga(prob, np.ones(2), max_iters=rows).trace
        held = tracemalloc.get_traced_memory()[0]
        assert len(trace) == rows
        del trace
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 24 * rows <= freed <= 40 * rows, freed / rows


@pytest.mark.parametrize("driver", [run_pga, run_aa_pga, run_guarded_aa_pga,
                                    run_nesterov_pga])
def test_a_zero_smoothness_leaves_no_default_step(driver):
    # 1/L used to raise ZeroDivisionError
    prob = CompositeProblem(QuadraticLoss(np.zeros((3, 3))), zero_term(), 3)
    assert prob.f.smoothness == 0.0
    with pytest.raises(ValueError, match="L of the loss is 0.*gamma"):
        driver(prob, np.ones(3))


def test_all_drivers_agree_on_an_easy_problem():
    prob = quadratic_problem(seed=17)
    x0 = np.full(prob.n, 2.0)
    target = prob.f.center
    for runner in (run_pga, run_nesterov_pga):
        rep = runner(prob, x0, tol=1e-12, max_iters=20000)
        assert_allclose(rep.x, target, atol=1e-8)
    rep = run_aa_pga(prob, x0, aa_config=AAConfig(m=4), tol=1e-12,
                     max_iters=20000)
    assert_allclose(rep.x, target, atol=1e-8)
    rep = run_guarded_aa_pga(prob, x0, aa_config=AAConfig(m=4), tol=1e-12,
                             max_iters=20000)
    assert_allclose(rep.x, target, atol=1e-8)


def reference_nesterov_pga(problem, x0, gamma=None, tol=0.0, max_iters=1000,
                           keep_iterates=False):
    """run_nesterov_pga as it was when momentum had a loop of its own."""
    gamma = _step_size(problem.f, gamma)
    start = time.perf_counter()
    projected = problem.h.kind in PROJECTION_KINDS
    x = np.asarray(x0, dtype=float)
    x_prev = x
    trace = IterationTrace(keep_iterates)
    termination = "max_iters"

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        # the first step is always taken
        for k in range(1, max(max_iters, 1) + 1):
            z = x - x_prev
            z *= (k - 1.0) / (k + 2.0)
            z += x
            step = gamma * problem.f.grad(z)
            np.subtract(z, step, out=step)
            x_next = problem.h.prox(step, gamma)
            rn = _norm(x_next - x) / gamma
            x_prev, x = x, x_next
            if not _finite(x):
                objective = np.inf
            elif projected:  # x is a prox output, so h(x) = 0
                objective = float(problem.f.value(x))
            else:
                objective = problem.objective(x)
            finite = math.isfinite(objective)
            trace.record(objective if finite else np.inf, rn, "plain",
                         time.perf_counter() - start, x)
            if not finite:
                termination = "degenerate"
                break
            if _stop(rn, x, tol):
                termination = "tol"
                break

    return SolveReport(x, trace, termination, gamma)


def permuted(A, b, seed):
    if seed == 0:
        return A, b
    rng = np.random.default_rng(seed)
    rows, cols = rng.permutation(A.shape[0]), rng.permutation(A.shape[1])
    return A[rows][:, cols], b[rows]


def momentum_case(name, seed=0):
    """(problem, x0, gamma): the benchmark's small logreg and nnls problems
    with its row and column permutation, an nnls step 50 times too long,
    60 x 30 least squares under each term, and an overflowing quadratic."""
    if name == "logreg":
        data = generate_logreg_instance(200, 100, seed=0, cond=1e5)
        A, y = permuted(data.A, data.b, seed)
        loss = logistic_loss(A, y, mu=1e-5)
        term = box_indicator(-20.0, 20.0)
    elif name == "nnls":
        data = generate_nnls_instance(200, 100, seed=1, cond=1e3)
        A, b = permuted(data.A, data.b, seed)
        loss, term = least_squares_loss(A, b), nonneg_indicator()
    elif name == "divergent":
        data = generate_nnls_instance(80, 40)
        loss = least_squares_loss(data.A, data.b)
        prob = CompositeProblem(loss, nonneg_indicator(), 40)
        return prob, np.ones(40), 50.0 / loss.smoothness
    elif name == "overflow":
        loss = QuadraticLoss(np.diag([1.0, 2.0, 3.0]), np.ones(3))
        return CompositeProblem(loss, zero_term(), 3), np.zeros(3), 1e308
    else:
        rng = np.random.default_rng(5)
        loss = least_squares_loss(rng.standard_normal((60, 30)),
                                  rng.standard_normal(60))
        term = {"l1": l1_term(0.1), "box": box_indicator(-0.1, 0.1),
                "zero": zero_term(), "nonneg": nonneg_indicator()}[name]
    n = loss.n
    return CompositeProblem(loss, term, n), np.zeros(n), 1.0 / loss.smoothness


# A loss that carries its product takes z's product as p(x) + beta (p(x) -
# p(x_prev)), not as p(z), so its momentum runs differ from the reference in
# the last bits; they are held to this relative bound, about 4500 float64
# eps.
CARRIED_RTOL = 1e-12


def assert_near(got, expected, scale):
    """|got - expected| <= CARRIED_RTOL * scale entry by entry, with an
    infinite entry of expected matched exactly."""
    got, expected = np.asarray(got), np.asarray(expected)
    finite = np.isfinite(expected)
    assert (got[~finite] == expected[~finite]).all()
    bound = CARRIED_RTOL * np.broadcast_to(scale, expected.shape)[finite]
    assert (np.abs(got[finite] - expected[finite]) <= bound).all()


class TestMomentumMatchesItsOwnLoop:
    """run_nesterov_pga runs on the shared loop; its step kinds, row count,
    termination and gamma are those of the loop it had. Its objectives,
    residuals, iterates and x are that loop's bit for bit where the loss
    has no product to carry, and within CARRIED_RTOL where it has one."""

    @staticmethod
    def assert_same(prob, x0, gamma, **options):
        got = run_nesterov_pga(prob, x0, gamma, keep_iterates=True, **options)
        ref = reference_nesterov_pga(prob, x0, gamma, keep_iterates=True,
                                     **options)
        assert got.trace.step_kind == ref.trace.step_kind
        assert len(got.trace.iterates) == len(ref.trace.iterates)
        assert got.termination == ref.termination
        assert got.gamma == ref.gamma
        if not hasattr(prob.f, "set_product"):
            assert got.trace.objective == ref.trace.objective
            assert got.trace.residual == ref.trace.residual
            for a, b in zip(got.trace.iterates, ref.trace.iterates):
                assert a.tobytes() == b.tobytes()
            assert got.x.tobytes() == ref.x.tobytes()
            return got
        # objectives relative to themselves; iterates and x relative to
        # their largest entry; a residual ||x_k+1 - x_k|| / gamma relative to
        # the larger of the two iterates it differences, since its rounding
        # comes from theirs
        objective = np.array(ref.trace.objective)
        assert_near(got.trace.objective, objective, np.abs(objective))
        size = [np.abs(x0).max()]
        for a, b in zip(got.trace.iterates, ref.trace.iterates):
            size.append(np.abs(b).max())
            assert_near(a, b, size[-1])
        assert_near(got.trace.residual, ref.trace.residual,
                    np.maximum(size[:-1], size[1:]) / gamma)
        assert_near(got.x, ref.x, size[-1])
        return got

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name", ["logreg", "nnls"])
    def test_benchmark_problems_over_a_fixed_budget(self, name, seed):
        rep = self.assert_same(*momentum_case(name, seed), max_iters=2000)
        assert rep.termination == "max_iters"

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name", ["logreg", "nnls"])
    def test_benchmark_problems_to_a_tolerance(self, name, seed):
        rep = self.assert_same(*momentum_case(name, seed), tol=1e-8,
                               max_iters=20000)
        assert rep.termination == "tol"

    @pytest.mark.parametrize("name", ["divergent", "overflow"])
    def test_a_run_that_ends_degenerate(self, name):
        rep = self.assert_same(*momentum_case(name), max_iters=1000)
        assert rep.termination == "degenerate"
        assert rep.iterations == {"divergent": 95, "overflow": 1}[name]

    @pytest.mark.parametrize("name", ["l1", "box", "zero", "nonneg"])
    def test_each_term_to_a_tolerance(self, name):
        rep = self.assert_same(*momentum_case(name), tol=1e-9,
                               max_iters=100000)
        assert rep.termination == "tol"

    @pytest.mark.parametrize("name", ["l1", "box", "zero"])
    def test_a_zero_budget_from_a_negative_zero_start(self, name):
        prob, x0, gamma = momentum_case(name)
        rep = self.assert_same(prob, np.full_like(x0, -0.0), gamma,
                               max_iters=0)
        assert rep.iterations == 1


class TestMomentumCarriesTheProduct:
    """N momentum rows on a loss that exposes its product take N + 1
    products: one at x0 and one at each row's x_next, which the row's
    objective takes; the product at z is formed from the last two."""

    ROWS = 40

    def test_normal_route_takes_one_symmetric_product_per_row(
            self, monkeypatch):
        calls = []
        symv = problems._symmetric_product

        def counted(x, Q):
            calls.append(x)
            return symv(x, Q)

        # before the loss is built, whose memo holds the function
        monkeypatch.setattr(problems, "_symmetric_product", counted)
        prob, x0, gamma = momentum_case("nnls")
        assert prob.f._normal is not None
        calls.clear()  # Lanczos, for L
        rep = run_nesterov_pga(prob, x0, gamma, max_iters=self.ROWS)
        assert rep.iterations == self.ROWS
        assert len(calls) == self.ROWS + 1

    @pytest.mark.parametrize("name", ["logreg", "nnls"])
    def test_csr_losses_take_one_product_with_A_per_row(self, name):
        prob, x0, gamma = momentum_case(name)
        f = prob.f
        A = CountingCsr(f.A)
        if name == "logreg":
            loss = logistic_loss(A, f.y, mu=f.mu)
        else:
            loss = least_squares_loss(A, f.b)
            assert loss._normal is None
        A.forward = 0  # Lanczos, for L
        rep = run_nesterov_pga(CompositeProblem(loss, prob.h, prob.n), x0,
                               gamma, max_iters=self.ROWS)
        assert rep.iterations == self.ROWS
        assert A.forward == self.ROWS + 1


class DistinctPoints:
    """A loss that keeps each distinct point passed to its value or grad,
    by object identity; the points are held, so no id is reused."""

    def __init__(self, loss):
        self.loss, self.smoothness = loss, loss.smoothness
        self.points = {}

    def value(self, x):
        self.points[id(x)] = x
        return self.loss.value(x)

    def grad(self, x):
        self.points[id(x)] = x
        return self.loss.grad(x)


class TestOneProductPerDistinctPoint:
    """pga, aa and guarded runs take exactly one product per distinct point
    that the loop passes to f.value or f.grad. A guarded row evaluates its
    candidate and its plain point, so its loss must remember two points at
    once; plain and aa rows need only one."""

    ROWS = 500
    DRIVERS = {"pga": run_pga,
               "aa": partial(run_aa_pga, aa_config=AAConfig(m=5)),
               "guarded": partial(run_guarded_aa_pga,
                                  aa_config=AAConfig(m=5))}

    def run(self, driver, prob, loss, x0, gamma):
        counted = DistinctPoints(loss)
        rep = self.DRIVERS[driver](CompositeProblem(counted, prob.h, prob.n),
                                   x0, gamma, tol=0.0, max_iters=self.ROWS)
        assert rep.iterations == self.ROWS
        points = len(counted.points)
        # plain and aa rows each pass one new point after the start; only
        # guarded rows pass more, their candidates, and need a second slot
        assert (points > self.ROWS + 1) == (driver == "guarded")
        return points

    @pytest.mark.parametrize("driver", list(DRIVERS))
    @pytest.mark.parametrize("name", ["logreg", "nnls"])
    def test_csr_losses(self, name, driver):
        # logistic and residual-route least squares: products with A
        prob, x0, gamma = momentum_case(name)
        f = prob.f
        A = CountingCsr(f.A)
        if name == "logreg":
            loss = logistic_loss(A, f.y, mu=f.mu)
        else:
            loss = least_squares_loss(A, f.b)
            assert loss._normal is None
        A.forward = 0  # Lanczos, for L
        points = self.run(driver, prob, loss, x0, gamma)
        assert A.forward == points

    @pytest.mark.parametrize("driver", list(DRIVERS))
    def test_normal_route(self, monkeypatch, driver):
        # dense least squares: symmetric products with A^T A
        calls = []
        symv = problems._symmetric_product
        monkeypatch.setattr(problems, "_symmetric_product",
                            lambda x, Q: calls.append(x) or symv(x, Q))
        prob, x0, gamma = momentum_case("nnls")
        assert prob.f._normal is not None
        calls.clear()  # Lanczos, for L
        points = self.run(driver, prob, prob.f, x0, gamma)
        assert len(calls) == points


@pytest.mark.parametrize("driver", [run_pga, run_aa_pga, run_guarded_aa_pga,
                                    run_nesterov_pga])
def test_a_term_without_a_euclidean_prox_is_refused_before_any_gradient(
        driver):
    # the drivers used to call the missing prox after a gradient and raise
    # TypeError; run_bpg under the energy kernel gives this same error
    f = least_squares_loss(np.eye(3), np.ones(3))
    prob = CompositeProblem(f, simplex_indicator(), 3)
    calls = []
    f.grad = lambda x: calls.append(x)
    with pytest.raises(UnsupportedProxError,
                       match="^term 'simplex' has no Euclidean proximal map$"):
        driver(prob, np.full(3, 1.0 / 3.0))
    assert calls == []
    mirror = BregmanProblem(energy_kernel(),
                            least_squares_loss(np.eye(3), np.ones(3)),
                            prob.h, 1.0, 3)
    with pytest.raises(UnsupportedProxError,
                       match="^term 'simplex' has no Euclidean proximal map$"):
        run_bpg(mirror, np.full(3, 1.0 / 3.0))
