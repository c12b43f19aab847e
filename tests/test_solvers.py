"""Proximal gradient drivers: steps, guards, traces, and stopping."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from aaprox import problems
from aaprox.anderson import AAConfig
from aaprox.counterexample import STEP, grad_f, value_f
from aaprox.datasets import generate_logreg_instance, generate_nnls_instance
from aaprox.bregman import (
    BregmanProblem,
    energy_kernel,
    run_bpg,
    run_guarded_aa_bpg,
)
from aaprox.problems import (
    CompositeProblem,
    DomainError,
    NonsmoothTerm,
    QuadraticLoss,
    box_indicator,
    l1_term,
    least_squares_loss,
    logistic_loss,
    nonneg_indicator,
    zero_term,
)
from aaprox.solvers import (
    IterationTrace,
    descent_check,
    pga_step,
    run_aa_pga,
    run_guarded_aa_pga,
    run_nesterov_pga,
    run_pga,
)


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

    def test_matches_plain_when_every_candidate_is_rejected(self):
        # an m_alpha bound of ~1 forces the pure fixed-point weights, so the
        # extrapolated candidate equals the plain step and the run follows
        # plain PGA up to floating point identity
        prob = lasso_problem(seed=10)
        cfg = AAConfig(m=4, m_alpha=1.0 + 1e-12)
        r1 = run_guarded_aa_pga(prob, np.zeros(prob.n), aa_config=cfg,
                                max_iters=100)
        r2 = run_pga(prob, np.zeros(prob.n), max_iters=100)
        assert_allclose(r1.x, r2.x, atol=1e-12)

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
        guarded, _ = guarded_and_plain(geometry, prob, np.zeros(prob.n),
                                       1.0 / prob.f.smoothness, AAConfig(m=4),
                                       max_iters=80, keep_iterates=True)
        plains = guarded.trace.aux["x_plain"]
        assert len(plains) == len(guarded.trace) == 80
        assert plains[0] is None
        kinds = guarded.trace.step_kind
        assert "AA" in kinds and "fallback" in kinds
        for kind, x, x_plain in zip(kinds[1:], guarded.trace.iterates[1:],
                                    plains[1:]):
            assert x_plain is not None
            if kind == "fallback":
                assert np.array_equal(x, x_plain)

    def test_degenerate_row_keeps_its_plain_point(self, geometry):
        # a step ten times too long diverges until the objective overflows
        prob = quadratic_problem(seed=21)
        with np.errstate(over="ignore", invalid="ignore"):
            guarded, _ = guarded_and_plain(geometry, prob, np.ones(prob.n),
                                           10.0 / prob.f.smoothness,
                                           AAConfig(m=0), max_iters=5000,
                                           keep_iterates=True)
        assert guarded.termination == "degenerate"
        plains = guarded.trace.aux["x_plain"]
        assert len(plains) == len(guarded.trace) == len(guarded.trace.iterates)
        # the run stops on the first infinite objective, at a finite iterate
        assert np.isfinite(guarded.trace.objective[:-1]).all()
        assert guarded.trace.objective[-1] == np.inf
        assert plains[-1] is guarded.trace.iterates[-1]
        assert np.isfinite(plains[-1]).all()


class CycleLoss:
    """The cycling counterexample as a 1-d smooth loss."""

    smoothness = 1.0 / STEP

    def value(self, x):
        return float(value_f(x[0]))

    def grad(self, x):
        return np.atleast_1d(grad_f(x))


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
    dense A, A x on the residual route. Both go through problems._product,
    which a loss binds when it is built.
    """
    made = []
    product = problems._product

    def counted(x, A):
        made.append(1)
        return product(x, A)

    monkeypatch.setattr(problems, "_product", counted)
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


@pytest.mark.parametrize("config", [AAConfig(m=0),
                                    AAConfig(m=4, m_alpha=1.0 + 1e-12)],
                         ids=["m0", "m_alpha_reset"])
@pytest.mark.parametrize("driver", ["aa_pga", "guarded_aa_pga",
                                    "guarded_aa_bpg"])
def test_plain_weights_take_the_plain_step(driver, config):
    # every step's weights are (1, 0, ..., 0): at depth 0 by construction,
    # under m_alpha = 1 + 1e-12 because every proposal on this lasso has a
    # negative weight. Each step is then exactly the plain one, at its cost
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
    return descent_check(prob.f.value(rep.trace.aux["x_plain"][k]),
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
            assert not np.array_equal(xs[k], rep.trace.aux["x_plain"][k])

    @pytest.mark.parametrize("case", [cycle_case, nonneg_lasso_case])
    def test_bregman_guard_never_damps(self, case):
        prob, x0, gamma, cfg = case()
        bp = BregmanProblem(energy_kernel(), prob.f, prob.h, gamma, prob.n)
        rep = run_guarded_aa_bpg(bp, x0, cfg, max_iters=150)
        assert "fallback" in rep.trace.step_kind
        assert "damped" not in rep.trace.step_kind

    def test_oracle_cost_per_row(self):
        # near the solution the plain step fails the guard at the active
        # bounds, so most rejections make no retry and cost what they cost
        # without one: the candidate's value and the plain point's
        base, x0, gamma, cfg = nonneg_lasso_case()
        counting = CountingLoss(base.f)
        prob = CompositeProblem(counting, base.h, base.n)
        rep = run_guarded_aa_pga(prob, x0, gamma, cfg, max_iters=150,
                                 keep_iterates=True)
        costs = counting.values_per_row
        assert len(costs) == len(rep.trace) == 150
        seen = set()
        for k, (kind, cost) in enumerate(zip(rep.trace.step_kind, costs)):
            if kind == "fallback":
                kind = ("tried" if plain_passes(base, rep, k)
                        else "fallback")
            expected = {"plain": 1, "AA": 1, "fallback": 2, "tried": 3,
                        "damped": 3}[kind]
            assert cost == expected, (k, kind)
            seen.add(kind)
        assert seen == {"plain", "AA", "fallback", "tried", "damped"}

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


def test_only_candidate_evaluations_are_quiet_on_overflow():
    # the first step is plain, and its objective overflows in the open
    prob = lasso_problem(seed=17)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run_guarded_aa_pga(prob, np.full(prob.n, 1e200), max_iters=1)
    assert any("overflow" in str(w.message) for w in caught)
    assert not np.isfinite(rep.trace.objective[0])


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
        tr.record(1.5, 0.2, "AA", 0.01, x=np.array([1.0]), x_plain=None)
        tr.record(1.2, 0.1, "fallback", 0.02, x=np.array([0.5]),
                  x_plain=np.array([0.6]))
        assert len(tr) == 2
        assert tr.objective == [1.5, 1.2]
        assert tr.step_kind == ["AA", "fallback"]
        assert len(tr.aux["x_plain"]) == 2

    def test_iterates_dropped_when_not_kept(self):
        tr = IterationTrace(keep_iterates=False)
        tr.record(1.0, 0.1, "plain", 0.0, x=np.array([1.0]))
        assert tr.iterates == []


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
