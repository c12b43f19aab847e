"""Mirror-map kernels, Bregman distances, entropy proximal maps, and the
Bregman proximal gradient drivers."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.optimize import minimize

from aaprox import bregman
from aaprox.anderson import AAConfig
from aaprox.bregman import (
    BregmanProblem,
    Kernel,
    UnsupportedProxError,
    bpg_step,
    bregman_descent_check,
    bregman_distance,
    bregman_prox,
    burg_kernel,
    energy_kernel,
    fermi_dirac_kernel,
    hellinger_kernel,
    polynomial_kernel,
    run_bpg,
    run_guarded_aa_bpg,
    shannon_kernel,
)
from aaprox.datasets import generate_kl_instance
from aaprox.problems import (
    CompositeProblem,
    DomainError,
    box_indicator,
    kl_loss,
    l1_term,
    least_squares_loss,
    simplex_indicator,
    zero_term,
)
from aaprox.solvers import pga_step, run_guarded_aa_pga, run_pga


def interior_sampler(name):
    samplers = {
        "energy": lambda r, k: r.standard_normal(k),
        "shannon": lambda r, k: r.uniform(0.05, 5.0, k),
        "burg": lambda r, k: r.uniform(0.05, 5.0, k),
        "fermi_dirac": lambda r, k: r.uniform(0.05, 0.95, k),
        "hellinger": lambda r, k: r.uniform(-0.95, 0.95, k),
        "polynomial": lambda r, k: r.standard_normal(k),
    }
    return samplers[name]


ALL_KERNELS = [energy_kernel(), shannon_kernel(), burg_kernel(),
               fermi_dirac_kernel(), hellinger_kernel(), polynomial_kernel(2.0)]


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_conjugate_gradient_inverts_gradient(kernel):
    rng = np.random.default_rng(0)
    sample = interior_sampler(kernel.name)
    for _ in range(100):
        x = sample(rng, 6)
        x_back = kernel.conj_grad(kernel.grad(x))
        assert np.max(np.abs(x_back - x)) <= 1e-10


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_gradient_matches_central_difference(kernel):
    rng = np.random.default_rng(1)
    sample = interior_sampler(kernel.name)
    x = sample(rng, 5)
    h = 1e-6
    fd = np.zeros(5)
    for i in range(5):
        e = np.zeros(5)
        e[i] = h
        fd[i] = (kernel.value(x + e) - kernel.value(x - e)) / (2 * h)
    assert_allclose(kernel.grad(x), fd, atol=1e-6)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_distance_nonnegative_and_zero_at_equal_points(kernel):
    rng = np.random.default_rng(2)
    sample = interior_sampler(kernel.name)
    for _ in range(50):
        x = sample(rng, 4)
        y = sample(rng, 4)
        assert bregman_distance(kernel, x, y) >= -1e-13
    x = sample(rng, 4)
    assert abs(bregman_distance(kernel, x, x)) <= 1e-15


class TestKernelDomains:
    def test_shannon(self):
        k = shannon_kernel()
        assert k.value(np.array([0.0, 1.0])) == 0.0  # 0 log 0 = 0
        with pytest.raises(DomainError):
            k.value(np.array([-0.1]))
        with pytest.raises(DomainError):
            k.grad(np.array([0.0]))
        assert_allclose(k.conj_grad(np.array([1.0])), [1.0])

    def test_shannon_value_on_a_positive_point_is_the_plain_sum(self):
        x = np.random.default_rng(31).uniform(0.05, 5.0, 200)
        assert shannon_kernel().value(x) == float(np.sum(x * np.log(x)))

    def test_shannon_value_with_exact_zeros_is_the_masked_sum(self):
        x = np.random.default_rng(32).uniform(0.05, 5.0, 200)
        x[::7] = 0.0
        pos = x > 0
        terms = np.zeros_like(x)
        terms[pos] = x[pos] * np.log(x[pos])  # 0 log 0 = 0
        assert shannon_kernel().value(x) == float(np.sum(terms))
        assert shannon_kernel().value(np.zeros(5)) == 0.0

    def test_shannon_value_on_nan_and_empty_points(self):
        # a nan hides the sign of the other entries from min(): a negative
        # one is still refused, and otherwise the nan drops out of the
        # masked sum, as with the entrywise tests
        k = shannon_kernel()
        with pytest.raises(DomainError):
            k.value(np.array([np.nan, -1.0, 2.0]))
        assert k.value(np.array([np.nan, 0.0, 2.0])) == 2.0 * np.log(2.0)
        assert k.value(np.array([])) == 0.0

    def test_shannon_domain_checks_hold_on_long_points(self):
        k = shannon_kernel()
        x = np.linspace(0.5, 2.0, 100)
        x[37] = -1e-300
        with pytest.raises(DomainError):
            k.value(x)
        x[37] = 0.0
        with pytest.raises(DomainError):
            k.grad(x)

    def test_burg(self):
        k = burg_kernel()
        with pytest.raises(DomainError):
            k.value(np.array([0.0]))
        with pytest.raises(DomainError):
            k.grad(np.array([-1.0]))
        with pytest.raises(DomainError):
            k.conj_grad(np.array([0.5]))
        assert_allclose(k.conj_grad(np.array([-2.0])), [0.5])

    def test_fermi_dirac(self):
        k = fermi_dirac_kernel()
        assert k.value(np.array([0.0, 1.0])) == 0.0
        with pytest.raises(DomainError):
            k.value(np.array([1.1]))
        with pytest.raises(DomainError):
            k.grad(np.array([1.0]))
        assert_allclose(k.conj_grad(np.array([0.0])), [0.5])

    def test_hellinger(self):
        k = hellinger_kernel()
        assert_allclose(k.value(np.array([0.0])), -1.0)
        with pytest.raises(DomainError):
            k.value(np.array([1.5]))
        with pytest.raises(DomainError):
            k.grad(np.array([1.0]))
        # the image approaches +-1 for huge inputs but stays strictly inside
        big = k.conj_grad(np.array([1e300, -1e300]))
        assert_allclose(big, [1.0, -1.0], rtol=1e-12)
        assert np.all(np.abs(big) < 1.0)
        k.grad(big)  # must not raise

    def test_shannon_image_stays_positive_under_underflow(self):
        k = shannon_kernel()
        tiny = k.conj_grad(np.array([-1e4]))
        assert np.all(tiny > 0.0)
        k.grad(tiny)  # must not raise

    def test_fermi_image_stays_interior_for_huge_inputs(self):
        k = fermi_dirac_kernel()
        vals = k.conj_grad(np.array([1e4, -1e4]))
        assert np.all((vals > 0.0) & (vals < 1.0))
        k.grad(vals)  # must not raise


class TestPolynomialKernel:
    def test_rejects_negative_curvature(self):
        for alpha in (-1.0, np.nan):
            with pytest.raises(ValueError, match="alpha must be nonnegative"):
                polynomial_kernel(alpha)

    def test_rejects_infinite_curvature(self):
        # inf alpha would make every value inf * 0 = nan at x = 0
        with pytest.raises(ValueError,
                           match="alpha must be nonnegative and finite"):
            polynomial_kernel(np.inf)

    def test_conjugate_matches_cubic_root_oracle(self):
        rng = np.random.default_rng(3)
        for alpha in (0.0, 0.5, 3.0):
            k = polynomial_kernel(alpha)
            for _ in range(20):
                y = rng.standard_normal(4) * float(rng.random() * 10 + 0.1)
                s = np.linalg.norm(y)
                roots = np.roots([1.0, 0.0, alpha, -s])
                real = roots[np.abs(roots.imag) < 1e-9].real
                t_ref = float(real[real >= 0][0])
                assert_allclose(k.conj_grad(y), y * (t_ref / s),
                                rtol=1e-10, atol=1e-12)

    def test_small_mirror_point_round_trips(self):
        # ||y|| far below 1: the root test must be relative to ||y||
        k = polynomial_kernel(1e-6)
        y = 1e-12 * np.array([1.0, -2.0, 0.5])
        assert_allclose(k.grad(k.conj_grad(y)), y, rtol=1e-14, atol=0.0)

    def test_zero_maps_to_zero(self):
        k = polynomial_kernel(1.5)
        assert_allclose(k.conj_grad(np.zeros(3)), np.zeros(3))
        assert_allclose(k.grad(np.zeros(3)), np.zeros(3))


class TestBregmanDistance:
    def test_energy_is_half_squared_distance(self):
        rng = np.random.default_rng(4)
        k = energy_kernel()
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        assert_allclose(bregman_distance(k, x, y),
                        0.5 * np.sum((x - y) ** 2), rtol=1e-14)

    def test_shannon_hand_value(self):
        # phi(1) = 0, phi(e) = e, grad phi(e) = 2: D = 0 - e - 2 (1 - e) = e - 2
        k = shannon_kernel()
        d = bregman_distance(k, np.array([1.0]), np.array([np.e]))
        assert_allclose(d, np.e - 2.0, rtol=1e-14)

    @pytest.mark.parametrize("kernel,conjugate", [
        (energy_kernel(), lambda y: 0.5 * float(np.dot(y, y))),
        (shannon_kernel(), lambda y: float(np.sum(np.exp(y - 1.0)))),
    ], ids=["energy", "shannon"])
    def test_distance_to_dual_point_via_conjugate(self, kernel, conjugate):
        # D_phi(x, grad phi*(y)) = phi(x) + phi*(y) - <x, y>
        rng = np.random.default_rng(5)
        sample = interior_sampler(kernel.name)
        for _ in range(20):
            x = sample(rng, 4)
            y = rng.standard_normal(4)
            lhs = bregman_distance(kernel, x, kernel.conj_grad(y))
            rhs = kernel.value(x) + conjugate(y) - float(np.dot(x, y))
            assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


class TestBregmanProx:
    def test_zero_term_returns_the_point(self):
        u = np.array([0.3, 0.8])
        for k in ALL_KERNELS:
            assert_allclose(bregman_prox(zero_term(), k, 0.7, u), u)

    def test_energy_kernel_delegates_to_euclidean_prox(self):
        u = np.array([2.0, -0.3, 0.6])
        got = bregman_prox(l1_term(0.5), energy_kernel(), 1.0, u)
        assert_allclose(got, [1.5, 0.0, 0.1])

    def test_entropy_scaling_for_l1(self):
        u = np.array([1.0, 2.0, 0.5])
        got = bregman_prox(l1_term(0.3), shannon_kernel(), 0.7, u)
        assert_allclose(got, u * np.exp(-0.21), rtol=1e-15)

    def test_entropy_normalization_for_simplex(self):
        u = np.array([1.0, 3.0])
        got = bregman_prox(simplex_indicator(), shannon_kernel(), 0.7, u)
        assert_allclose(got, [0.25, 0.75], rtol=1e-15)

    def test_entropy_l1_minimizes_the_model(self):
        rng = np.random.default_rng(6)
        k = shannon_kernel()
        h = l1_term(0.4)
        for _ in range(20):
            u = rng.uniform(0.1, 4.0, 4)
            gamma = float(rng.random() + 0.2)
            x = bregman_prox(h, k, gamma, u)
            base = gamma * h.value(x) + bregman_distance(k, x, u)
            for _ in range(10):
                z = x * np.exp(0.2 * rng.standard_normal(4))
                cand = gamma * h.value(z) + bregman_distance(k, z, u)
                assert base <= cand + 1e-12

    def test_entropy_simplex_minimizes_the_model(self):
        rng = np.random.default_rng(7)
        k = shannon_kernel()
        h = simplex_indicator()
        for _ in range(20):
            u = rng.uniform(0.1, 4.0, 4)
            gamma = float(rng.random() + 0.2)
            x = bregman_prox(h, k, gamma, u)
            assert abs(x.sum() - 1.0) <= 1e-12
            base = bregman_distance(k, x, u)
            for _ in range(10):
                z = rng.dirichlet(np.ones(4))
                assert base <= bregman_distance(k, z, u) + 1e-12

    def test_unsupported_pairs_raise(self):
        with pytest.raises(UnsupportedProxError):
            bregman_prox(box_indicator(0.0, 1.0), shannon_kernel(), 1.0,
                         np.array([0.5]))
        with pytest.raises(UnsupportedProxError):
            bregman_prox(l1_term(0.1), burg_kernel(), 1.0, np.array([0.5]))
        with pytest.raises(UnsupportedProxError):
            bregman_prox(simplex_indicator(), energy_kernel(), 1.0,
                         np.array([0.5]))

    def test_entropy_prox_requires_positive_points(self):
        with pytest.raises(DomainError):
            bregman_prox(l1_term(0.1), shannon_kernel(), 1.0,
                         np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            bregman_prox(simplex_indicator(), shannon_kernel(), 1.0,
                         np.array([-0.5, 2.0]))


def kl_problem(seed=0, M=30, n=8, h=None):
    rng = np.random.default_rng(seed)
    A = rng.random((M, n))
    x_true = rng.uniform(0.5, 2.0, n)
    b = A @ x_true
    f = kl_loss(A, b)
    h = zero_term() if h is None else h
    return BregmanProblem(shannon_kernel(), f, h, 1.0 / f.smoothness, n)


def test_objective_adds_the_loss_and_the_term():
    prob = kl_problem(seed=21, h=l1_term(0.3))
    x = np.linspace(0.5, 1.5, prob.n)
    assert prob.objective(x) == prob.f.value(x) + prob.h.value(x)
    assert_allclose(prob.objective(x) - prob.f.value(x), 0.3 * x.sum(),
                    rtol=1e-15)


def test_bpg_step_energy_kernel_equals_pga_step():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((20, 6))
    b = rng.standard_normal(20)
    f = least_squares_loss(A, b)
    comp = CompositeProblem(f, l1_term(0.1), 6)
    gamma = 1.0 / f.smoothness
    bp = BregmanProblem(energy_kernel(), f, comp.h, gamma, 6)
    x = rng.standard_normal(6)
    _, x_next = bpg_step(bp, x)
    assert np.array_equal(x_next, pga_step(comp, x, gamma))


def test_descent_check_examples_with_energy_kernel():
    k = energy_kernel()
    x = np.array([0.0])
    x_plain = np.array([1.0])
    grad = np.array([2.0])
    # bound = 5 + 2*1 + 0.5/0.5 = 8
    assert bregman_descent_check(7.9, 5.0, grad, x_plain, x, 0.5, k)
    assert bregman_descent_check(8.0, 5.0, grad, x_plain, x, 0.5, k)
    assert not bregman_descent_check(8.1, 5.0, grad, x_plain, x, 0.5, k)
    assert not bregman_descent_check(np.inf, 5.0, grad, x_plain, x, 0.5, k)


def test_descent_check_rejects_stagnation_when_decrease_is_predicted():
    # bound = 5 - 0.2 + 0.01 = 4.81 < f_curr, so an unchanged objective fails
    k = energy_kernel()
    x = np.array([0.0])
    x_plain = np.array([-0.1])
    grad = np.array([2.0])
    assert not bregman_descent_check(5.0, 5.0, grad, x_plain, x, 0.5, k)


def test_plain_step_always_passes_its_own_surrogate():
    prob = kl_problem(seed=9)
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = rng.uniform(0.2, 3.0, prob.n)
        _, x_plain = bpg_step(prob, x)
        ok = bregman_descent_check(prob.f.value(x_plain), prob.f.value(x),
                                   prob.f.grad(x), x_plain, x,
                                   prob.gamma, prob.kernel)
        assert ok


class TestRunBpg:
    def test_energy_kernel_reproduces_pga_exactly(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((40, 15))
        b = rng.standard_normal(40)
        f = least_squares_loss(A, b)
        comp = CompositeProblem(f, l1_term(0.05), 15)
        gamma = 1.0 / f.smoothness
        bp = BregmanProblem(energy_kernel(), f, comp.h, gamma, 15)
        x0 = rng.standard_normal(15)
        rp = run_pga(comp, x0, gamma, max_iters=200)
        rb = run_bpg(bp, x0, max_iters=200)
        assert np.array_equal(rp.x, rb.x)
        assert rp.trace.objective == rb.trace.objective

    def test_linear_loss_gives_multiplicative_weights(self):
        class LinearLoss:
            def __init__(self, c):
                self.c = np.asarray(c, dtype=float)
                self.smoothness = 1.0
            def value(self, x):
                return float(np.dot(self.c, x))
            def grad(self, x):
                return self.c

        c = np.array([0.5, -0.2, 1.0])
        gamma = 0.3
        bp = BregmanProblem(shannon_kernel(), LinearLoss(c), zero_term(),
                            gamma, 3)
        x0 = np.array([1.0, 2.0, 0.5])
        rep = run_bpg(bp, x0, max_iters=5, keep_iterates=True)
        x = x0.copy()
        for k in range(5):
            x = x * np.exp(-gamma * c)
            assert_allclose(rep.trace.iterates[k], x, rtol=1e-14)

    def test_objective_monotone_on_consistent_fit(self):
        prob = kl_problem(seed=12)
        rep = run_bpg(prob, np.ones(prob.n), max_iters=1500)
        obj = np.array(rep.trace.objective)
        assert np.all(np.diff(obj) <= 1e-12)
        assert obj[-1] < 1e-6  # consistent data: optimum value zero

    def test_tol_termination(self):
        prob = kl_problem(seed=13)
        rep = run_bpg(prob, np.ones(prob.n), tol=1e-10, max_iters=100000)
        assert rep.termination == "tol"


    @pytest.mark.parametrize("entry", [0.0, -0.0, -1e-300, -1.0])
    def test_refuses_a_start_outside_the_open_orthant(self, entry):
        # the loop's mirror map under the Shannon kernel has no domain
        # check of its own; it relies on this one
        base = kl_problem(seed=13)
        calls = []

        class Loss:
            smoothness = base.f.smoothness

            def value(self, x):
                calls.append("value")
                return base.f.value(x)

            def grad(self, x):
                calls.append("grad")
                return base.f.grad(x)

        prob = BregmanProblem(shannon_kernel(), Loss(), base.h, base.gamma,
                              base.n)
        x0 = np.ones(prob.n)
        x0[3] = entry
        with pytest.raises(DomainError):
            run_bpg(prob, x0, max_iters=10)
        assert calls == []


class TestRunGuardedAaBpg:
    def test_a_start_outside_the_conjugate_domain_raises_first(self):
        # Burg's conjugate gradient -1/y needs y < 0, so y0 = 0 is refused
        # by the map back to x, before any gradient of f is taken
        base = kl_problem(seed=14)
        calls = []

        class Loss:
            smoothness = base.f.smoothness

            def value(self, x):
                calls.append("value")
                return base.f.value(x)

            def grad(self, x):
                calls.append("grad")
                return base.f.grad(x)

        prob = BregmanProblem(burg_kernel(), Loss(), base.h, base.gamma,
                              base.n)
        with pytest.raises(DomainError):
            run_guarded_aa_bpg(prob, np.zeros(prob.n), AAConfig(m=3))
        assert calls == []

    def test_default_config_is_depth_five(self):
        prob = kl_problem(seed=15)
        y0 = prob.kernel.grad(np.ones(prob.n))
        ra = run_guarded_aa_bpg(prob, y0, max_iters=60)
        rb = run_guarded_aa_bpg(prob, y0, AAConfig(m=5), max_iters=60)
        assert "AA" in ra.trace.step_kind
        assert np.array_equal(ra.x, rb.x)
        assert ra.trace.objective == rb.trace.objective
        assert ra.trace.step_kind == rb.trace.step_kind

    def test_overflowing_candidates_are_rejected_without_a_warning(self):
        # criterion 10's kl_hard data with no Tikhonov term: some candidates
        # overflow the KL value; the guard rejects them as inf, quietly
        data = generate_kl_instance(500, 50, seed=3, density=0.5)
        f = kl_loss(data.A, data.b)
        prob = BregmanProblem(shannon_kernel(), f, zero_term(),
                              1.0 / f.smoothness, 50)
        y0 = prob.kernel.grad(np.ones(50))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = run_guarded_aa_bpg(prob, y0, AAConfig(m=5, reg_scale=0.0),
                                     max_iters=3000)
        assert rep.termination == "max_iters"
        assert np.isfinite(rep.trace.objective).all()
        assert "fallback" in rep.trace.step_kind

    def test_depth_zero_tracks_plain_bpg(self):
        # y0 seeds the guarded run; its proximal image is the primal start,
        # so handing that image to run_bpg aligns the two recursions exactly.
        prob = kl_problem(seed=15)
        y0 = prob.kernel.grad(np.ones(prob.n))
        x_start = bregman_prox(prob.h, prob.kernel, prob.gamma,
                               prob.kernel.conj_grad(y0))
        ra = run_guarded_aa_bpg(prob, y0, AAConfig(m=0), max_iters=200)
        rb = run_bpg(prob, x_start, max_iters=200)
        assert np.array_equal(ra.x, rb.x)
        assert ra.trace.objective == rb.trace.objective
        assert ra.trace.residual == rb.trace.residual

    def test_accepted_steps_satisfy_the_surrogate_inequality(self):
        prob = kl_problem(seed=16, M=60, n=10)
        x0 = np.ones(prob.n)
        y0 = prob.kernel.grad(x0) - prob.gamma * prob.f.grad(x0)
        rep = run_guarded_aa_bpg(prob, y0, AAConfig(m=4), max_iters=400,
                                 keep_iterates=True)
        xs = rep.trace.iterates
        checked = 0
        for k in range(1, len(xs)):
            if rep.trace.step_kind[k] != "AA":
                continue
            ok = bregman_descent_check(
                prob.f.value(xs[k]), prob.f.value(xs[k - 1]),
                prob.f.grad(xs[k - 1]), bpg_step(prob, xs[k - 1])[1],
                xs[k - 1], prob.gamma, prob.kernel)
            assert ok
            checked += 1
        assert checked > 0  # the run must actually extrapolate

    def test_objective_never_increases(self):
        prob = kl_problem(seed=17, M=50, n=12)
        x0 = np.ones(prob.n)
        y0 = prob.kernel.grad(x0) - prob.gamma * prob.f.grad(x0)
        rep = run_guarded_aa_bpg(prob, y0, AAConfig(m=5), max_iters=500)
        obj = np.array(rep.trace.objective)
        assert np.all(np.diff(obj) <= 1e-12)

    def test_beats_plain_bpg_on_iterations_to_tolerance(self):
        prob = kl_problem(seed=18, M=80, n=12)
        y0 = prob.kernel.grad(np.ones(prob.n))
        x_start = bregman_prox(prob.h, prob.kernel, prob.gamma,
                               prob.kernel.conj_grad(y0))
        ra = run_guarded_aa_bpg(prob, y0, AAConfig(m=5), tol=1e-9,
                                max_iters=20000)
        rb = run_bpg(prob, x_start, tol=1e-9, max_iters=20000)
        assert ra.termination == "tol"
        assert ra.iterations <= rb.iterations

    def test_energy_kernel_matches_the_euclidean_guarded_run(self):
        # with no nonsmooth term the surrogate bound collapses to the
        # euclidean acceptance threshold, so the two drivers coincide.
        # Near the float floor the two bound evaluations can disagree by an
        # ulp, so stop while the residual still dominates rounding noise.
        rng = np.random.default_rng(21)
        A = rng.standard_normal((30, 10))
        b = rng.standard_normal(30)
        f = least_squares_loss(A, b)
        comp = CompositeProblem(f, zero_term(), 10)
        gamma = 1.0 / f.smoothness
        bp = BregmanProblem(energy_kernel(), f, comp.h, gamma, 10)
        x0 = rng.standard_normal(10)
        re_ = run_guarded_aa_pga(comp, x0, gamma, AAConfig(m=5),
                                 tol=1e-6, max_iters=300)
        rb = run_guarded_aa_bpg(bp, x0, AAConfig(m=5), tol=1e-6,
                                max_iters=300)
        assert re_.termination == rb.termination == "tol"
        assert rb.trace.step_kind == re_.trace.step_kind
        assert "AA" in rb.trace.step_kind
        assert_allclose(rb.x, re_.x, rtol=1e-12, atol=1e-15)
        assert_allclose(rb.trace.objective, re_.trace.objective, rtol=1e-12)
        assert_allclose(rb.trace.residual, re_.trace.residual, rtol=1e-12)

    def test_guard_reuses_the_steps_kernel_maps(self):
        # per row: grad phi once (the mirror map; the guard reuses it), and
        # phi(x) is skipped after a fallback, where x is the x_plain whose
        # phi the previous row's guard already worked out
        base = kl_problem(seed=16, M=60, n=10)
        shannon = shannon_kernel()
        rows = []

        def counted(key, fn):
            def call(x):
                rows[-1][key] += 1
                return fn(x)
            return call

        class RowLoss:
            smoothness = base.f.smoothness

            def value(self, x):
                return base.f.value(x)

            def grad(self, x):  # called once, first, on every row
                rows.append({"value": 0, "grad": 0})
                return base.f.grad(x)

        kernel = Kernel("shannon", counted("value", shannon.value),
                        counted("grad", shannon.grad), shannon.conj_grad)
        prob = BregmanProblem(kernel, RowLoss(), base.h, base.gamma, base.n)
        x0 = np.ones(prob.n)
        y0 = shannon.grad(x0) - prob.gamma * base.f.grad(x0)
        kinds = run_guarded_aa_bpg(prob, y0, AAConfig(m=4),
                                   max_iters=150).trace.step_kind
        assert len(rows) == len(kinds) == 150
        assert all(row["grad"] == 1 for row in rows)
        pairs = set()
        for k, kind in enumerate(kinds):
            if kind == "plain":
                expected = 0
            else:  # guarded: phi(x_plain), then phi(x) unless remembered
                expected = 1 if kinds[k - 1] == "fallback" else 2
                pairs.add((kinds[k - 1], kind))
            assert rows[k]["value"] == expected, (k, kind)
        assert {("fallback", "fallback"), ("AA", "fallback"),
                ("fallback", "AA")} <= pairs

    def test_simplex_constrained_run_stays_feasible(self):
        rng = np.random.default_rng(19)
        A = rng.random((25, 6))
        x_true = rng.dirichlet(np.ones(6))
        b = A @ x_true
        f = kl_loss(A, b)
        prob = BregmanProblem(shannon_kernel(), f, simplex_indicator(),
                              1.0 / f.smoothness, 6)
        x0 = np.full(6, 1.0 / 6.0)
        y0 = prob.kernel.grad(x0) - prob.gamma * prob.f.grad(x0)
        rep = run_guarded_aa_bpg(prob, y0, AAConfig(m=4), max_iters=300,
                                 keep_iterates=True)
        for x in rep.trace.iterates:
            assert abs(x.sum() - 1.0) <= 1e-9
            assert np.all(x > 0.0)
        assert rep.trace.objective[-1] <= 1e-6


class PoissonLoss:
    """The Poisson likelihood sum(A x) - b . log(A x), smooth relative to
    Burg's kernel with L = ||b||_1 (Bauschke, Bolte & Teboulle 2017)."""

    def __init__(self, A, b):
        self.A, self.b = A, b
        self.smoothness = float(b.sum())

    def value(self, x):
        u = self.A @ x
        if (u <= 0).any():
            raise DomainError("A x must be positive")
        return float(u.sum() - self.b.dot(np.log(u)))

    def grad(self, x):
        return self.A.T @ (1.0 - self.b / (self.A @ x))


class TestBurgPoisson:
    """Guarded extrapolation under Burg's kernel, whose conjugate gradient
    needs y < 0: an extrapolated mirror point outside that domain is a
    rejected candidate, not an error."""

    @staticmethod
    def instance(M=200, n=50, seed=0):
        # A uniform on [0, 1), a half-sparse planted x in [0.5, 2], and
        # Poisson counts b
        rng = np.random.default_rng(seed)
        A = rng.random((M, n))
        x = np.zeros(n)
        support = rng.choice(n, size=n // 2, replace=False)
        x[support] = rng.uniform(0.5, 2.0, support.size)
        return PoissonLoss(A, rng.poisson(A @ x).astype(float))

    def test_guarded_run_rejects_out_of_domain_candidates(self):
        f = self.instance()
        n = f.A.shape[1]
        burg = burg_kernel()
        refused = 0

        def conj_grad(y):
            nonlocal refused
            try:
                return burg.conj_grad(y)
            except DomainError:
                refused += 1
                raise

        kernel = Kernel("burg", burg.value, burg.grad, conj_grad)
        prob = BregmanProblem(kernel, f, zero_term(), 1.0 / f.smoothness, n)
        x0 = np.ones(n)
        y0 = kernel.grad(x0)
        rows = 2000
        guarded = run_guarded_aa_bpg(prob, y0, AAConfig(m=5), max_iters=rows)
        plain = run_bpg(prob, x0, max_iters=rows)
        assert len(guarded.trace) == rows
        assert refused > 0
        assert "AA" in guarded.trace.step_kind
        objective = guarded.trace.objective
        assert all(b <= a for a, b in zip(objective, objective[1:]))

        ref = minimize(lambda x: (f.value(x), f.grad(x)), x0, jac=True,
                       method="L-BFGS-B", bounds=[(1e-12, None)] * n,
                       options={"maxiter": 100000, "maxfun": 100000,
                                "ftol": 1e-16, "gtol": 1e-12})
        scale = max(1.0, abs(ref.fun))
        gap = (objective[-1] - ref.fun) / scale
        plain_gap = (plain.trace.objective[-1] - ref.fun) / scale
        assert 0 < gap <= plain_gap / 10

    def test_depth_zero_is_run_bpg(self):
        f = self.instance()
        n = f.A.shape[1]
        prob = BregmanProblem(burg_kernel(), f, zero_term(),
                              1.0 / f.smoothness, n)
        rep = run_guarded_aa_bpg(prob, -np.ones(n), AAConfig(m=0),
                                 max_iters=300)
        ref = run_bpg(prob, np.ones(n), max_iters=300)
        assert rep.trace.objective == ref.trace.objective
        assert rep.trace.residual == ref.trace.residual
        assert rep.trace.step_kind == ref.trace.step_kind
        assert np.array_equal(rep.x, ref.x)


class TestInteriorShannonPath:
    """With shannon_kernel's own maps and h = 0, the loop maps x and y
    through the unchecked _shannon_mirror and _shannon_primal; a kernel
    whose fields wrap the same maps takes the checked path."""

    @staticmethod
    def wrapped_shannon():
        k = shannon_kernel()
        return Kernel("shannon", lambda x: k.value(x), lambda x: k.grad(x),
                      lambda y: k.conj_grad(y))

    def test_only_the_packages_own_maps_with_h_zero_run_unchecked(self):
        def mirror(kernel, h):
            return bregman._geometry(kernel, h)[0]

        shannon = shannon_kernel()
        assert mirror(shannon, zero_term()) is bregman._shannon_mirror
        wrapped = self.wrapped_shannon()
        assert mirror(wrapped, zero_term()) is wrapped.grad
        for h in (l1_term(0.1), simplex_indicator()):
            assert mirror(shannon, h) is shannon.grad

    @staticmethod
    def instance(case):
        if case == "readme":
            data = generate_kl_instance(80, 30, seed=1)
            return data.A, data.b
        rng = np.random.default_rng(29)
        A = rng.random((40, 12))
        if case == "zero_row":
            A[[3, 17]] = 0.0
        if case == "csr":
            A[A < 0.5] = 0.0
        # a planted point with zeros and enough noise that the live-support
        # mask engages within the runs below
        x_true = np.where(rng.random(12) < 0.4, 0.0, rng.uniform(0.5, 2.0, 12))
        b = (A @ x_true + 0.01) * np.exp(0.3 * rng.standard_normal(40))
        return (sparse.csr_matrix(A) if case == "csr" else A), b

    @pytest.mark.parametrize("case", ["all_live", "zero_row", "csr",
                                      "readme"])
    def test_interior_path_is_the_checked_path_bit_for_bit(self, case):
        A, b = self.instance(case)
        f = kl_loss(A, b)
        n = A.shape[1]
        x0 = np.ones(n)
        reports = []
        for kernel in (shannon_kernel(), self.wrapped_shannon()):
            prob = BregmanProblem(kernel, f, zero_term(), 1.0 / f.smoothness,
                                  n)
            y0 = kernel.grad(x0) - prob.gamma * f.grad(x0)
            reports.append((run_bpg(prob, x0, max_iters=400),
                            run_guarded_aa_bpg(prob, y0, AAConfig(m=5),
                                               max_iters=400)))
        for interior, checked in zip(*reports):
            assert interior.trace.objective == checked.trace.objective
            assert interior.trace.residual == checked.trace.residual
            assert interior.trace.step_kind == checked.trace.step_kind
            assert interior.termination == checked.termination
            assert (interior.x == checked.x).all()
        kinds = reports[0][1].trace.step_kind
        assert "AA" in kinds and "fallback" in kinds

    def test_the_guard_reuses_the_interior_mirror(self, monkeypatch):
        # one mirror map per row: the guard's grad phi(x) is the step's
        prob = kl_problem(seed=16, M=60, n=10)
        y0 = prob.kernel.grad(np.ones(prob.n))
        calls = []
        original = bregman._shannon_mirror

        def mirror(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(bregman, "_shannon_mirror", mirror)
        kinds = run_guarded_aa_bpg(prob, y0, AAConfig(m=4),
                                   max_iters=150).trace.step_kind
        assert len(calls) == len(kinds) == 150
        assert "AA" in kinds and "fallback" in kinds

    @pytest.mark.parametrize("y0", [-700.0, -720.0, -800.0])
    def test_a_callers_underflow_errstate_does_not_reach_the_run(self, y0):
        # the README instance from a start whose x underflows towards 0:
        # the mask's threshold 1e-8 max x and the KL products underflow
        data = generate_kl_instance(80, 30, seed=1)
        f = kl_loss(data.A, data.b)
        prob = BregmanProblem(shannon_kernel(), f, zero_term(),
                              1.0 / f.smoothness, 30)
        start = np.full(30, y0)
        expected = run_guarded_aa_bpg(prob, start, AAConfig(m=5),
                                      max_iters=500)
        with np.errstate(under="raise"):
            rep = run_guarded_aa_bpg(prob, start, AAConfig(m=5),
                                     max_iters=500)
        assert rep.trace.objective == expected.trace.objective
        assert rep.trace.step_kind == expected.trace.step_kind
        assert np.array_equal(rep.x, expected.x)
