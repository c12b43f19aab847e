"""Loss functions, proximal maps, and the composite container."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from aaprox.anderson import AAConfig
from aaprox.problems import (
    CompositeProblem,
    DomainError,
    KlLoss,
    LeastSquaresLoss,
    LogisticLoss,
    QuadraticLoss,
    box_indicator,
    kl_loss,
    l1_term,
    least_squares_loss,
    logistic_loss,
    nonneg_indicator,
    operator_norm_sq,
    prox_l1,
    project_box,
    project_nonneg,
    simplex_indicator,
    zero_term,
)
from aaprox.solvers import run_guarded_aa_pga


def central_difference(value, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (value(x + e) - value(x - e)) / (2.0 * h)
    return g


class CountingMatrix:
    """Dense matrix wrapper that counts forward products."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        self.shape = self.A.shape
        self.forward = 0

    def __matmul__(self, x):
        self.forward += 1
        return self.A @ x

    @property
    def T(self):
        return self.A.T

    def sum(self, axis=None):
        return self.A.sum(axis=axis)

    def __lt__(self, other):
        return self.A < other


class CountingArray(np.ndarray):
    """A dense ndarray that counts the products A @ x made on it."""

    def __array_finalize__(self, obj):
        self.forward = 0

    def __matmul__(self, x):
        self.forward += 1
        return np.asarray(self) @ x


class CountingCsr(sparse.csr_matrix):
    """A CSR matrix that counts the products A @ x made on it."""

    forward = 0

    def __matmul__(self, x):
        self.forward += 1
        return super().__matmul__(x)


class TestLogisticLoss:
    def test_value_at_origin_is_log_two(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 4))
        y = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        f = logistic_loss(A, y)
        assert_allclose(f.value(np.zeros(4)), np.log(2.0), rtol=1e-15)

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((15, 5))
        y = np.where(rng.random(15) < 0.5, -1.0, 1.0)
        for mu in (0.0, 0.05):
            f = logistic_loss(A, y, mu=mu)
            x = rng.standard_normal(5)
            assert_allclose(f.grad(x), central_difference(f.value, x),
                            atol=1e-7)

    def test_huge_margins_do_not_overflow(self):
        A = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 1.0])
        f = logistic_loss(A, y)
        v = f.value(np.array([2000.0]))
        # one sample has margin -2000 (loss ~ 0), the other +2000 (loss ~ 2000)
        assert np.isfinite(v)
        assert_allclose(v, 1000.0, rtol=1e-12)
        assert np.all(np.isfinite(f.grad(np.array([2000.0]))))

    def test_rejects_bad_labels(self):
        A = np.ones((3, 2))
        with pytest.raises(ValueError):
            logistic_loss(A, np.array([0.0, 1.0, -1.0]))

    def test_ridge_term_enters_value_and_grad(self):
        A = np.ones((4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        f0 = logistic_loss(A, y, mu=0.0)
        f1 = logistic_loss(A, y, mu=0.5)
        x = np.array([1.0, -2.0])
        assert_allclose(f1.value(x) - f0.value(x), 0.5 * 5.0)
        assert_allclose(f1.grad(x) - f0.grad(x), 1.0 * x)

    def test_default_smoothness_uses_design_norm(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((20, 6))
        top = np.linalg.svd(A, compute_uv=False)[0] ** 2
        for mu in (0.0, 0.3):
            f = logistic_loss(A, np.ones(20), mu=mu)
            assert_allclose(f.smoothness, top / (4 * 20) + 2 * mu,
                            rtol=1e-12)


class TestLeastSquaresLoss:
    def test_value_and_gradient(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        b = np.array([1.0, 0.0, 2.0])
        f = least_squares_loss(A, b)
        x = np.array([1.0, 1.0])
        r = A @ x - b
        assert_allclose(f.value(x), np.dot(r, r) / 6.0)
        assert_allclose(f.grad(x), A.T @ r / 3.0)

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((10, 4))
        b = rng.standard_normal(10)
        f = least_squares_loss(A, b, mu=0.01)
        x = rng.standard_normal(4)
        assert_allclose(f.grad(x), central_difference(f.value, x), atol=1e-7)

    def test_default_smoothness(self):
        # the largest Hessian eigenvalue, ridge term included
        rng = np.random.default_rng(4)
        A = rng.standard_normal((9, 3))
        for mu in (0.0, 0.25):
            f = least_squares_loss(A, np.zeros(9), mu=mu)
            top = np.linalg.eigvalsh(A.T @ A / 9 + 2 * mu * np.eye(3))[-1]
            assert_allclose(f.smoothness, top, rtol=1e-12)

    def test_normal_matrix_route_matches_the_residual_formula(self):
        rng = np.random.default_rng(5)
        M, n = 40, 15
        A = rng.standard_normal((M, n))
        b = rng.standard_normal(M)
        eps = np.finfo(float).eps
        for mu in (0.0, 0.3):
            f = least_squares_loss(A, b, mu=mu)
            for x in (rng.standard_normal(n), np.linalg.lstsq(A, b)[0]):
                r = A @ x - b
                ridge = mu * np.dot(x, x)
                quad, lin = x @ (A.T @ (A @ x)), (A.T @ b) @ x
                terms = (quad + 2 * abs(lin) + b @ b) / (2 * M)
                assert abs(f.value(x) - (r @ r / (2 * M) + ridge)) <= (
                    64 * eps * (terms + ridge))
                # elementwise, the rounding bound of A^T (A x - b)
                scale = np.abs(A).T @ (np.abs(A) @ np.abs(x) + np.abs(b)) / M
                grad = A.T @ r / M + 2 * mu * x
                assert np.all(np.abs(f.grad(x) - grad)
                              <= 64 * eps * (scale + 2 * mu * np.abs(x)))

    @pytest.mark.parametrize("shape, fmt, products", [
        ((12, 5), "dense", 0), ((5, 12), "dense", 1), ((12, 5), "csr", 1)],
        ids=["tall_dense", "wide_dense", "tall_csr"])
    def test_route_by_storage_and_shape(self, shape, fmt, products):
        # tall dense A takes the normal-matrix route and never multiplies
        # by A after construction; CSR and wide dense A take the residual
        # route, one product A @ x per point
        rng = np.random.default_rng(6)
        dense = rng.standard_normal(shape)
        A = (dense.view(CountingArray) if fmt == "dense"
             else CountingCsr(dense))
        f = least_squares_loss(A, rng.standard_normal(shape[0]))
        before = A.forward
        x = rng.standard_normal(shape[1])
        f.value(x)
        f.grad(x)
        assert A.forward - before == products

    def test_consistent_fit_with_a_large_target_stays_nonnegative(self):
        # b = A x_true with ||b||^2 / 2M about 5.6e5: near the fit the three
        # terms of the normal-matrix value cancel, and without the residual
        # fallback the objective went down to -6e-10
        rng = np.random.default_rng(2)
        A = rng.standard_normal((300, 100))
        b = A @ (100.0 * rng.random(100) + 50.0)
        prob = CompositeProblem(least_squares_loss(A, b), nonneg_indicator(),
                                100)
        rep = run_guarded_aa_pga(prob, np.zeros(100),
                                 aa_config=AAConfig(m=5), tol=0.0,
                                 max_iters=3000)
        assert min(rep.trace.objective) >= 0.0


class TestKlLoss:
    def test_hand_checked_value_and_gradient(self):
        f = kl_loss(np.array([[1.0]]), np.array([1.0]))
        x = np.array([np.e])
        # e log e - e + 1 = 1
        assert_allclose(f.value(x), 1.0, rtol=1e-14)
        assert_allclose(f.grad(x), [1.0], rtol=1e-14)

    def test_zero_rows_contribute_their_target_mass(self):
        A = np.array([[1.0], [0.0]])
        b = np.array([2.0, 3.0])
        f = kl_loss(A, b)
        x = np.array([2.0])
        # first row: 2 log 1 - 2 + 2 = 0; zero row contributes b = 3
        assert_allclose(f.value(x), 3.0)
        assert_allclose(f.grad(x), [0.0], atol=1e-15)

    @pytest.mark.parametrize("fmt", ["dense", "csr", "csc", "coo"])
    def test_zero_row_among_live_rows_matches_the_masked_formula(self, fmt):
        rng = np.random.default_rng(12)
        A = rng.random((7, 3))
        A[2] = 0.0
        b = rng.random(7) + 0.5
        mat = A if fmt == "dense" else sparse.coo_matrix(A).asformat(fmt)
        f = kl_loss(mat, b)
        x = rng.random(3) + 0.5
        live = np.arange(7) != 2
        u = A @ x
        ratio = np.zeros(7)
        ratio[live] = np.log(u[live] / b[live])
        value = np.sum(u[live] * ratio[live] - u[live] + b[live]) + b[2]
        assert_allclose(f.value(x), value, rtol=1e-15)
        assert_allclose(f.grad(x), A.T @ ratio, rtol=1e-15, atol=1e-15)

    def test_domain_check_skips_only_the_zero_rows(self):
        A = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                      [0.3, 0.7, 0.2], [0.0, 0.5, 1.0]])
        f = kl_loss(A, np.ones(4))
        x = np.array([1.0, 1.0, 1.0])  # (A x)_1 = 0 on the zero row only
        assert np.isfinite(f.value(x))
        assert np.all(np.isfinite(f.grad(x)))
        on_boundary = np.array([0.0, 1.0, 1.0])  # (A x)_0 = 0 on a live row
        with pytest.raises(DomainError):
            f.value(on_boundary)
        with pytest.raises(DomainError):
            f.grad(on_boundary)

    def test_boundary_point_raises(self):
        f = kl_loss(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(DomainError):
            f.value(np.array([0.0]))
        with pytest.raises(DomainError):
            f.grad(np.array([0.0]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kl_loss(np.array([[1.0]]), np.array([0.0]))
        with pytest.raises(ValueError):
            kl_loss(np.array([[-1.0]]), np.array([1.0]))

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(5)
        A = rng.random((8, 3))
        b = rng.random(8) + 0.5
        f = kl_loss(A, b)
        x = rng.random(3) + 0.5
        assert_allclose(f.grad(x), central_difference(f.value, x), atol=1e-6)

    def test_smoothness_is_largest_column_mass(self):
        A = np.array([[1.0, 3.0], [2.0, 0.5]])
        f = kl_loss(A, np.ones(2))
        assert f.smoothness == 3.5


class TestQuadraticLoss:
    def test_value_grad_and_default_smoothness(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((5, 5))
        H = B.T @ B
        c = rng.standard_normal(5)
        f = QuadraticLoss(H, c)
        x = rng.standard_normal(5)
        assert_allclose(f.value(x), 0.5 * (x - c) @ H @ (x - c))
        assert_allclose(f.grad(x), H @ (x - c))
        assert_allclose(f.smoothness, np.linalg.eigvalsh(H)[-1])


def top_squared_singular_value(A):
    return np.linalg.svd(A, compute_uv=False)[0] ** 2


def test_operator_norm_sq_matches_svd():
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.standard_normal((int(rng.integers(3, 20)),
                                 int(rng.integers(3, 20))))
        assert_allclose(operator_norm_sq(A), top_squared_singular_value(A),
                        rtol=1e-12)


def test_operator_norm_sq_near_tied_top_pair():
    # sigma_2 / sigma_1 close to 1 is where power iteration crawls
    rng = np.random.default_rng(8)
    u, _ = np.linalg.qr(rng.standard_normal((60, 30)))
    v, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    A = (u * np.linspace(1.0, 0.99, 30)) @ v.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = operator_norm_sq(A)
    assert_allclose(est, top_squared_singular_value(A), rtol=1e-12)


@pytest.mark.parametrize("shape", [(1, 6), (6, 1), (1, 1), (2, 7), (7, 2),
                                   (2, 2), (80, 30), (30, 80)])
def test_operator_norm_sq_dense_and_csr(shape):
    # smaller sides of 1 and 2 included; the larger shapes are 90% zeros
    rng = np.random.default_rng(9)
    A = rng.standard_normal(shape)
    if min(shape) > 2:
        A *= rng.random(shape) < 0.1
    dense = operator_norm_sq(A)
    assert_allclose(dense, top_squared_singular_value(A), rtol=1e-12)
    assert_allclose(operator_norm_sq(sparse.csr_matrix(A)), dense,
                    rtol=1e-12)


def test_operator_norm_sq_is_repeatable():
    A = np.random.default_rng(11).standard_normal((40, 25))
    assert operator_norm_sq(A) == operator_norm_sq(A)


def test_operator_norm_sq_zero_matrix():
    assert operator_norm_sq(np.zeros((4, 3))) == 0.0
    assert operator_norm_sq(sparse.csr_matrix((4, 3))) == 0.0


class TestProximalMaps:
    def test_soft_threshold_examples(self):
        y = np.array([3.0, -0.5, 0.2])
        assert_allclose(prox_l1(y, 1.0), [2.0, 0.0, 0.0])
        assert_allclose(prox_l1(y, 0.0), y)

    def test_soft_threshold_optimality(self):
        # subgradient condition: x = 0 iff |y| <= t, else x = y - t sign(y)
        rng = np.random.default_rng(9)
        for _ in range(50):
            y = rng.standard_normal(6) * 3
            t = float(rng.random() * 2)
            x = prox_l1(y, t)
            zero = x == 0.0
            assert np.all(np.abs(y[zero]) <= t + 1e-15)
            assert_allclose(x[~zero], y[~zero] - t * np.sign(y[~zero]))

    def test_projections(self):
        y = np.array([-2.0, 0.5, 3.0])
        assert_allclose(project_box(y, -1.0, 1.0), [-1.0, 0.5, 1.0])
        assert_allclose(project_nonneg(y), [0.0, 0.5, 3.0])

    def test_prox_minimizes_the_model(self):
        # check the defining property on random perturbations
        rng = np.random.default_rng(10)
        terms = [l1_term(0.7), box_indicator(-1.0, 1.0), nonneg_indicator()]
        for term in terms:
            for _ in range(20):
                y = rng.standard_normal(5) * 2
                gamma = float(rng.random() + 0.1)
                x = term.prox(y, gamma)
                base = gamma * term.value(x) + 0.5 * np.sum((x - y) ** 2)
                for _ in range(10):
                    z = x + 0.3 * rng.standard_normal(5)
                    cand = gamma * term.value(z) + 0.5 * np.sum((z - y) ** 2)
                    assert base <= cand + 1e-12


class TestNonsmoothTerms:
    def test_zero_term_is_identity(self):
        t = zero_term()
        y = np.array([1.0, -2.0])
        assert t.value(y) == 0.0
        assert_allclose(t.prox(y, 5.0), y)

    def test_l1_value_and_validation(self):
        t = l1_term(2.0)
        assert t.value(np.array([1.0, -3.0])) == 8.0
        with pytest.raises(ValueError):
            l1_term(-0.1)

    def test_box_value_and_validation(self):
        t = box_indicator(-1.0, 1.0)
        assert t.value(np.array([0.5, -1.0])) == 0.0
        assert t.value(np.array([0.5, -1.1])) == np.inf
        with pytest.raises(ValueError):
            box_indicator(1.0, -1.0)

    def test_simplex_value(self):
        t = simplex_indicator()
        assert t.value(np.array([0.3, 0.7])) == 0.0
        assert t.value(np.array([0.3, 0.8])) == np.inf
        assert t.value(np.array([-0.1, 1.1])) == np.inf
        assert t.prox is None

    def test_nonneg_value(self):
        t = nonneg_indicator()
        assert t.value(np.array([0.0, 2.0])) == 0.0
        assert t.value(np.array([-1e-9, 2.0])) == np.inf


def test_composite_objective_adds_terms():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    prob = CompositeProblem(least_squares_loss(A, b), l1_term(0.5), 3)
    x = rng.standard_normal(3)
    assert_allclose(prob.objective(x),
                    prob.f.value(x) + 0.5 * np.sum(np.abs(x)))
    boxed = CompositeProblem(least_squares_loss(A, b), box_indicator(0.0, 1.0), 3)
    assert boxed.objective(np.array([2.0, 0.0, 0.0])) == np.inf


def test_matvec_cache_reuses_products():
    A = CountingMatrix(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    f = LeastSquaresLoss(A, np.ones(3), smoothness=1.0)
    x = np.array([1.0, 1.0])
    f.value(x)
    f.grad(x)  # same object: the forward product must be reused
    assert A.forward == 1
    f.value(x.copy())  # a fresh object misses the cache
    assert A.forward == 2
