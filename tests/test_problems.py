"""Loss functions, proximal maps, and the composite container."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.sparse.linalg import aslinearoperator, eigsh
from scipy.special import expit

from aaprox.anderson import AAConfig
from aaprox.datasets import generate_kl_instance, generate_nnls_instance
from aaprox.problems import (
    PROJECTION_KINDS,
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

    def test_rejects_a_negative_ridge_weight(self):
        for mu in (-0.1, np.nan):
            with pytest.raises(ValueError, match="mu must be nonnegative"):
                logistic_loss(np.ones((3, 2)), np.ones(3), mu=mu)

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


def logistic_textbook(A, y, mu, x):
    """Value and gradient of LogisticLoss through logaddexp and expit."""
    t = -y * (A @ x)
    value = np.logaddexp(0.0, t).mean() + mu * np.dot(x, x)
    grad = A.T @ (-y * expit(t)) / len(y) + 2.0 * mu * x
    return value, grad


class TestLogisticOracle:
    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    @pytest.mark.parametrize("mu", [0.0, 0.1])
    @pytest.mark.parametrize("grad_first", [False, True])
    def test_matches_the_textbook_formulas(self, fmt, mu, grad_first):
        rng = np.random.default_rng(12)
        A = 3.0 * rng.standard_normal((60, 8))
        A[rng.random(A.shape) < 0.5] = 0.0
        y = np.where(rng.random(60) < 0.5, -1.0, 1.0)
        f = logistic_loss(A if fmt == "dense" else sparse.csr_matrix(A), y,
                          mu=mu, smoothness=1.0)
        for x in (rng.standard_normal(8), np.zeros(8)):
            if grad_first:
                grad, value = f.grad(x), f.value(x)
            else:
                value, grad = f.value(x), f.grad(x)
            ref_value, ref_grad = logistic_textbook(A, y, mu, x)
            assert_allclose(value, ref_value, rtol=1e-14, atol=0)
            assert_allclose(grad, ref_grad, rtol=1e-14, atol=0)

    def test_extreme_margins_are_finite_and_quiet(self):
        # with y = 1 and x = -1 the margins t = -y * (A x) are A's column
        t = np.array([0.0, 36.9, -36.9, 745.0, -745.0, 800.0, -800.0,
                      2000.0, -2000.0])
        A, y, x = t[:, None], np.ones(t.size), np.array([-1.0])
        for mu in (0.0, 0.1):
            f = logistic_loss(A, y, mu=mu, smoothness=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value, grad = f.value(x), f.grad(x)
            assert np.isfinite(value) and np.isfinite(grad).all()
            ref_value, ref_grad = logistic_textbook(A, y, mu, x)
            assert_allclose(value, ref_value, rtol=1e-14)
            assert_allclose(grad, ref_grad, rtol=1e-14)

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_floats_equal_the_wrapper_forms_bit_for_bit(self, fmt):
        # the value is float(v.sum()) / M, the float v.mean() gives; the
        # margins come from -y by one product, -|t| from copysign and the
        # gradient weights times -y, each the float of the sign flips
        # they replace
        rng = np.random.default_rng(14)
        A = 3.0 * rng.standard_normal((300, 8))
        A[rng.random(A.shape) < 0.3] = 0.0
        y = np.where(rng.random(300) < 0.5, -1.0, 1.0)
        f = logistic_loss(A if fmt == "dense" else sparse.csr_matrix(A), y,
                          smoothness=1.0)
        for scale in (0.0, 1e-3, 1.0, 30.0, 300.0):
            x = scale * rng.standard_normal(8)
            t = np.asarray(f.A @ x).ravel() * y
            np.negative(t, out=t)
            e = np.exp(np.negative(np.abs(t)))
            value = float(np.mean(np.maximum(t, 0.0) + np.log1p(e)))
            w = np.maximum(e, t >= 0.0) / (1.0 + e) * y
            grad = np.asarray(f.A.T @ np.negative(w)).ravel() / f.M
            assert f.value(x) == value
            assert np.array_equal(f.grad(x), grad)
            assert (np.signbit(f.grad(x)) == np.signbit(grad)).all()

    def test_value_and_grad_share_one_product_per_point(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((10, 3))
        y = np.where(rng.random(10) < 0.5, -1.0, 1.0)
        x1, x2 = rng.standard_normal(3), rng.standard_normal(3)
        A = CountingMatrix(data)
        f = LogisticLoss(A, y, smoothness=1.0)
        f.value(x1)
        f.grad(x1)
        assert A.forward == 1
        # with one other point evaluated in between, x1 is still remembered
        A = CountingMatrix(data)
        f = LogisticLoss(A, y, smoothness=1.0)
        f.value(x1)
        f.value(x2)
        f.grad(x1)
        assert A.forward == 2


def least_squares_textbook(A, b, mu, x):
    """Value and gradient of LeastSquaresLoss from the residual A x - b."""
    r = A @ x - b
    value = r @ r / (2 * len(b)) + mu * np.dot(x, x)
    grad = A.T @ r / len(b) + 2.0 * mu * x
    return value, grad


class TestLeastSquaresOracle:
    @pytest.mark.parametrize("shape, fmt", [
        ((60, 8), "dense"), ((8, 60), "dense"), ((60, 8), "csr")],
        ids=["tall_dense", "wide_dense", "tall_csr"])
    @pytest.mark.parametrize("mu", [0.0, 0.1])
    @pytest.mark.parametrize("grad_first", [False, True])
    def test_matches_the_textbook_formulas(self, shape, fmt, mu, grad_first):
        # tall dense A takes the normal-matrix route, the others the
        # residual route; both equal the residual formula
        rng = np.random.default_rng(15)
        A = rng.standard_normal(shape)
        A[rng.random(shape) < 0.5] = 0.0
        b = rng.standard_normal(shape[0])
        f = least_squares_loss(A if fmt == "dense" else sparse.csr_matrix(A),
                               b, mu=mu, smoothness=1.0)
        for x in (rng.standard_normal(shape[1]), np.zeros(shape[1])):
            if grad_first:
                grad, value = f.grad(x), f.value(x)
            else:
                value, grad = f.value(x), f.grad(x)
            ref_value, ref_grad = least_squares_textbook(A, b, mu, x)
            assert_allclose(value, ref_value, rtol=1e-12, atol=0)
            assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("loss", ["least_squares", "logistic"])
@pytest.mark.parametrize("fmt", ["dense", "csr"])
def test_no_ridge_term_at_zero_mu(loss, fmt):
    # ||x||^2 overflows at this x although the data term is finite: a ridge
    # term evaluated at mu = 0 would give 0 * inf = nan
    rng = np.random.default_rng(16)
    A = 1e-10 * rng.standard_normal((30, 4))
    b = np.where(rng.random(30) < 0.5, -1.0, 1.0)
    x = np.full(4, 1e155)
    mat = A if fmt == "dense" else sparse.csr_matrix(A)
    make = least_squares_loss if loss == "least_squares" else logistic_loss
    f = make(mat, b, smoothness=1.0)
    if loss == "least_squares":
        r = A @ x - b
        ref_value, ref_grad = r @ r / 60, A.T @ r / 30
    else:
        t = -b * (A @ x)
        ref_value = np.logaddexp(0.0, t).mean()
        ref_grad = A.T @ (-b * expit(t)) / 30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = f.value(x), f.grad(x)
    assert np.isfinite(value)
    assert_allclose(value, ref_value, rtol=1e-12)
    assert_allclose(grad, ref_grad, rtol=1e-12)
    # at mu > 0 the ridge term is there, and here it is inf
    with np.errstate(over="ignore"):
        assert np.isinf(np.dot(x, x))
        assert make(mat, b, mu=0.1, smoothness=1.0).value(x) == np.inf


def non_finite_data_cases():
    """(loss factory, name, A, b) with one non-finite entry in A or b."""
    rng = np.random.default_rng(17)
    A = rng.random((6, 3)) + 0.1
    b = rng.random(6) + 0.5
    y = np.where(rng.random(6) < 0.5, -1.0, 1.0)
    cases = []
    for bad in (np.nan, np.inf, -np.inf):
        bad_A = A.copy()
        bad_A[2, 1] = bad
        bad_b = b.copy()
        bad_b[4] = bad
        for fmt in ("dense", "csr", "csc"):
            mat = bad_A if fmt == "dense" else sparse.csr_matrix(
                bad_A).asformat(fmt)
            cases += [(least_squares_loss, "A", mat, b),
                      (logistic_loss, "A", mat, y),
                      (kl_loss, "A", mat, b)]
        cases += [(least_squares_loss, "b", A, bad_b),
                  (kl_loss, "b", A, bad_b)]
    return cases


@pytest.mark.parametrize("make, name, A, b", non_finite_data_cases())
def test_non_finite_data_is_rejected_before_any_work(make, name, A, b,
                                                     capfd, monkeypatch):
    def no_norm(A):
        raise AssertionError("operator_norm_sq ran on non-finite data")

    monkeypatch.setattr("aaprox.problems.operator_norm_sq", no_norm)
    with pytest.raises(ValueError, match="%s must hold only finite values"
                       % name):
        make(A, b)
    # nothing reached LAPACK, which prints to stderr on a nan
    assert capfd.readouterr().err == ""


def test_finite_data_of_every_storage_is_accepted():
    rng = np.random.default_rng(18)
    A = rng.random((6, 3)) + 0.1
    b = rng.random(6) + 0.5
    for mat in (A, np.asfortranarray(A), A.astype(np.float32),
                np.rint(10 * A).astype(int), sparse.csr_matrix(A),
                sparse.lil_matrix(A), sparse.csr_matrix((6, 3)),
                CountingMatrix(A)):
        least_squares_loss(mat, b, smoothness=1.0)
    least_squares_loss(A, list(b), smoothness=1.0)


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

    @pytest.mark.parametrize("layout", ["C", "F", "float32",
                                        "column_strided"])
    def test_symmetric_product_on_every_dense_layout(self, layout):
        # whatever the order and dtype of A, the normal-matrix route (whose
        # product reads one triangle of Q) matches the residual formula,
        # also at an x that is not contiguous
        rng = np.random.default_rng(7)
        wide = rng.standard_normal((40, 30))
        A = {"C": np.ascontiguousarray(wide[:, :15]),
             "F": np.asfortranarray(wide[:, :15]),
             "float32": wide[:, :15].astype(np.float32),
             "column_strided": wide[:, ::2]}[layout]
        b = rng.standard_normal(40)
        dense = np.asarray(A, dtype=float)
        f = least_squares_loss(A, b, mu=0.3)
        for x in (rng.standard_normal(15), rng.standard_normal(30)[::2]):
            r = dense @ x - b
            assert_allclose(f.value(x), r @ r / 80 + 0.3 * (x @ x),
                            rtol=1e-12)
            assert_allclose(f.grad(x), dense.T @ r / 40 + 0.6 * x,
                            rtol=1e-12)

    def test_rejects_a_negative_ridge_weight(self):
        for mu in (-0.1, np.nan):
            with pytest.raises(ValueError, match="mu must be nonnegative"):
                least_squares_loss(np.ones((3, 2)), np.ones(3), mu=mu)

    def test_large_finite_value_does_not_overflow(self):
        # the cancellation test compares scaled terms: 2^16 times the value
        # would overflow here although the value itself is finite
        data = generate_nnls_instance(80, 40, 0)
        f = least_squares_loss(data.A, data.b)
        x = np.full(40, 1e153)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = f.value(x)
        r = data.A @ x - data.b
        assert np.isfinite(value)
        assert_allclose(value, r @ r / 160, rtol=1e-12)

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

    @pytest.mark.filterwarnings(
        "ignore:the matrix subclass:PendingDeprecationWarning")
    @pytest.mark.parametrize("case", ["all_live", "zero_rows", "csr",
                                      "matrix"])
    def test_value_and_gradient_equal_the_textbook_formula(self, case):
        # bit for bit: sharing log(A x / b) between the two changes no float;
        # a np.matrix A gives 2-D products, which the loss flattens
        rng = np.random.default_rng(13)
        A = rng.random((40, 6))
        if case == "zero_rows":
            A[[3, 17, 18]] = 0.0
        b = rng.random(40) + 0.5
        mat = {"csr": sparse.csr_matrix(A),
               "matrix": np.asmatrix(A)}.get(case, A)
        live = A.sum(axis=1) != 0.0
        live_A = mat[live] if case == "zero_rows" else mat
        live_b, mass = b[live], np.sum(b[~live])
        f = kl_loss(mat, b)
        x = rng.random(6) + 0.5
        u = np.asarray(live_A @ x).ravel()
        expected = {
            "value": float(np.sum(u * np.log(u / live_b) - u + live_b)
                           + mass),
            "grad": np.asarray(live_A.T @ np.log(u / live_b)).ravel(),
        }
        for order in (("value", "grad"), ("grad", "value")):
            point = x.copy()  # a fresh object, so the memo starts empty
            for name in order:
                assert np.array_equal(getattr(f, name)(point), expected[name])

    def test_value_then_gradient_make_one_forward_product(self):
        rng = np.random.default_rng(14)
        A = CountingMatrix(rng.random((9, 4)))
        f = kl_loss(A, rng.random(9) + 0.5)
        x = rng.random(4) + 0.5
        f.value(x)
        f.grad(x)
        assert A.forward == 1

    @pytest.mark.parametrize("first", ["value", "grad"])
    @pytest.mark.parametrize("x0", [0.0, -0.5])
    def test_non_positive_product_on_a_live_row_raises(self, first, x0):
        # (A x)_0 = x0 <= 0 on a live row; the zero row is not checked
        A = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 1.0]])
        f = kl_loss(A, np.ones(3))
        x = np.array([x0, 1.0])
        for name in (first, {"value": "grad", "grad": "value"}[first]):
            with pytest.raises(DomainError):
                getattr(f, name)(x)


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

    @pytest.mark.parametrize("name, bad", [
        ("H", np.nan), ("H", np.inf), ("center", np.nan),
        ("center", -np.inf)])
    def test_non_finite_data_is_refused_at_construction(self, name, bad,
                                                        capfd):
        data = {"H": np.eye(3), "center": np.zeros(3)}
        data[name] = data[name].copy()
        data[name][1] = bad
        with pytest.raises(ValueError,
                           match="%s must hold only finite values" % name):
            QuadraticLoss(**data)
        # refused before eigvalsh, which LAPACK would run on the nan
        assert capfd.readouterr().err == ""


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


def normal_operator_matrix(kind):
    rng = np.random.default_rng(21)
    if kind == "kl_hard":
        return generate_kl_instance(500, 50, seed=3, density=0.5,
                                    noise=0.1).A
    if kind == "libsvm_cli":
        # 20000 x 2000 CSR with about 10 nonzeros per row
        M, n, per_row = 20000, 2000, 10
        rows = np.repeat(np.arange(M), per_row)
        cols = rng.integers(0, n, size=M * per_row)
        return sparse.csr_matrix(
            (rng.standard_normal(M * per_row), (rows, cols)), shape=(M, n))
    shape = {"tall": (50, 20), "wide": (20, 50), "square": (30, 30),
             "fortran": (40, 25), "1x9": (1, 9), "9x1": (9, 1),
             "matrix": (40, 15), "complex": (30, 10)}.get(kind)
    if shape is not None:
        A = rng.standard_normal(shape)
        if kind == "complex":
            return A + 1j * rng.standard_normal(shape)
        return {"fortran": np.asfortranarray,
                "matrix": np.asmatrix}.get(kind, np.asarray)(A)
    fmt, shape = {"csr_tall": ("csr", (80, 30)), "csr_wide": ("csr", (30, 80)),
                  "coo": ("coo", (70, 40)), "csc": ("csc", (40, 70))}[kind]
    return sparse.random(*shape, density=0.1, random_state=rng, format=fmt)


@pytest.mark.filterwarnings(
    "ignore:the matrix subclass:PendingDeprecationWarning")
@pytest.mark.parametrize("kind", [
    "tall", "wide", "square", "fortran", "1x9", "9x1", "matrix", "csr_tall",
    "csr_wide", "coo", "csc", "kl_hard", "libsvm_cli", "complex"])
def test_operator_norm_sq_equals_the_composed_normal_operator(kind):
    # the same float as Lanczos on scipy's op.H @ op (or op @ op.H), whose
    # adjoint copies a sparse A
    A = normal_operator_matrix(kind)
    # first: its zero test, count_nonzero, puts a COO matrix's entries in
    # canonical order in place, and the products below add them in order
    got = operator_norm_sq(A)
    op = aslinearoperator(A)
    normal = op.H @ op if A.shape[1] <= A.shape[0] else op @ op.H
    side = normal.shape[0]
    if side == 1:
        expected = float(normal.matvec(np.ones(1))[0])
    else:
        v0 = np.random.default_rng(0).standard_normal(side)
        expected = float(eigsh(normal, k=1, which="LA", v0=v0,
                               return_eigenvectors=False)[0])
    assert got == expected


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
        assert_allclose(box_indicator(-1.0, 1.0).prox(y, 1.0),
                        [-1.0, 0.5, 1.0])
        assert_allclose(nonneg_indicator().prox(y, 1.0), [0.0, 0.5, 3.0])

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
        for lam in (-0.1, np.nan):
            with pytest.raises(ValueError, match="lam must be nonnegative"):
                l1_term(lam)

    def test_l1_rejects_an_infinite_lam(self):
        # inf lam would make the value at x = 0 inf * 0 = nan
        with pytest.raises(ValueError,
                           match="lam must be nonnegative and finite"):
            l1_term(np.inf)

    def test_box_value_and_validation(self):
        t = box_indicator(-1.0, 1.0)
        assert t.value(np.array([0.5, -1.0])) == 0.0
        assert t.value(np.array([0.5, -1.1])) == np.inf
        for lo, hi in ((1.0, -1.0), (np.nan, 1.0), (-1.0, np.nan),
                       (np.nan, np.nan)):
            with pytest.raises(ValueError, match="box needs lo <= hi"):
                box_indicator(lo, hi)
        # a half-infinite box is still a box
        assert box_indicator(0.0, np.inf).value(np.array([3.0])) == 0.0

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, -0.0),
                                        (-0.0, 0.0), (0.0, 0.0)])
    def test_box_prox_is_np_clip_bit_for_bit(self, lo, hi):
        # signed zeros, nan and infinities at bounds that are themselves
        # signed zeros; np.minimum(np.maximum(y, lo), hi) would differ here
        y = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -2.0, 0.5, 2.0,
                      -1e-300, 1e-300])
        x = box_indicator(lo, hi).prox(y, 1.0)
        ref = np.clip(y, lo, hi)
        assert np.array_equal(x, ref, equal_nan=True)
        assert (np.signbit(x) == np.signbit(ref)).all()

    @pytest.mark.parametrize("term", [
        box_indicator(-1.0, 1.0), box_indicator(0.0, np.inf),
        box_indicator(0.5, 0.5), nonneg_indicator()],
        ids=["box", "half_infinite", "point", "nonneg"])
    def test_projection_kinds_are_zero_at_every_finite_prox_output(self,
                                                                   term):
        # the fact the solver loops rely on when they skip h on recorded rows
        assert term.kind in PROJECTION_KINDS
        rng = np.random.default_rng(19)
        for scale in (1e-3, 1.0, 1e300):
            y = scale * rng.standard_normal(50)
            y[:3] = (0.0, -0.0, 0.5)
            x = term.prox(y, 1.0)
            assert np.isfinite(x).all() and term.value(x) == 0.0

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
