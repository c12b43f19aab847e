"""Unit tests for the extrapolation engine: coefficient solves against
independent oracles, sliding-window QR bookkeeping, and the driver loop."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aaprox.anderson import (
    AAConfig,
    AndersonEngine,
    ExtrapolationCoefficients,
    QrWindow,
    ResidualHistory,
    enforce_coefficient_bound,
    run_anderson,
    solve_coefficients,
)


def normal_equation_reference(R, reg_scale):
    """z = (R^T R + lam I)^{-1} 1 normalized by its sum.

    Direct dense route, independent of the bordered system used by the
    implementation. Only valid when the normal matrix is nonsingular.
    """
    p = R.shape[1]
    lam = reg_scale * np.sum(R * R)
    z = np.linalg.solve(R.T @ R + lam * np.eye(p), np.ones(p))
    return z / z.sum()


def constrained_lstsq_reference(R, reg_scale):
    """Minimize ||R a||^2 + lam ||a||^2 over the affine set sum(a) = 1.

    Parameterizes a = e0 + N b with N spanning the sum-zero subspace and
    solves the unconstrained least-squares problem in b. Shares no code
    path with either solve route of the implementation.
    """
    p = R.shape[1]
    lam = reg_scale * np.sum(R * R)
    e0 = np.zeros(p)
    e0[0] = 1.0
    N = np.vstack([np.ones(p - 1), -np.eye(p - 1)])
    if lam > 0:
        A = np.vstack([R @ N, np.sqrt(lam) * N])
        b = -np.concatenate([R @ e0, np.sqrt(lam) * e0])
    else:
        A = R @ N
        b = -(R @ e0)
    beta, *_ = np.linalg.lstsq(A, b, rcond=None)
    return e0 + N @ beta


def test_single_column_is_plain_step():
    coeffs = solve_coefficients(np.array([[3.0], [4.0]]), 0.0)
    assert_allclose(coeffs.alpha, [1.0])
    assert not coeffs.degenerate
    # even an all-zero single column: the constraint pins alpha
    coeffs = solve_coefficients(np.zeros((3, 1)), 0.0)
    assert_allclose(coeffs.alpha, [1.0])
    assert not coeffs.degenerate


def test_orthonormal_pair_splits_evenly():
    R = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    coeffs = solve_coefficients(R, 0.0)
    assert_allclose(coeffs.alpha, [0.5, 0.5], atol=1e-14)


def test_matches_normal_equation_formula():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(3, 12))
        p = int(rng.integers(2, 6))
        R = rng.standard_normal((n, p))
        reg = float(rng.choice([0.0, 1e-10, 1e-4]))
        alpha = solve_coefficients(R, reg).alpha
        assert_allclose(alpha, normal_equation_reference(R, reg),
                        atol=1e-10, rtol=1e-8)
        assert abs(alpha.sum() - 1.0) < 1e-12


def test_matches_constrained_least_squares_oracle():
    rng = np.random.default_rng(8)
    for _ in range(40):
        p = int(rng.integers(2, 6))
        n = int(rng.integers(p, p + 8))  # tall: the minimizer is unique
        R = rng.standard_normal((n, p))
        reg = float(rng.choice([0.0, 1e-8, 1e-3]))
        alpha = solve_coefficients(R, reg).alpha
        assert_allclose(alpha, constrained_lstsq_reference(R, reg), atol=1e-8)


def test_wide_windows_reach_the_oracle_objective():
    # with more columns than rows the minimizer is not unique; both routes
    # must still land on the same optimal value
    rng = np.random.default_rng(14)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        p = int(rng.integers(n + 2, n + 6))
        R = rng.standard_normal((n, p))
        alpha = solve_coefficients(R, 0.0).alpha
        ref = constrained_lstsq_reference(R, 0.0)
        assert abs(alpha.sum() - 1.0) < 1e-12
        got = np.sum((R @ alpha) ** 2)
        best = np.sum((R @ ref) ** 2)
        assert got <= best + 1e-8 * max(1.0, best)


def test_stationarity_of_solution():
    # at the constrained optimum, (R^T R + lam I) alpha is a constant vector
    rng = np.random.default_rng(9)
    for _ in range(25):
        R = rng.standard_normal((8, 4))
        alpha = solve_coefficients(R, 0.0).alpha
        v = R.T @ (R @ alpha)
        assert np.max(np.abs(v - v.mean())) <= 1e-8 * np.linalg.norm(R.T @ R)


def test_rank_deficient_window_still_solvable():
    # a tall window with linearly dependent columns has a singular normal
    # matrix yet a unique constrained minimizer; the solve must not bail out
    rng = np.random.default_rng(10)
    u = rng.standard_normal(6)
    v = rng.standard_normal(6)
    R = np.column_stack([u, v, u + v])  # rank 2, 3 columns
    coeffs = solve_coefficients(R, 0.0)
    assert not coeffs.degenerate
    assert abs(coeffs.alpha.sum() - 1.0) < 1e-12
    # the minimizer must match the parameterized least-squares oracle
    assert_allclose(coeffs.alpha, constrained_lstsq_reference(R, 0.0), atol=1e-7)


def test_heavy_regularization_evens_out_weights():
    rng = np.random.default_rng(11)
    R = rng.standard_normal((6, 4))
    alpha = solve_coefficients(R, 1e8).alpha
    assert_allclose(alpha, np.full(4, 0.25), atol=1e-6)


def test_degenerate_windows_fall_back():
    for R in (np.zeros((4, 3)), np.full((4, 3), np.nan),
              np.full((4, 2), np.inf)):
        coeffs = solve_coefficients(R, 0.0)
        assert coeffs.degenerate
        assert_allclose(coeffs.alpha, np.eye(R.shape[1])[0])


def test_identical_columns_fall_back():
    rng = np.random.default_rng(12)
    r = rng.standard_normal(5)
    coeffs = solve_coefficients(np.column_stack([r, r]), 0.0)
    assert coeffs.degenerate
    assert_allclose(coeffs.alpha, [1.0, 0.0])


def test_coefficient_bound_resets_to_plain_step():
    kept = enforce_coefficient_bound(
        ExtrapolationCoefficients(np.array([0.5, 0.5])), 2.0)
    assert_allclose(kept.alpha, [0.5, 0.5])
    reset = enforce_coefficient_bound(
        ExtrapolationCoefficients(np.array([3.0, -2.0])), 4.0)
    assert_allclose(reset.alpha, [1.0, 0.0])
    # exactly at the bound counts as within it
    edge = enforce_coefficient_bound(
        ExtrapolationCoefficients(np.array([3.0, -2.0])), 5.0)
    assert_allclose(edge.alpha, [3.0, -2.0])


class TestResidualHistory:
    def test_orders_newest_first_and_evicts(self):
        hist = ResidualHistory(m=1)  # capacity 2
        hist.push(np.array([1.0]), np.array([10.0]))
        hist.push(np.array([2.0]), np.array([20.0]))
        assert_allclose(hist.residual_matrix(), [[20.0, 10.0]])
        hist.push(np.array([3.0]), np.array([30.0]))
        assert len(hist) == 2
        assert_allclose(hist.residual_matrix(), [[30.0, 20.0]])

    def test_combine_is_weighted_sum_of_map_values(self):
        hist = ResidualHistory(m=2)
        hist.push(np.array([1.0, 0.0]), np.zeros(2))
        hist.push(np.array([0.0, 2.0]), np.zeros(2))
        mixed = hist.combine(np.array([0.25, 0.75]))
        assert_allclose(mixed, [0.75, 0.5])  # newest gets weight 0.25

    def test_combine_rejects_length_mismatch(self):
        hist = ResidualHistory(m=2)
        hist.push(np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            hist.combine(np.array([0.5, 0.5]))

    def test_drop_oldest_and_clear(self):
        hist = ResidualHistory(m=2)
        hist.push(np.array([1.0]), np.array([1.0]))
        hist.push(np.array([2.0]), np.array([2.0]))
        hist.drop_oldest()
        assert_allclose(hist.residual_matrix(), [[2.0]])
        hist.clear()
        assert len(hist) == 0
        with pytest.raises(IndexError):
            hist.drop_oldest()


class TestQrWindow:
    def test_orthonormal_columns_give_identity_r(self):
        win = QrWindow(3, 2)
        win.append(np.array([1.0, 0.0, 0.0]))
        win.append(np.array([0.0, 1.0, 0.0]))
        assert_allclose(win.q, np.eye(3)[:, :2], atol=1e-15)
        assert_allclose(win.r, np.eye(2), atol=1e-15)
        assert not win.rank_deficient

    def test_slides_track_a_rebuilt_reference(self):
        rng = np.random.default_rng(21)
        win = QrWindow(30, 5)
        cols = []
        for _ in range(40):
            col = rng.standard_normal(30)
            if len(cols) == 5:
                cols.pop(0)
            cols.append(col)
            win.slide(col)
            W = np.column_stack(cols)
            assert np.linalg.norm(win.matrix() - W) <= 1e-10 * np.linalg.norm(W)
            assert np.linalg.norm(win.q.T @ win.q - np.eye(win.width)) < 1e-12
            assert np.max(np.abs(np.tril(win.r, -1))) <= 1e-12

    def test_duplicate_column_raises_deficiency_signal(self):
        win = QrWindow(3, 3)
        win.append(np.array([1.0, 0.0, 0.0]))
        win.append(np.array([0.0, 1.0, 0.0]))
        assert not win.rank_deficient
        win.append(np.array([1.0, 0.0, 0.0]))
        assert win.rank_deficient
        # the factorization still reproduces the window exactly
        W = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert_allclose(win.matrix(), W, atol=1e-14)

    def test_drop_oldest_to_empty_and_errors(self):
        win = QrWindow(2, 1)
        win.append(np.array([3.0, 4.0]))
        with pytest.raises(ValueError):
            win.append(np.array([1.0, 1.0]))
        win.drop_oldest()
        assert win.width == 0
        with pytest.raises(IndexError):
            win.drop_oldest()
        with pytest.raises(ValueError):
            win.append(np.ones(3))

    def test_slide_work_stays_linear_in_window_width(self):
        # per slide: two orthogonalization passes (2p vector ops each), one
        # norm, one scaling, and at most p-1 plane rotations (2 ops each)
        rng = np.random.default_rng(22)
        win = QrWindow(100, 6)
        for k in range(30):
            before = win.vector_ops
            win.slide(rng.standard_normal(100))
            p_after = win.width
            budget = 4 * (p_after - 1) + 2 + 2 * (p_after - 1) + 2
            assert win.vector_ops - before <= budget

    def test_small_solve_matches_dense_route(self):
        rng = np.random.default_rng(23)
        win = QrWindow(12, 4)
        hist = []
        for _ in range(10):
            col = rng.standard_normal(12)
            if len(hist) == 4:
                hist.pop(0)
            hist.append(col)
            win.slide(col)
            R_newest_first = np.column_stack(hist[::-1])
            for reg in (0.0, 1e-10, 1e-4):
                a_win = win.solve_coefficients(reg).alpha
                a_ref = solve_coefficients(R_newest_first, reg).alpha
                assert_allclose(a_win, a_ref, atol=1e-9)


class TestAndersonEngine:
    def test_push_returns_residual_and_slides(self):
        eng = AndersonEngine(2, AAConfig(m=1, use_qr_updates=False))
        r = eng.push(np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert_allclose(r, [1.0, -1.0])
        assert len(eng) == 1

    def test_m0_always_proposes_plain_step(self):
        eng = AndersonEngine(2, AAConfig(m=0))
        rng = np.random.default_rng(24)
        for _ in range(5):
            g = rng.standard_normal(2)
            y = rng.standard_normal(2)
            eng.push(g, y)
            x_next, coeffs = eng.extrapolate()
            assert_allclose(coeffs.alpha, [1.0])
            assert_allclose(x_next, g)

    @pytest.mark.parametrize("use_qr_updates", [False, True])
    def test_a_rescued_degenerate_solve_is_counted(self, use_qr_updates):
        # two equal residuals make the unregularized bordered system
        # singular; the retry on the one-entry window succeeds
        eng = AndersonEngine(3, AAConfig(m=2, reg_scale=0.0,
                                         use_qr_updates=use_qr_updates))
        g, y = np.array([1.0, 2.0, 0.5]), np.array([0.5, 1.0, 1.0])
        eng.push(g, y)
        eng.push(g, y)
        coeffs = eng.coefficients()
        assert not coeffs.degenerate
        assert len(eng) == 1
        assert eng.degenerate_count == 1
        if use_qr_updates:
            # the duplicate push is rank deficient, and the retry drops the
            # oldest column from the factor as well
            assert eng.deficiency_count == 1
            assert eng.window.width == 1
        else:
            assert eng.window is None and eng.deficiency_count == 0

    def test_degenerate_solve_retries_on_shorter_window(self):
        eng = AndersonEngine(3, AAConfig(m=2, reg_scale=0.0,
                                         use_qr_updates=False))
        y = np.zeros(3)
        g = np.array([1.0, 2.0, 3.0])
        eng.push(g, y)
        eng.push(g, y)  # duplicate residual: singular unregularized window
        coeffs = eng.coefficients()
        # after dropping the oldest entry a single column remains
        assert len(eng) == 1
        assert_allclose(coeffs.alpha, [1.0])

    def test_regularized_duplicate_window_splits_weights(self):
        # a tiny ridge keeps the duplicate-column solve nonsingular and the
        # symmetric minimum-norm answer is the even split
        eng = AndersonEngine(3, AAConfig(m=2, use_qr_updates=False))
        y = np.zeros(3)
        g = np.array([1.0, 2.0, 3.0])
        eng.push(g, y)
        eng.push(g, y)
        coeffs = eng.coefficients()
        assert not coeffs.degenerate
        assert_allclose(coeffs.alpha, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("config, scales, window", [
        (AAConfig(m=0), [1.0, 1.0], 1),
        (AAConfig(m=3), [1.0], 1),
        # a duplicate residual: the degenerate solve retries on the newest
        (AAConfig(m=2, reg_scale=0.0), [1.0, 1.0], 1),
        # parallel residuals 2g and g mix as (2, -1), beyond m_alpha = 2
        (AAConfig(m=2, m_alpha=2.0), [2.0, 1.0], 2),
    ], ids=["m0", "one_column", "degenerate", "m_alpha_reset"])
    def test_plain_weights_propose_the_pushed_map_value(self, config, scales,
                                                        window):
        eng = AndersonEngine(3, config)
        g = np.array([1.0, 2.0, 3.0])
        pushed = [scale * g for scale in scales]
        for g_val in pushed:
            eng.push(g_val, np.zeros(3))
        x_next, coeffs = eng.extrapolate()
        assert x_next is pushed[-1]
        assert len(eng) == window
        assert np.array_equal(coeffs.alpha, np.eye(window)[0])

    def test_mixed_weights_propose_a_new_point(self):
        # the same parallel pair without the bound is a true extrapolation
        eng = AndersonEngine(3, AAConfig(m=2))
        g = np.array([1.0, 2.0, 3.0])
        eng.push(2 * g, np.zeros(3))
        eng.push(g, np.zeros(3))
        x_next, coeffs = eng.extrapolate()
        assert_allclose(coeffs.alpha, [2.0, -1.0], atol=1e-8)
        assert x_next is not g
        assert_allclose(x_next, np.zeros(3), atol=1e-8)

    def test_deficiency_counter_with_qr_path(self):
        eng = AndersonEngine(3, AAConfig(m=4, use_qr_updates=True))
        y = np.zeros(3)
        eng.push(np.array([1.0, 0.0, 0.0]), y)
        assert eng.deficiency_count == 0
        eng.push(np.array([1.0, 0.0, 0.0]), y)
        assert eng.deficiency_count == 1

    def test_qr_and_dense_paths_agree_while_well_conditioned(self):
        rng = np.random.default_rng(25)
        A = rng.standard_normal((12, 12))
        A = 0.8 * A / np.linalg.norm(A, 2)
        b = rng.standard_normal(12)
        y0 = rng.standard_normal(12)
        eng_qr = AndersonEngine(12, AAConfig(m=4, reg_scale=1e-10,
                                             use_qr_updates=True))
        eng_np = AndersonEngine(12, AAConfig(m=4, reg_scale=1e-10,
                                             use_qr_updates=False))
        y1, y2 = y0.copy(), y0.copy()
        for _ in range(25):
            rn = np.linalg.norm(A @ y1 + b - y1)
            eng_qr.push(A @ y1 + b, y1)
            eng_np.push(A @ y2 + b, y2)
            x1, c1 = eng_qr.extrapolate()
            x2, c2 = eng_np.extrapolate()
            if rn > 1e-5:
                # alpha is well determined only while the window has
                # residual mass; below that both routes drift within the
                # conditioning noise while the iterates stay identical
                assert np.max(np.abs(c1.alpha - c2.alpha)) <= 1e-8
            assert np.linalg.norm(x1 - x2) <= 1e-12 * max(1, np.linalg.norm(x1))
            y1, y2 = x1, x2

    @pytest.mark.parametrize("use_qr_updates", [False, True])
    def test_reset_clears_all_state(self, use_qr_updates):
        eng = AndersonEngine(2, AAConfig(m=3, use_qr_updates=use_qr_updates))
        eng.push(np.ones(2), np.zeros(2))
        eng.push(np.array([2.0, 0.5]), np.zeros(2))
        eng.reset()
        assert len(eng) == 0
        if use_qr_updates:
            assert eng.window.width == 0
        else:
            assert eng.window is None


class TestRunAnderson:
    def test_first_step_is_plain_map_application(self):
        g = lambda x: 0.5 * x + 1.0
        rep = run_anderson(g, np.array([0.0]), AAConfig(m=2), max_iters=1)
        assert_allclose(rep.xs[0], [0.0])
        assert_allclose(rep.xs[1], [1.0])
        assert_allclose(rep.alphas[0], [1.0])

    def test_solves_affine_contraction(self):
        rng = np.random.default_rng(26)
        A = rng.standard_normal((8, 8))
        A = 0.9 * A / np.linalg.norm(A, 2)
        b = rng.standard_normal(8)
        x_star = np.linalg.solve(np.eye(8) - A, b)
        rep = run_anderson(lambda x: A @ x + b, np.zeros(8),
                           AAConfig(m=4), tol=1e-13, max_iters=60)
        assert rep.termination == "tol"
        assert_allclose(rep.xs[-1], x_star, atol=1e-10)

    def test_full_memory_terminates_finitely_on_affine_maps(self):
        # with window >= dimension the extrapolated iterate solves the
        # affine fixed-point equation exactly, up to roundoff
        rng = np.random.default_rng(27)
        n = 10
        A = rng.standard_normal((n, n))
        A = 0.9 * A / np.linalg.norm(A, 2)
        b = rng.standard_normal(n)
        rep = run_anderson(lambda x: A @ x + b, np.zeros(n),
                           AAConfig(m=n + 2, reg_scale=0.0), tol=1e-9,
                           max_iters=n + 3)
        assert rep.termination == "tol"
        assert len(rep.residual_norms) <= n + 2

    def test_m0_is_plain_fixed_point_iteration(self):
        g = lambda x: np.cos(x)
        rep = run_anderson(g, np.array([1.0]), AAConfig(m=0), max_iters=20)
        x = np.array([1.0])
        for k in range(20):
            x = g(x)
            assert_allclose(rep.xs[k + 1], x, rtol=0, atol=0)

    def test_runs_are_deterministic(self):
        rng = np.random.default_rng(28)
        A = rng.standard_normal((6, 6))
        A = 0.7 * A / np.linalg.norm(A, 2)
        b = rng.standard_normal(6)
        g = lambda x: A @ x + b
        rep1 = run_anderson(g, np.ones(6), AAConfig(m=3), max_iters=30)
        rep2 = run_anderson(g, np.ones(6), AAConfig(m=3), max_iters=30)
        assert np.array_equal(rep1.xs, rep2.xs)

    def test_divergence_reports_degenerate(self):
        g = lambda x: np.array([np.inf])
        rep = run_anderson(g, np.array([1.0]), AAConfig(m=1), max_iters=10)
        assert rep.termination == "degenerate"

    def test_non_finite_start_stops_before_the_map(self):
        calls = []
        g = lambda x: (calls.append(1), x)[1]
        rep = run_anderson(g, np.array([np.nan]), AAConfig(m=2), max_iters=5)
        assert rep.termination == "degenerate"
        assert calls == [] and len(rep.residual_norms) == 0

    def test_first_step_is_taken_even_at_a_fixed_point(self):
        # the stopping test starts at the second residual, as in the
        # proximal gradient drivers
        calls = []
        g = lambda x: (calls.append(1), 0.5 * x)[1]
        rep = run_anderson(g, np.zeros(2), AAConfig(m=2), tol=1e-8,
                           max_iters=5)
        assert rep.termination == "tol"
        assert len(calls) == len(rep.residual_norms) == 2
        assert len(rep.xs) == 2

    def test_map_evaluation_budget_is_respected(self):
        calls = []
        g = lambda x: (calls.append(1), 0.99 * x)[1]
        run_anderson(g, np.ones(3), AAConfig(m=2), max_iters=7)
        assert len(calls) == 7


def test_config_validation():
    with pytest.raises(ValueError):
        AAConfig(m=-1)
    with pytest.raises(ValueError):
        AAConfig(m=2, reg_scale=-1e-3)
    with pytest.raises(ValueError):
        AAConfig(m=2, m_alpha=1.0)
    assert AAConfig(m=5).use_qr_updates is False
    assert AndersonEngine(3, AAConfig(m=5)).window is None
    assert AndersonEngine(3, AAConfig(m=2, use_qr_updates=True)).window
