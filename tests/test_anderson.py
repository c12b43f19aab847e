"""Unit tests for the extrapolation engine: coefficient solves against
independent oracles and sliding-window QR bookkeeping. The loop that runs
the engine is tested through the drivers, in test_solvers.py."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aaprox import anderson
from aaprox.anderson import (
    AAConfig,
    AndersonEngine,
    QrWindow,
    ResidualHistory,
    solve_coefficients,
)
from aaprox.solvers import _norm


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


def _vector(case):
    v = np.random.default_rng(40).standard_normal(50)
    if case == "zero":
        v[:] = 0.0
    elif case == "huge":
        v *= 1e200  # the sum of squares overflows to inf
    elif case == "tiny":
        v *= 1e-170  # the squares underflow
    elif case == "inf":
        v[11] = -np.inf
    elif case == "nan":
        v[11] = np.nan
    elif case == "inf_and_nan":
        v[[3, 11]] = np.inf, np.nan
    return v


@pytest.mark.parametrize("case", ["finite", "zero", "huge", "tiny", "inf",
                                  "nan", "inf_and_nan"])
def test_residual_norm_is_numpys_norm_bit_for_bit(case):
    v = _vector(case)
    with np.errstate(over="ignore", under="ignore"):
        got, want = _norm(v), float(np.linalg.norm(v))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_single_column_is_plain_step():
    coeffs = solve_coefficients(np.array([[3.0], [4.0]]), 0.0)
    assert_allclose(coeffs.alpha, [1.0])
    assert not coeffs.degenerate
    # even an all-zero single column: the constraint pins alpha
    coeffs = solve_coefficients(np.zeros((3, 1)), 0.0)
    assert_allclose(coeffs.alpha, [1.0])
    assert not coeffs.degenerate


def test_an_empty_window_is_refused_by_name():
    with pytest.raises(ValueError, match="the window is empty"):
        solve_coefficients(np.zeros((3, 0)))


def test_other_inputs_go_through_asarray_with_the_same_floats():
    R = np.array([[1.0, 0.5], [0.0, 2.0], [1.0, -1.0]])
    want = solve_coefficients(R, 0.1)
    for given in (R.tolist(), R.astype(np.float32)):
        got = solve_coefficients(given, 0.1)
        assert got.alpha.tobytes() == want.alpha.tobytes()
        assert got.degenerate == want.degenerate
    # a 1-D input is one row: here two columns of one entry each
    row = solve_coefficients(np.array([3.0, 4.0]))
    assert row.alpha.tobytes() == solve_coefficients(
        np.array([[3.0, 4.0]])).alpha.tobytes()
    assert row.alpha.shape == (2,)


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


class TestResidualHistory:
    def test_orders_newest_first_and_evicts(self):
        hist = ResidualHistory(m=1)  # capacity 2
        hist.push(np.array([1.0]), np.array([10.0]))
        hist.push(np.array([2.0]), np.array([20.0]))
        assert_allclose(hist.residuals(), [[20.0, 10.0]])
        hist.push(np.array([3.0]), np.array([30.0]))
        assert len(hist) == 2
        assert_allclose(hist.residuals(), [[30.0, 20.0]])

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

    def test_drop_oldest_to_empty(self):
        hist = ResidualHistory(m=2)
        hist.push(np.array([1.0]), np.array([1.0]))
        hist.push(np.array([2.0]), np.array([2.0]))
        hist.drop_oldest()
        assert_allclose(hist.residuals(), [[2.0]])
        hist.drop_oldest()
        assert len(hist) == 0
        with pytest.raises(IndexError):
            hist.drop_oldest()

    def test_negative_depth_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ResidualHistory(-1)

    def test_residuals_are_the_window_column_stacked(self):
        rng = np.random.default_rng(26)
        pushed = [rng.standard_normal(4) for _ in range(4)]
        hist = ResidualHistory(m=2)
        for r in pushed[:2]:
            hist.push(-r, r)
        assert np.array_equal(hist.residuals(),
                              np.column_stack(pushed[1::-1]))
        for r in pushed[2:]:  # the second push evicts the oldest
            hist.push(-r, r)
        assert np.array_equal(hist.residuals(),
                              np.column_stack(pushed[:0:-1]))

    def test_newest_is_the_pushed_map_value(self):
        hist = ResidualHistory(m=1)
        pushed = [np.full(2, float(k)) for k in range(3)]
        for g_val in pushed:
            hist.push(g_val, np.zeros(2))
        assert hist.newest() is pushed[-1]  # pushed[0] was evicted
        hist.drop_oldest()
        assert hist.newest() is pushed[-1]
        hist.drop_oldest()
        with pytest.raises(IndexError):
            hist.newest()


class TestQrWindow:
    def test_zero_capacity_is_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            QrWindow(3, 0)

    def test_rank_signal_on_empty_and_zero_windows(self):
        win = QrWindow(3, 2)
        assert not win.rank_deficient
        win.append(np.zeros(3))  # ||R||_F = 0: no column has rank
        assert win.rank_deficient

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

    def test_drop_oldest_after_a_repeated_column(self):
        # the repeat lies in the span exactly, so its R diagonal is 0 and the
        # second Givens step of the drop has nothing to zero: no rotation
        a, b = np.array([2.0, 0.0, 0.0]), np.array([1.0, 3.0, 0.0])
        win = QrWindow(3, 3)
        for column in (a, b, b):
            win.append(column)
        assert win.r[2, 2] == 0.0
        ops = win.vector_ops
        win.drop_oldest()
        assert win.vector_ops == ops + 2  # one rotation of two Q columns
        assert win.width == 2
        assert_allclose(win.matrix(), np.column_stack([b, b]), atol=1e-15)
        assert_allclose(win.q.T @ win.q, np.eye(2), atol=1e-15)

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
    ], ids=["m0", "one_column", "degenerate"])
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
        # parallel residuals 2g and g mix as (2, -1): a true extrapolation
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


def textbook_coefficients(R, reg_scale):
    """The bordered solve written out as in solve_coefficients' docstring;
    None where that docstring calls the system degenerate."""
    p = R.shape[1]
    if p == 1:
        return np.ones(1)
    fro_sq = np.sum(R * R)
    if not np.isfinite(fro_sq) or fro_sq == 0.0:
        return None
    lam = reg_scale * fro_sq
    kkt = np.zeros((p + 1, p + 1))
    kkt[:p, :p] = R.T @ R + lam * np.eye(p)
    kkt[:p, p] = 1.0
    kkt[p, :p] = 1.0
    try:
        sol = np.linalg.solve(kkt, np.eye(p + 1)[p])
    except np.linalg.LinAlgError:
        return None
    total = np.sum(sol[:p])
    if (not np.all(np.isfinite(sol)) or abs(sol[p]) >= 1e300
            or not 1e-300 <= abs(total) < np.inf):
        return None
    return sol[:p] / total


def _random_window(rng):
    """A residual window of one of the shapes solve_coefficients is given,
    with the reg_scale to solve it at."""
    n, m = int(rng.integers(1, 201)), int(rng.integers(0, 8))
    p = int(rng.integers(1, m + 2))
    # an (n, m + 1) history buffer, columns newest first, as the engine
    # keeps it; some windows mix column scales from 1e-150 to 1e150
    scales = 10.0 ** rng.uniform(-150.0, 150.0, m + 1)
    if rng.random() < 0.75:
        scales = 10.0 ** rng.uniform(-3.0, 3.0, m + 1)
    history = rng.standard_normal((n, m + 1)) * scales
    reg_scale = (0.0, 1e-10, 1e-3)[int(rng.integers(0, 3))]
    kind = int(rng.integers(0, 6))
    if kind == 1 and p > 1:  # LAPACK finds the unregularized system singular
        history[:, 1] = history[:, 0]
        reg_scale = 0.0
    elif kind == 2:
        history[rng.integers(0, n), rng.integers(0, p)] = (
            np.nan, np.inf, -np.inf)[int(rng.integers(0, 3))]
    elif kind == 3:  # fro = 0
        history[:] = 0.0
    elif kind == 4:  # the reversed triangular factor QrWindow passes
        r = np.triu(rng.standard_normal((p, p)) * scales[:p])
        return r[::-1, ::-1], reg_scale
    elif kind == 5:
        return history[::-1, ::-1][:, :p], reg_scale
    return history[:, :p], reg_scale


def test_solve_matches_the_textbook_route_bit_for_bit():
    # solve_coefficients calls numpy.linalg._umath_linalg.solve1, the
    # private gufunc behind np.linalg.solve; this pins its floats, and its
    # singular systems, to those of np.linalg.solve
    rng = np.random.default_rng(2024)
    seen = {"degenerate": 0, "finite_degenerate": 0, "mixed": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(10000):
            R, reg_scale = _random_window(rng)
            ref = textbook_coefficients(R, reg_scale)
            got = solve_coefficients(R, reg_scale)
            assert got.degenerate == (ref is None)
            if ref is None:
                ref = np.eye(R.shape[1])[0]
                seen["degenerate"] += 1
                seen["finite_degenerate"] += np.isfinite(R).all() and R.any()
            else:
                seen["mixed"] += R.shape[1] > 1
            assert np.array_equal(got.alpha, ref)
    assert min(seen.values()) > 100, seen


def test_a_singular_window_is_degenerate_without_a_warning():
    r = np.random.default_rng(0).standard_normal(30)
    R = np.column_stack([r, r])
    kkt = np.ones((3, 3))
    kkt[2, 2] = 0.0
    kkt[:2, :2] = R.T @ R
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(kkt, np.eye(3)[2])
    eng = AndersonEngine(30, AAConfig(m=1, reg_scale=0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs = solve_coefficients(R, 0.0)
        eng.push(r, np.zeros(30))
        eng.push(r, np.zeros(30))
        x_next, retried = eng.extrapolate()
    assert coeffs.degenerate
    assert np.array_equal(coeffs.alpha, [1.0, 0.0])
    # the retry without the oldest entry is the plain step
    assert eng.degenerate_count == 1 and len(eng) == 1
    assert not retried.degenerate and x_next is r


class TextbookEngine:
    """AndersonEngine's documented behaviour on plain lists, newest first."""

    def __init__(self, config):
        self.config = config
        self.gs, self.rs = [], []
        self.degenerate = 0

    def push(self, g_val, y):
        self.gs.insert(0, g_val)
        self.rs.insert(0, g_val - y)
        del self.gs[self.config.m + 1:], self.rs[self.config.m + 1:]

    def extrapolate(self):
        alpha = textbook_coefficients(np.column_stack(self.rs),
                                      self.config.reg_scale)
        if alpha is None and len(self.rs) > 1:
            self.degenerate += 1
            self.gs.pop()
            self.rs.pop()
            alpha = textbook_coefficients(np.column_stack(self.rs),
                                          self.config.reg_scale)
        if alpha is None:
            self.degenerate += 1
        if alpha is None:
            alpha = np.eye(len(self.gs))[0]
        if alpha[0] == 1.0 and not alpha[1:].any():
            return self.gs[0], alpha
        return np.column_stack(self.gs) @ alpha, alpha


@pytest.mark.parametrize("n", [3, 50])
@pytest.mark.parametrize("config", [
    AAConfig(m=0), AAConfig(m=1), AAConfig(m=5),
    # duplicate pushes make unregularized windows singular
    AAConfig(m=2, reg_scale=0.0),
], ids=["m0", "m1", "m5", "degenerate"])
def test_engine_floats_match_a_textbook_reference(n, config):
    # residuals near one common direction give weights of mixed sign
    rng = np.random.default_rng(27 + n)
    drift = rng.standard_normal(n)
    eng, ref = AndersonEngine(n, config), TextbookEngine(config)
    mixed = 0
    for k in range(16):
        if k not in (6, 7, 12):  # pushes 7 and 8 repeat push 6
            y = rng.standard_normal(n)
            g_val = y + drift + 0.1 * rng.standard_normal(n)
        eng.push(g_val, y)
        ref.push(g_val, y)
        x_next, coeffs = eng.extrapolate()
        x_ref, alpha_ref = ref.extrapolate()
        assert len(eng) == len(ref.gs)
        assert np.array_equal(coeffs.alpha, alpha_ref)
        assert np.array_equal(x_next, x_ref)
        assert (x_next is g_val) == (x_ref is g_val)
        mixed += x_next is not g_val
    assert eng.degenerate_count == ref.degenerate
    assert (mixed > 0) == (config.m > 0)
    if config.reg_scale == 0.0:
        assert eng.degenerate_count > 0



def test_window_buffers_match_column_stacking_through_a_lifecycle(
        monkeypatch):
    # one engine fills its window, evicts, drops its oldest entry on a
    # degenerate solve and refills; then an engine of another size. The
    # solve and the mixing are the module attributes the benchmark tracer
    # wraps, looked up at call time
    solves, combines = [], []
    solve, combine = anderson.solve_coefficients, ResidualHistory.combine

    def counted_solve(*args):
        solves.append(1)
        return solve(*args)

    def counted_combine(self, alpha):
        combines.append(1)
        return combine(self, alpha)

    monkeypatch.setattr(anderson, "solve_coefficients", counted_solve)
    monkeypatch.setattr(ResidualHistory, "combine", counted_combine)
    config = AAConfig(m=3, reg_scale=0.0)
    for n, seed in ((40, 30), (7, 31)):
        rng = np.random.default_rng(seed)
        eng, ref = AndersonEngine(n, config), TextbookEngine(config)
        lengths = []
        pushed = []
        for k in range(20):
            if k not in (8, 9):  # pushes 9 and 10 repeat push 8
                y = rng.standard_normal(n)
                g_val = y + 0.1 * rng.standard_normal(n)
            eng.push(g_val, y)
            ref.push(g_val, y)
            pushed.append(g_val)
            x_next, coeffs = eng.extrapolate()
            x_ref, alpha_ref = ref.extrapolate()
            lengths.append(len(eng))
            assert len(eng) == len(ref.gs)
            assert np.array_equal(coeffs.alpha, alpha_ref)
            assert np.array_equal(x_next, x_ref)
            if x_next is not g_val:  # a mixed point is a new array
                assert not any(np.shares_memory(x_next, v) for v in pushed)
                assert not np.shares_memory(x_next, eng.history.residuals())
            assert np.array_equal(eng.history.residuals(),
                                  np.column_stack(ref.rs))
        # filled, evicted at capacity, shortened, and filled again
        assert lengths[:4] == [1, 2, 3, 4] and lengths[4:8] == [4] * 4
        assert min(lengths[8:]) < 4 and lengths[-1] == 4
        assert eng.degenerate_count == ref.degenerate > 0
    assert len(solves) > 40 and combines


@pytest.mark.parametrize("settings", [
    dict(m=2.5), dict(m=True), dict(m=2, reg_scale=math.nan),
    dict(m=2, reg_scale=math.inf),
], ids=["fractional_m", "bool_m", "nan_reg_scale", "inf_reg_scale"])
def test_config_rejects_settings_that_would_fail_later(settings):
    # each was accepted and then turned extrapolation off silently, or
    # raised mid-run
    with pytest.raises(ValueError):
        AAConfig(**settings)


def test_config_validation():
    with pytest.raises(ValueError):
        AAConfig(m=-1)
    with pytest.raises(ValueError):
        AAConfig(m=2, reg_scale=-1e-3)
    assert AAConfig(m=5).use_qr_updates is False
    assert AndersonEngine(3, AAConfig(m=5)).window is None
    assert AndersonEngine(3, AAConfig(m=2, use_qr_updates=True)).window
