"""Guarded mirror extrapolation on the live support only.

Under the Shannon kernel, run_guarded_aa_bpg leaves settled coordinates out
of the extrapolation: x_i <= 1e-8 max_j x_j with the mirror step still
pointing into the boundary (g_i < y_i). They push a zero residual and take
the plain map value after mixing. kl_hard (500 x 50, 19 coordinates at 0 in
its L-BFGS-B optimum) is the boundary instance; its F* comes from that
bounded L-BFGS-B solve, outside the solvers.
"""

from functools import partial

import numpy as np
import pytest
from scipy.optimize import minimize

from aaprox import bregman
from aaprox.anderson import AAConfig, AndersonEngine
from aaprox.bregman import (
    BregmanProblem,
    bregman_descent_check,
    burg_kernel,
    energy_kernel,
    fermi_dirac_kernel,
    hellinger_kernel,
    polynomial_kernel,
    run_guarded_aa_bpg,
    shannon_kernel,
)
from aaprox.datasets import generate_kl_instance
from aaprox.problems import kl_loss, least_squares_loss, nonneg_indicator, \
    zero_term
from aaprox.solvers import _proximal_gradient

TARGET = 1e-6


@pytest.fixture(scope="module")
def kl_hard():
    """kl_hard's data and its F*; a row order leaves F* unchanged."""
    data = generate_kl_instance(500, 50, seed=3, density=0.5, noise=0.1)
    A, b = data.A, data.b

    def fg(x):
        u = A @ x
        ratio = np.log(u / b)
        return float(np.sum(u * ratio - u + b)), A.T @ ratio

    res = minimize(fg, np.ones(50), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * 50,
                   options=dict(maxiter=20000, maxcor=30, ftol=0.0,
                                gtol=1e-14))
    fstar, grad = fg(res.x)
    # projected-gradient residual of the bound-constrained problem
    assert np.max(np.abs(res.x - np.maximum(res.x - grad, 0.0))) <= 1e-6
    return A, b, fstar


def kl_problem(A, b):
    f = kl_loss(A, b)
    prob = BregmanProblem(shannon_kernel(), f, zero_term(),
                          1.0 / f.smoothness, f.n)
    ones = np.ones(f.n)
    return prob, prob.kernel.grad(ones) - prob.gamma * f.grad(ones)


def gaps(rep, fstar):
    gap = (np.asarray(rep.trace.objective) - fstar) / max(1.0, abs(fstar))
    assert gap.min() >= -1e-12  # no iterate undercuts the reference
    return gap


def rows_to_target(rep, fstar):
    hits = np.flatnonzero(gaps(rep, fstar) <= TARGET)
    return int(hits[0]) + 1 if hits.size else None


def test_settled_rows_push_zero_residuals_and_mix_to_the_plain_value(
        kl_hard, monkeypatch):
    A, b, _ = kl_hard
    prob, y0 = kl_problem(A, b)
    masks, pushed, mixed = [], [], []
    original = bregman._settled

    def settled(x, g, y):
        masks.append(original(x, g, y))
        return masks[-1]

    class Recording(AndersonEngine):
        def push(self, g_val, y):
            pushed.append((g_val, super().push(g_val, y)))
            return pushed[-1][1]

        def extrapolate(self):
            y_ext, coeffs = super().extrapolate()
            mixed.append(y_ext)  # the loop writes g into it afterwards
            return y_ext, coeffs

    monkeypatch.setattr(bregman, "_settled", settled)
    monkeypatch.setattr(bregman, "AndersonEngine", Recording)
    rep = run_guarded_aa_bpg(prob, y0, AAConfig(m=5), max_iters=600)
    assert len(masks) == len(pushed) == len(mixed) == 600
    engaged = mixed_rows = 0
    for mask, (g, residual), y_ext in zip(masks, pushed, mixed):
        if mask is None:
            continue
        engaged += 1
        assert mask.dtype == bool and mask.any()
        assert not residual[mask].any()
        assert np.array_equal(y_ext[mask], g[mask])
        mixed_rows += y_ext is not g
    assert engaged > 100 and mixed_rows > 100
    # after a mask engages, the guard still accepts extrapolated steps
    first = next(k for k, mask in enumerate(masks) if mask is not None)
    assert "AA" in rep.trace.step_kind[first:]


@pytest.mark.parametrize("kernel", [energy_kernel(), shannon_kernel(),
                                    burg_kernel(), fermi_dirac_kernel(),
                                    hellinger_kernel(), polynomial_kernel(1.0)],
                         ids=lambda k: k.name)
def test_only_the_shannon_kernel_supplies_a_mask(kernel):
    expected = bregman._settled if kernel.name == "shannon" else None
    assert bregman._geometry(kernel, zero_term())[2] is expected


def test_energy_kernel_run_is_the_unmasked_loop_bit_for_bit():
    # nonnegative least squares has a boundary optimum, so a mask would
    # have coordinates to act on if the geometry supplied one
    rng = np.random.default_rng(7)
    A = rng.standard_normal((40, 15))
    f = least_squares_loss(A, A @ rng.standard_normal(15))
    kern, h = energy_kernel(), nonneg_indicator()
    prob = BregmanProblem(kern, f, h, 1.0 / f.smoothness, 15)
    y0 = rng.standard_normal(15)
    config = AAConfig(m=5)
    rep = run_guarded_aa_bpg(prob, y0, config, max_iters=300)
    to_primal = lambda y, gamma: h.prox(y, gamma)  # noqa: E731
    direct = _proximal_gradient(
        prob, to_primal(y0, prob.gamma), y0, prob.gamma, kern.grad,
        to_primal, partial(bregman_descent_check, kernel=kern),
        AndersonEngine(15, config), max_iters=300)
    assert "AA" in rep.trace.step_kind
    assert (rep.x == 0.0).any()
    assert np.array_equal(rep.x, direct.x)
    assert rep.trace.objective == direct.trace.objective
    assert rep.trace.residual == direct.trace.residual
    assert rep.trace.step_kind == direct.trace.step_kind


@pytest.mark.parametrize("seed", range(6))
def test_kl_hard_reaches_the_target_on_six_row_orders(kl_hard, seed):
    A, b, fstar = kl_hard
    rows = (np.random.default_rng(seed).permutation(A.shape[0]) if seed
            else np.arange(A.shape[0]))
    prob, y0 = kl_problem(A[rows], b[rows])
    rep = run_guarded_aa_bpg(prob, y0, AAConfig(m=5), max_iters=1500)
    assert rows_to_target(rep, fstar) is not None


def test_settled_threshold_is_relative_to_the_largest_coordinate():
    x = np.array([2.0, 0.7, 1e-9, 1e-7, 1.5e-8, 3e-9])
    y = np.zeros(6)
    g = np.array([-1.0, -1.0, -1.0, -1.0, -1.0, 1.0])
    expected = [False, False, True, False, True, False]
    for scale in (1.0, 1e-6, 1e6):
        assert bregman._settled(scale * x, g, y).tolist() == expected
    assert bregman._settled(x, -g, y).tolist() == [False] * 5 + [True]
    assert bregman._settled(x, np.ones(6), y) is None
    assert bregman._settled(np.ones(6), g, y) is None


def test_scaled_kl_hard_still_reaches_the_target(kl_hard):
    # A scaled by 1e6 scales x* by 1e-6 and leaves F* alone; an absolute
    # threshold of 1e-8 would then mask live coordinates and miss 1e-6
    A, b, fstar = kl_hard
    prob, y0 = kl_problem(A * 1e6, b)
    rep = run_guarded_aa_bpg(prob, y0, AAConfig(m=5), max_iters=1500)
    assert rows_to_target(rep, fstar) is not None


def test_tol_run_stops_at_a_point_whose_small_coordinates_are_kkt(kl_hard):
    A, b, fstar = kl_hard
    prob, y0 = kl_problem(A, b)
    rep = run_guarded_aa_bpg(prob, y0, AAConfig(m=5), tol=1e-5,
                             max_iters=6000)
    assert rep.termination == "tol"
    assert gaps(rep, fstar)[-1] <= 1e-5
    x = rep.x
    small = x <= 1e-8 * x.max()
    assert small.sum() >= 10
    # a coordinate settled at 0 is optimal only where df/dx_i > 0
    assert (prob.f.grad(x)[small] > 0.0).all()
