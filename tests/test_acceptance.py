"""End-to-end acceptance checks, one test per numbered criterion, plus the
Euclidean and KL benchmark runs measured against optima that scipy computes.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion; each passing test also prints the measured quantities behind it
(visible with -s or in the captured-output section).
"""

import math
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq, minimize, nnls
from scipy.special import expit

from aaprox.anderson import AAConfig, AndersonEngine, QrWindow, \
    solve_coefficients
from aaprox.bregman import (
    BregmanProblem,
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
from aaprox.counterexample import SPIRAL_POINT, STEP, PiecewiseLoss, \
    run_counterexample
from aaprox.datasets import (
    generate_kl_instance,
    generate_logreg_instance,
    generate_nnls_instance,
)
from aaprox.problems import (
    CompositeProblem,
    QuadraticLoss,
    box_indicator,
    kl_loss,
    l1_term,
    least_squares_loss,
    logistic_loss,
    nonneg_indicator,
    simplex_indicator,
    zero_term,
)
from aaprox.solvers import descent_check, run_aa_pga, run_guarded_aa_pga, \
    run_nesterov_pga, run_pga


def announce(num, label, detail):
    print("criterion %02d %s: PASS (%s)" % (num, label, detail))


def first_hit(objectives, f_star, tol=1e-6):
    """1-based iteration at which the objective first comes within tol."""
    for i, obj in enumerate(objectives):
        if obj - f_star <= tol:
            return i + 1
    return None


@pytest.fixture(scope="module")
def benchmarks():
    """The four speedup instances, each run guarded and unaccelerated once.

    Shared by criteria 6 (guard re-evaluation) and 10 (speedups, runtime)
    and by the runs against outside optima.
    """
    t0 = time.perf_counter()
    aa = AAConfig(m=5, reg_scale=1e-10)
    instances = {}

    data = generate_logreg_instance(200, 100, seed=0, cond=1e5)
    f = logistic_loss(data.A, data.b, mu=1e-5)
    prob = CompositeProblem(f, box_indicator(-20.0, 20.0), 100)
    gamma = 1.0 / f.smoothness
    x0 = np.zeros(100)
    instances["logreg"] = dict(
        kind="euclidean", problem=prob, gamma=gamma, x0=x0,
        guarded=run_guarded_aa_pga(prob, x0, gamma, aa, tol=0.0,
                                   max_iters=2000, keep_iterates=True),
        plain=run_pga(prob, x0, gamma, tol=0.0, max_iters=2000),
        plain_budget=2000)

    data = generate_nnls_instance(200, 100, seed=1, cond=1e3)
    f = least_squares_loss(data.A, data.b)
    prob = CompositeProblem(f, nonneg_indicator(), 100)
    gamma = 1.0 / f.smoothness
    instances["nnls"] = dict(
        kind="euclidean", problem=prob, gamma=gamma, x0=x0,
        guarded=run_guarded_aa_pga(prob, x0, gamma, aa, tol=0.0,
                                   max_iters=2000, keep_iterates=True),
        plain=run_pga(prob, x0, gamma, tol=0.0, max_iters=16000),
        plain_budget=16000)

    for name, (M, n, seed, density, noise, ga_it, pl_it) in {
        "kl_small": (100, 50, 2, 1.0, 0.05, 6000, 40000),
        "kl_hard": (500, 50, 3, 0.5, 0.1, 6000, 14000),
    }.items():
        data = generate_kl_instance(M, n, seed=seed, density=density,
                                    noise=noise)
        f = kl_loss(data.A, data.b)
        gamma = 1.0 / f.smoothness
        bprob = BregmanProblem(shannon_kernel(), f, zero_term(), gamma, n)
        ones = np.ones(n)
        y0 = bprob.kernel.grad(ones) - gamma * f.grad(ones)
        instances[name] = dict(
            kind="bregman", problem=bprob,
            guarded=run_guarded_aa_bpg(bprob, y0, aa, tol=0.0,
                                       max_iters=ga_it, keep_iterates=True),
            plain=run_bpg(bprob, ones, tol=0.0, max_iters=pl_it),
            plain_budget=pl_it)

    return {"instances": instances, "elapsed": time.perf_counter() - t0}


def pg_residual(x, grad, lo, hi):
    """Largest entry of x - clip(x - grad, lo, hi): 0 at a stationary x."""
    return float(np.max(np.abs(x - np.clip(x - grad, lo, hi))))


@pytest.fixture(scope="module")
def outside_optima(benchmarks):
    """F* of the two Euclidean benchmark instances, computed by scipy.

    logreg from L-BFGS-B with the box [-20, 20] as bounds, on the loss
    written out here; nnls from scipy.optimize.nnls. Each minimizer's
    projected-gradient residual is checked, not scipy's message.
    """
    f = benchmarks["instances"]["logreg"]["problem"].f
    A, y, mu, M = f.A, f.y, f.mu, f.M

    def logreg(x):
        t = -y * (A @ x)
        return (float(np.mean(np.logaddexp(0.0, t)) + mu * (x @ x)),
                A.T @ (-y * expit(t)) / M + 2.0 * mu * x)

    x = minimize(logreg, np.zeros(f.n), jac=True, method="L-BFGS-B",
                 bounds=[(-20.0, 20.0)] * f.n,
                 options=dict(maxiter=20000, maxcor=30, ftol=0.0,
                              gtol=1e-14)).x
    logreg_star, grad = logreg(x)
    assert pg_residual(x, grad, -20.0, 20.0) <= 1e-9

    f = benchmarks["instances"]["nnls"]["problem"].f
    x, _ = nnls(f.A, f.b)
    r = f.A @ x - f.b
    assert pg_residual(x, f.A.T @ r / f.M, 0.0, np.inf) <= 1e-9
    return {"logreg": logreg_star, "nnls": float(r @ r) / (2.0 * f.M)}


def test_criterion_01_cycle_exactness():
    t0 = time.perf_counter()
    rep = run_counterexample(2.1, n_cycles=50)
    elapsed = time.perf_counter() - t0

    plus, minus = rep.phase(4), rep.phase(6)
    assert len(plus) == 51 and len(minus) == 51
    err_plus = float(np.max(np.abs(plus - 249.0))) / 249.0
    err_minus = float(np.max(np.abs(minus + 249.0))) / 249.0
    assert err_plus <= 1e-9
    assert err_minus <= 1e-9
    gap3 = abs(rep.phase(3)[-1] + SPIRAL_POINT)
    gap5 = abs(rep.phase(5)[-1] - SPIRAL_POINT)
    assert gap3 <= 1e-6
    assert gap5 <= 1e-6
    assert elapsed < 1.0
    announce(1, "cycle exactness",
             "rel err +249 %.1e, -249 %.1e, spiral gaps %.1e/%.1e, %.3fs"
             % (err_plus, err_minus, gap3, gap5, elapsed))


def test_criterion_02_guard_convergence():
    loss = PiecewiseLoss()
    prob = CompositeProblem(loss, zero_term(), 1)
    aa = AAConfig(m=1, reg_scale=0.0, use_qr_updates=False)
    t0 = time.perf_counter()
    hits = {}
    for x0 in (2.1, 10.0, 100.0, 246.0):
        rep = run_guarded_aa_pga(prob, np.array([x0]), STEP, aa, tol=0.0,
                                 max_iters=250, keep_iterates=True)
        hits[x0] = None
        for i, xk in enumerate(rep.trace.iterates):
            if abs(xk[0]) <= 1e-12:
                hits[x0] = i + 1
                break
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0

    bad = {k: v for k, v in hits.items() if v is None or v > 100}
    assert not bad, (
        "guarded extrapolated descent must reach |x_k| <= 1e-12 within 100 "
        "iterations from every start; iterations needed: %r" % hits)
    announce(2, "guard convergence", "iterations %r, %.3fs" % (hits, elapsed))


def test_criterion_03_depth_zero_reduction():
    # conditioned random instance so 500 steps stay short of the exact
    # fixed point; a better conditioned draw (singular values down to 0.1)
    # goes bitwise stationary within 400 steps at gamma = 1/L, and both
    # runs stop on a zero residual
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((50, 20)))
    v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    A = (u * np.logspace(0.0, -2.0, 20)) @ v.T
    b = rng.standard_normal(50)
    f = least_squares_loss(A, b)
    prob = CompositeProblem(f, l1_term(0.01), 20)
    gamma = 1.0 / f.smoothness
    x0 = np.zeros(20)

    ra = run_aa_pga(prob, x0, gamma, AAConfig(m=0), tol=0.0, max_iters=500,
                    keep_iterates=True)
    rp = run_pga(prob, x0, gamma, tol=0.0, max_iters=500, keep_iterates=True)
    assert len(ra.trace) == len(rp.trace) == 500
    worst = 0.0
    for xa, xp in zip(ra.trace.iterates, rp.trace.iterates):
        assert_allclose(xa, xp, rtol=1e-12, atol=0.0)
        denom = np.where(xp == 0.0, 1.0, np.abs(xp))
        worst = max(worst, float(np.max(np.abs(xa - xp) / denom)))
    announce(3, "depth-zero reduction",
             "500 iterations, worst elementwise rel gap %.1e" % worst)


def test_criterion_04_krylov_finite_termination():
    rng = np.random.default_rng(4)
    basis, _ = np.linalg.qr(rng.standard_normal((30, 10)))
    vals = np.linspace(1.0, 3.0, 10)
    H = (basis * vals) @ basis.T
    z = rng.standard_normal(30)  # b = H z: a consistent right-hand side
    gamma = 1.0 / vals[-1]
    # gradient descent on 0.5 (x - z)^T H (x - z) is the affine map
    # x - gamma (H x - b), on which AA is equivalent to GMRES
    problem = CompositeProblem(QuadraticLoss(H, center=z), zero_term(), 30)
    rep = run_aa_pga(problem, np.zeros(30), gamma,
                     AAConfig(m=35, reg_scale=0.0), tol=0.0, max_iters=12)
    best = float(np.min(rep.trace.residual))
    assert len(rep.trace.residual) <= 12
    assert best <= 1e-8
    announce(4, "krylov finite termination",
             "rank 10, window 35 >= 12 iterations, residual %.1e" % best)


def test_criterion_05_affine_residual_identity():
    rng = np.random.default_rng(6)
    basis, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    B = 0.95 * basis
    c = rng.standard_normal(20)

    def g(y):
        return B @ y + c

    engine = AndersonEngine(20, AAConfig(m=5, reg_scale=1e-10))
    y = rng.standard_normal(20)
    window_ys = []
    worst = 0.0
    for _ in range(40):
        g_val = g(y)
        engine.push(g_val, y)
        window_ys = (window_ys + [y])[-6:]
        y_ext, coeffs = engine.extrapolate()
        alpha = coeffs.alpha
        assert len(alpha) == len(window_ys)
        # the averaged point mixes the iterates themselves; the engine's
        # extrapolated step mixes map values, whose residual is B R alpha
        ybar = np.column_stack(window_ys[::-1]) @ alpha
        lhs = float(np.linalg.norm(g(ybar) - ybar))
        rhs = float(np.linalg.norm(engine.history.residuals() @ alpha))
        worst = max(worst, abs(lhs - rhs))
        y = y_ext
    assert worst <= 1e-10
    announce(5, "affine residual identity",
             "40 iterations, worst norm gap %.1e" % worst)


def test_criterion_06_guard_reevaluation(benchmarks):
    checked = violations = 0
    for name, inst in benchmarks["instances"].items():
        rep = inst["guarded"]
        xs = rep.trace.iterates
        kinds = rep.trace.step_kind
        if inst["kind"] == "euclidean":
            f, gamma = inst["problem"].f, inst["gamma"]
            for i, kind in enumerate(kinds):
                if i == 0 or kind != "AA":
                    continue
                grad = f.grad(xs[i - 1])
                ok = descent_check(f.value(xs[i]), f.value(xs[i - 1]),
                                   float(np.dot(grad, grad)), gamma)
                checked += 1
                violations += 0 if ok else 1
        else:
            bp = inst["problem"]
            for i, kind in enumerate(kinds):
                if i == 0 or kind != "AA":
                    continue
                ok = bregman_descent_check(
                    bp.f.value(xs[i]), bp.f.value(xs[i - 1]),
                    bp.f.grad(xs[i - 1]), bpg_step(bp, xs[i - 1])[1],
                    xs[i - 1], bp.gamma, bp.kernel)
                checked += 1
                violations += 0 if ok else 1
    assert checked > 0
    assert violations == 0
    announce(6, "guard re-evaluation",
             "%d accepted steps re-checked, %d violations"
             % (checked, violations))


def test_criterion_07_global_rate_envelope():
    n = 40
    rng = np.random.default_rng(5)
    eigs = np.logspace(0.0, 2.0, n)  # mu = 1, L = 100
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (q * eigs) @ q.T
    center = rng.standard_normal(n)
    loss = QuadraticLoss(H, center=center, smoothness=100.0)
    prob = CompositeProblem(loss, zero_term(), n)
    gamma = 2.0 / 101.0
    rate = 1.0 - gamma * 1.0 * 100.0 / 101.0
    assert rate == pytest.approx(0.9803940790118616, abs=1e-16)

    mix = rng.standard_normal(n)
    mix /= np.linalg.norm(mix)
    starts = [center + q[:, 0] + 0.05 * mix,
              center + rng.standard_normal(n),
              center + q[:, -1]]
    worst = 0.0
    for x0 in starts:
        rep = run_guarded_aa_pga(prob, x0, gamma, AAConfig(m=5), tol=0.0,
                                 max_iters=2000, keep_iterates=True)
        d0 = float(np.dot(x0 - center, x0 - center))
        for i, xk in enumerate(rep.trace.iterates):
            k = i + 1
            lhs = float(np.dot(xk - center, xk - center))
            bound = 10.0 * rate ** k * d0
            assert lhs <= bound, "envelope broken at k=%d" % k
            worst = max(worst, lhs / bound)
    announce(7, "global rate envelope",
             "3 starts, k <= 2000, worst lhs/bound %.3f" % worst)


def test_criterion_08_kernel_suite():
    samplers = {
        "energy": lambda r, k: r.standard_normal(k),
        "shannon": lambda r, k: r.uniform(0.05, 5.0, k),
        "burg": lambda r, k: r.uniform(0.05, 5.0, k),
        "fermi_dirac": lambda r, k: r.uniform(0.05, 0.95, k),
        "hellinger": lambda r, k: r.uniform(-0.95, 0.95, k),
        "polynomial": lambda r, k: r.standard_normal(k),
    }
    kernels = [energy_kernel(), shannon_kernel(), burg_kernel(),
               fermi_dirac_kernel(), hellinger_kernel(),
               polynomial_kernel(2.0)]
    rng = np.random.default_rng(8)
    worst_inv = 0.0
    min_dist = np.inf
    for kern in kernels:
        sample = samplers[kern.name]
        for _ in range(100):
            x = sample(rng, 6)
            gap = float(np.max(np.abs(kern.conj_grad(kern.grad(x)) - x)))
            worst_inv = max(worst_inv, gap)
            d = bregman_distance(kern, x, sample(rng, 6))
            assert d >= -1e-13
            min_dist = min(min_dist, d)
    assert worst_inv <= 1e-10

    rng = np.random.default_rng(80)
    A = rng.standard_normal((40, 15))
    b = rng.standard_normal(40)
    f = least_squares_loss(A, b)
    comp = CompositeProblem(f, l1_term(0.05), 15)
    gamma = 1.0 / f.smoothness
    bp = BregmanProblem(energy_kernel(), f, comp.h, gamma, 15)
    x0 = rng.standard_normal(15)
    rp = run_pga(comp, x0, gamma, tol=0.0, max_iters=300)
    rb = run_bpg(bp, x0, tol=0.0, max_iters=300)
    assert_allclose(rb.trace.objective, rp.trace.objective, rtol=1e-12)
    assert_allclose(rb.x, rp.x, rtol=1e-12, atol=0.0)
    announce(8, "kernel suite",
             "worst inverse gap %.1e, min distance %.2g, energy trace == pga"
             % (worst_inv, min_dist))


def _entropy_l1_oracle(u, scaled_weight):
    out = np.empty_like(u)
    for i, ui in enumerate(u):
        out[i] = brentq(lambda t: scaled_weight + math.log(t / ui),
                        1e-12 * ui, ui, xtol=1e-300,
                        rtol=4 * np.finfo(float).eps)
    return out


def _entropy_simplex_oracle(u):
    n = u.size
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize(lambda z: float(np.sum(z * np.log(z / u) - z + u)),
                       np.full(n, 1.0 / n), jac=lambda z: np.log(z / u),
                       method="SLSQP", bounds=[(1e-12, None)] * n,
                       constraints=[{"type": "eq",
                                     "fun": lambda z: z.sum() - 1.0}],
                       options={"maxiter": 300, "ftol": 1e-14})
    x = np.clip(res.x, 1e-12, None)
    nu = float(-np.mean(np.log(x / u)))
    for _ in range(40):  # Newton polish of the stationarity system
        g_vec = np.log(x / u) + nu
        dnu = ((x.sum() - 1.0) - float(np.dot(x, g_vec))) / x.sum()
        x = np.maximum(x - x * (g_vec + dnu), 1e-300)
        nu += dnu
    return x


def test_criterion_09_bregman_prox_oracles():
    rng = np.random.default_rng(9)
    kern = shannon_kernel()
    worst_l1 = worst_sx = 0.0
    for _ in range(50):
        u = rng.uniform(0.05, 4.0, 8)
        gamma = float(rng.uniform(0.2, 1.5))
        lam = float(rng.uniform(0.1, 2.0))
        closed = bregman_prox(l1_term(lam), kern, gamma, u)
        worst_l1 = max(worst_l1, float(np.max(np.abs(
            closed - _entropy_l1_oracle(u, gamma * lam)))))
        closed = bregman_prox(simplex_indicator(), kern, gamma, u)
        worst_sx = max(worst_sx, float(np.max(np.abs(
            closed - _entropy_simplex_oracle(u)))))
    assert worst_l1 <= 1e-8
    assert worst_sx <= 1e-8
    announce(9, "bregman prox oracles",
             "50 inputs each, worst gaps l1 %.1e, simplex %.1e"
             % (worst_l1, worst_sx))


def test_criterion_10_desk_scale_speedup(benchmarks):
    instances = benchmarks["instances"]
    details = []
    for name in ("logreg", "nnls", "kl_small", "kl_hard"):
        inst = instances[name]
        objs_g = inst["guarded"].trace.objective
        objs_p = inst["plain"].trace.objective
        f_star = min(min(o for o in objs_g if np.isfinite(o)),
                     min(o for o in objs_p if np.isfinite(o)))
        ka = first_hit(objs_g, f_star)
        kb = first_hit(objs_p, f_star)
        assert ka is not None, "%s: guarded run never reached 1e-6" % name
        if kb is None:
            # the plain run missed the tolerance inside its whole budget,
            # so any true count exceeds it
            assert ka <= inst["plain_budget"] / 2, name
            details.append("%s %d vs >%d" % (name, ka, inst["plain_budget"]))
        else:
            assert ka <= kb / 2, "%s: %d vs %d" % (name, ka, kb)
            details.append("%s %d vs %d" % (name, ka, kb))

    objs = np.array(instances["kl_hard"]["guarded"].trace.objective)
    f_star = min(objs.min(),
                 min(instances["kl_hard"]["plain"].trace.objective))
    subopt = objs - f_star
    tail = subopt[int(0.7 * len(subopt)):]
    ks = np.arange(len(tail))[tail > 0]
    assert len(ks) >= 100
    slope = float(np.polyfit(ks, np.log(tail[tail > 0]), 1)[0])
    assert slope < 0.0

    elapsed = benchmarks["elapsed"]
    assert elapsed < 30.0
    announce(10, "desk-scale speedup",
             "%s; kl_hard tail slope %.2e; %.1fs total"
             % ("; ".join(details), slope, elapsed))


# (relative target, rows the guarded run may take to reach it): the rows
# measured against the outside F* plus about 10%. Guarded nnls stalls at a
# gap of 5.1e-9 (ROADMAP item 3), so it has no 1e-10 target.
OUTSIDE_TARGETS = {"logreg": ((1e-6, 30), (1e-10, 64)),
                   "nnls": ((1e-6, 300), (1e-8, 1060))}


def test_euclidean_runs_against_outside_optima(benchmarks, outside_optima):
    details = []
    for name, targets in OUTSIDE_TARGETS.items():
        inst = benchmarks["instances"][name]
        f_star = outside_optima[name]
        gaps = {}
        for run in ("guarded", "plain"):
            objs = np.array(inst[run].trace.objective)
            gaps[run] = (objs - f_star) / max(1.0, abs(f_star))
            # no iterate is better than the optimum, beyond rounding
            assert gaps[run].min() >= -1e-12, (name, run, gaps[run].min())
        for target, budget in targets:
            kg = first_hit(gaps["guarded"], 0.0, target)
            kp = first_hit(gaps["plain"], 0.0, target)
            assert kg is not None and kg <= budget, (name, target, kg)
            assert kg <= (inst["plain_budget"] if kp is None else kp), \
                (name, target, kg, kp)
            details.append("%s %.0e %d vs %s" % (name, target, kg, kp))
    print("outside optima: PASS (%s)" % "; ".join(details))


# (relative target, rows a momentum run may take to reach it): the rows
# measured against the outside F* (logreg 75 and 317, nnls 220 and 2681)
# plus about a third.
MOMENTUM_TARGETS = {"logreg": ((1e-6, 100), (1e-10, 400)),
                    "nnls": ((1e-6, 300), (1e-10, 3000))}


def test_momentum_runs_against_outside_optima(benchmarks, outside_optima):
    # each run on a loss of its own whose set_product records what the loop
    # carries to z; another loss on the same data takes the direct product
    details = []
    for name, targets in MOMENTUM_TARGETS.items():
        inst = benchmarks["instances"][name]
        f = inst["problem"].f
        if name == "logreg":
            def make():
                return logistic_loss(f.A, f.y, mu=f.mu)
        else:
            def make():
                return least_squares_loss(f.A, f.b)
        loss, direct = make(), make()
        carried = []
        set_product = loss.set_product

        def record(z, p, set_product=set_product):
            carried.append((z, p))
            set_product(z, p)

        loss.set_product = record
        prob = CompositeProblem(loss, inst["problem"].h, f.n)
        rep = run_nesterov_pga(prob, inst["x0"], inst["gamma"], tol=0.0,
                               max_iters=targets[-1][1])
        assert len(carried) == rep.iterations
        for z, p in carried:
            exact = direct.product(z)
            assert np.abs(p - exact).max() <= 1e-12 * np.abs(exact).max()
        f_star = outside_optima[name]
        gaps = (np.array(rep.trace.objective) - f_star) / max(1.0, abs(f_star))
        assert gaps.min() >= -1e-12, (name, gaps.min())
        for target, budget in targets:
            k = first_hit(gaps, 0.0, target)
            assert k is not None and k <= budget, (name, target, k)
            details.append("%s %.0e %d" % (name, target, k))
    print("momentum against outside optima: PASS (%s)" % "; ".join(details))


@pytest.fixture(scope="module")
def kl_outside_optima(benchmarks):
    """F* of the two KL benchmark instances, computed by scipy.

    L-BFGS-B with the bounds x >= 0, from the runs' start at all ones, on
    the objective written out here. Each minimizer's projected-gradient
    residual is checked, not scipy's message: it measured 3.8e-8 on
    kl_small and 2.9e-7 on kl_hard.
    """
    optima = {}
    for name in ("kl_small", "kl_hard"):
        f = benchmarks["instances"][name]["problem"].f
        A, b = f.A, f.b

        def kl(x):
            u = A @ x
            ratio = np.log(u / b)
            return float(np.sum(u * ratio - u + b)), A.T @ ratio

        x = minimize(kl, np.ones(f.n), jac=True, method="L-BFGS-B",
                     bounds=[(0.0, None)] * f.n,
                     options=dict(maxiter=20000, maxcor=30, ftol=0.0,
                                  gtol=1e-14)).x
        optima[name], grad = kl(x)
        assert pg_residual(x, grad, 0.0, np.inf) <= 1e-6, name
    return optima


# (relative target, rows the guarded run may take to reach it) against the
# outside F*, over the measured rows plus about 10%: kl_hard 589 and 4732.
# Guarded kl_small reaches 1e-6 at row 4956 of its 6000, but that count
# hangs on the last bit of its start, as criterion 10's does, so its budget
# is the run's own length.
KL_OUTSIDE_TARGETS = {"kl_small": ((1e-6, 6000),),
                      "kl_hard": ((1e-6, 650), (1e-8, 5200))}


def test_kl_runs_against_outside_optima(benchmarks, kl_outside_optima):
    details = []
    for name, targets in KL_OUTSIDE_TARGETS.items():
        inst = benchmarks["instances"][name]
        f_star = kl_outside_optima[name]
        gaps = {}
        for run in ("guarded", "plain"):
            objs = np.array(inst[run].trace.objective)
            gaps[run] = (objs - f_star) / max(1.0, abs(f_star))
            # no iterate is better than the optimum, beyond rounding
            assert gaps[run].min() >= -1e-12, (name, run, gaps[run].min())
        for target, budget in targets:
            kg = first_hit(gaps["guarded"], 0.0, target)
            kp = first_hit(gaps["plain"], 0.0, target)
            assert kg is not None and kg <= budget, (name, target, kg)
            if kp is None:
                # plain kl_hard is still 2.8e-6 above F* after its 14000
                # rows; plain kl_small reaches 1e-6 (row 32987 of 40000)
                assert name == "kl_hard", (name, target)
                kp = ">%d" % inst["plain_budget"]
            else:
                assert kg <= kp, (name, target, kg, kp)
            details.append("%s %.0e %d vs %s" % (name, target, kg, kp))
    print("KL outside optima: PASS (%s)" % "; ".join(details))


def test_criterion_11_qr_economy(monkeypatch):
    n, m = 500, 5
    rng = np.random.default_rng(11)
    window = QrWindow(n, m)
    live = []
    for _ in range(m):  # fill before the 200 measured slides
        col = rng.standard_normal(n)
        window.slide(col)
        live.append(col)

    def banned(*args, **kwargs):
        raise AssertionError("full refactorization used during a slide")

    monkeypatch.setattr(np.linalg, "qr", banned)
    worst_alpha = 0.0
    snapshots = []
    for step in range(200):
        col = rng.standard_normal(n)
        before = window.vector_ops
        window.slide(col)
        live = (live + [col])[-m:]
        p = window.width
        budget = 4 * (p - 1) + 2 + 2 * (p - 1) + 2
        spent = window.vector_ops - before
        assert spent <= budget, "slide %d used %d vector ops" % (step, spent)

        newest_first = np.column_stack(live[::-1])
        dense = solve_coefficients(newest_first, 1e-10)
        incremental = window.solve_coefficients(1e-10)
        assert not dense.degenerate and not incremental.degenerate
        worst_alpha = max(worst_alpha, float(np.max(np.abs(
            incremental.alpha - dense.alpha))))
        if step % 20 == 0:
            snapshots.append((np.column_stack(live), window.r.copy(),
                              window.q.copy()))
    monkeypatch.undo()
    assert worst_alpha <= 1e-10

    worst_r = 0.0
    for cols, r_inc, q_inc in snapshots:
        q_ref, r_ref = np.linalg.qr(cols)
        signs = np.sign(np.diag(r_ref))
        worst_r = max(worst_r, float(np.max(np.abs(
            signs[:, None] * r_ref - r_inc))))
        assert np.max(np.abs(q_inc.T @ q_inc - np.eye(m))) <= 1e-12
    assert worst_r <= 1e-10
    announce(11, "qr economy",
             "200 slides, worst alpha gap %.1e, worst R gap %.1e, "
             "<= %d vector ops per slide" % (worst_alpha, worst_r,
                                             4 * (m - 1) + 2 + 2 * (m - 1) + 2))
