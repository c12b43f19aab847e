"""Proximal gradient drivers: plain, extrapolated, guarded, and momentum.

The plain, extrapolated and guarded drivers, here and in aaprox.bregman, are
one loop, _proximal_gradient, parameterised by geometry (a mirror map and the
map back to the primal point) and guard; the momentum driver has its own.
Where the Euclidean guard rejects an extrapolated candidate but passes the
plain step, one candidate halfway between the two is tried before falling
back; a step taken there is recorded as "damped".
All drivers share the stopping rule ||r_k|| <= tol * max(1, ||g_k||) on the
fixed-point residual r_k = g_k - y_k of the underlying map, record one trace
row per iterate produced, and report how they stopped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .anderson import AAConfig, AndersonEngine, _stop
from .problems import CompositeProblem, DomainError

__all__ = [
    "IterationTrace",
    "SolveReport",
    "descent_check",
    "pga_step",
    "run_aa_pga",
    "run_guarded_aa_pga",
    "run_nesterov_pga",
    "run_pga",
]


class IterationTrace:
    """Per-iteration log: objective, residual norm, step kind, elapsed time."""

    def __init__(self, keep_iterates: bool = False):
        self.objective: list[float] = []
        self.residual: list[float] = []
        self.step_kind: list[str] = []
        self.elapsed: list[float] = []
        self.keep_iterates = keep_iterates
        self.iterates: list[np.ndarray] = []
        self.aux: dict[str, list] = {}

    def __len__(self) -> int:
        return len(self.objective)

    def record(self, objective: float, residual: float, step_kind: str,
               elapsed: float, x=None, **aux) -> None:
        self.objective.append(float(objective))
        self.residual.append(float(residual))
        self.step_kind.append(step_kind)
        self.elapsed.append(float(elapsed))
        if self.keep_iterates and x is not None:
            self.iterates.append(x)
        for key, val in aux.items():
            self.aux.setdefault(key, []).append(val)


@dataclass
class SolveReport:
    x: np.ndarray
    trace: IterationTrace
    termination: str
    gamma: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.trace)


def pga_step(problem: CompositeProblem, x: np.ndarray,
             gamma: float) -> np.ndarray:
    """One proximal gradient step prox_{gamma h}(x - gamma grad f(x))."""
    return problem.h.prox(x - gamma * problem.f.grad(x), gamma)


def descent_check(f_test: float, f_curr: float, grad_norm_sq: float,
                  gamma: float) -> bool:
    """Sufficient decrease test for a candidate point; ties are accepted."""
    return f_test <= f_curr - 0.5 * gamma * grad_norm_sq


def _descent_guard(f_test, f_curr, grad, x_plain, x, gamma) -> bool:
    """descent_check in the loop's guard signature."""
    return descent_check(f_test, f_curr, float(np.dot(grad, grad)), gamma)


def _value_or_inf(f, x) -> float:
    """f.value(x), or inf where x is not finite or f raises DomainError.

    Overflow and invalid operations inside f are not warned about: the
    guard rejects the inf or nan they produce like any other failed
    candidate.
    """
    if np.isfinite(x).all():
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return f.value(x)
        except DomainError:
            pass
    return np.inf


def _proximal_gradient(problem, x, y, gamma: float, mirror, to_primal,
                       guard=None, engine: AndersonEngine | None = None,
                       bracketed: bool = False, tol: float = 0.0,
                       max_iters: int = 1000,
                       keep_iterates: bool = False) -> SolveReport:
    """The proximal gradient loop behind the pga and bpg drivers.

    Iterates y <- mirror(x) - gamma grad f(x), x = to_primal(y, gamma) from
    the start pair (x, y); the geometry (mirror, to_primal) is the identity
    and h.prox, or a kernel's gradient and its Bregman proximal map. With an
    engine, each step pushes g = mirror(x) - gamma grad f(x) and moves to
    the proposal y_ext instead. A proposal with plain weights (always the
    first) is g itself: a "plain" step, unguarded. Any other step is "AA",
    with a guard only when guard(f_test, f_curr, grad, x_plain, x, gamma)
    holds; otherwise x_plain = to_primal(g, gamma) is the "fallback". When
    bracketed, a rejection first evaluates f at x_plain (the value the
    fallback needs anyway); only if x_plain passes the same guard, so that
    the segment from g to y_ext brackets the guard, is the halfway point
    to_primal(g + (y_ext - g) / 2, gamma) tested, and taken as a "damped"
    step when it passes. The window is kept across rejections. A candidate
    that is not finite, or whose f raises DomainError, has f_test = inf.
    The first row whose objective is not finite records inf and ends the
    run as "degenerate".
    Guarded runs with kept iterates record x_plain on every row: None on
    the first, x on a later plain row.
    """
    start = time.perf_counter()
    f, h = problem.f, problem.h
    trace = IterationTrace(keep_iterates)
    termination = "max_iters"
    keep_plain = keep_iterates and guard is not None

    for k in range(max(max_iters, 1)):  # the first step is always taken
        grad = f.grad(x)
        g = mirror(x) - gamma * grad
        rn = float(np.linalg.norm(g - y if engine is None
                                  else engine.push(g, y)))
        if k and _stop(rn, g, tol):
            termination = "tol"
            break
        x_plain, f_next, kind = None, None, "plain"
        y_ext = g if engine is None else engine.extrapolate()[0]
        if y_ext is g:
            y, x = g, to_primal(g, gamma)
            x_plain = x if k else None
        elif guard is None:
            y, x, kind = y_ext, to_primal(y_ext, gamma), "AA"
        else:
            x_plain = to_primal(g, gamma)
            x_test = to_primal(y_ext, gamma)
            f_test = _value_or_inf(f, x_test)
            if guard(f_test, f_curr, grad, x_plain, x, gamma):
                x, y, f_next, kind = x_test, y_ext, f_test, "AA"
            else:
                x_next, y, kind = x_plain, g, "fallback"
                if bracketed and np.isfinite(x_plain).all():
                    f_next = f.value(x_plain)  # the fallback needs it anyway
                    if guard(f_next, f_curr, grad, x_plain, x, gamma):
                        y_half = g + 0.5 * (y_ext - g)
                        x_half = to_primal(y_half, gamma)
                        f_half = _value_or_inf(f, x_half)
                        if guard(f_half, f_curr, grad, x_plain, x, gamma):
                            x_next, y, f_next, kind = (x_half, y_half, f_half,
                                                       "damped")
                x = x_next
        if f_next is None:
            f_next = f.value(x) if np.isfinite(x).all() else np.inf
        f_curr = f_next
        objective = f_curr + h.value(x) if math.isfinite(f_curr) else np.inf
        if not math.isfinite(objective):
            termination, objective = "degenerate", np.inf
        elapsed = time.perf_counter() - start
        if keep_plain:
            trace.record(objective, rn, kind, elapsed, x=x, x_plain=x_plain)
        else:
            trace.record(objective, rn, kind, elapsed, x=x)
        if termination == "degenerate":
            break

    return SolveReport(x, trace, termination, gamma)


def _run_euclidean(problem: CompositeProblem, x0, gamma: float | None,
                   aa_config: AAConfig | None, guard, **options) -> SolveReport:
    if gamma is None:
        gamma = 1.0 / problem.f.smoothness
    x = np.asarray(x0, dtype=float)
    engine = None if aa_config is None else AndersonEngine(x.size, aa_config)
    return _proximal_gradient(problem, x, x, gamma, lambda v: v,
                              problem.h.prox, guard, engine,
                              bracketed=guard is not None, **options)


def run_pga(problem: CompositeProblem, x0, gamma: float | None = None,
            tol: float = 0.0, max_iters: int = 1000,
            keep_iterates: bool = False) -> SolveReport:
    """Plain proximal gradient descent."""
    return _run_euclidean(problem, x0, gamma, None, None, tol=tol,
                          max_iters=max_iters, keep_iterates=keep_iterates)


def run_aa_pga(problem: CompositeProblem, x0, gamma: float | None = None,
               aa_config: AAConfig | None = None, tol: float = 0.0,
               max_iters: int = 1000, keep_iterates: bool = False) -> SolveReport:
    """Proximal gradient with unguarded extrapolation on the dual variable.

    The window collects residuals r_k = g_k - y_k where g_k is the gradient
    step taken from x_k = prox(y_k); the extrapolated y feeds the next prox.
    Depth 0 reproduces run_pga exactly.
    """
    return _run_euclidean(problem, x0, gamma,
                          AAConfig(m=5) if aa_config is None else aa_config,
                          None, tol=tol, max_iters=max_iters,
                          keep_iterates=keep_iterates)


def run_guarded_aa_pga(problem: CompositeProblem, x0,
                       gamma: float | None = None,
                       aa_config: AAConfig | None = None, tol: float = 0.0,
                       max_iters: int = 1000,
                       keep_iterates: bool = False) -> SolveReport:
    """Extrapolated proximal gradient with a sufficient-decrease guard.

    The extrapolated candidate is kept only when it passes descent_check
    against the current iterate. When it fails but the plain proximal
    gradient step passes, the point halfway between the two in y is tried
    and, if it passes, taken as a "damped" step; otherwise the plain step is
    taken as a "fallback". Steps with plain mixing weights are "plain"
    steps at a run_pga step's cost; any other costs one extra prox, and a
    rejected one also an extra f evaluation; a halfway try costs one more
    prox and one more f evaluation. The residual window is kept across
    rejections.
    """
    return _run_euclidean(problem, x0, gamma,
                          AAConfig(m=5) if aa_config is None else aa_config,
                          _descent_guard, tol=tol, max_iters=max_iters,
                          keep_iterates=keep_iterates)


def run_nesterov_pga(problem: CompositeProblem, x0,
                     gamma: float | None = None, tol: float = 0.0,
                     max_iters: int = 1000,
                     keep_iterates: bool = False) -> SolveReport:
    """Proximal gradient with momentum beta_k = (k - 1) / (k + 2).

    beta_1 = 0, so the first step is the plain proximal gradient step. The
    recorded residual is the difference quotient ||x_{k+1} - x_k|| / gamma,
    a surrogate for the gradient mapping norm. The first row whose objective
    is not finite records inf and ends the run as "degenerate".
    """
    if gamma is None:
        gamma = 1.0 / problem.f.smoothness
    start = time.perf_counter()
    x = np.asarray(x0, dtype=float)
    x_prev = x
    trace = IterationTrace(keep_iterates)
    termination = "max_iters"

    for k in range(1, max_iters + 1):
        z = x + (k - 1.0) / (k + 2.0) * (x - x_prev)
        x_next = problem.h.prox(z - gamma * problem.f.grad(z), gamma)
        rn = float(np.linalg.norm(x_next - x)) / gamma
        x_prev, x = x, x_next
        objective = problem.objective(x) if np.isfinite(x).all() else np.inf
        finite = math.isfinite(objective)
        trace.record(objective if finite else np.inf, rn, "plain",
                     time.perf_counter() - start, x=x)
        if not finite:
            termination = "degenerate"
            break
        if _stop(rn, x, tol):
            termination = "tol"
            break

    return SolveReport(x, trace, termination, gamma)
