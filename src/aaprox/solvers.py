"""Proximal gradient drivers: plain, extrapolated, guarded, and momentum.

The plain, extrapolated, guarded and momentum drivers, here and in
aaprox.bregman, are one loop, _proximal_gradient, parameterised by geometry
(a mirror map and the map back to the primal point) and guard; a momentum
row takes its gradient at an extrapolated point instead of at x.
Where the Euclidean guard rejects an extrapolated candidate but passes the
plain step, one candidate halfway between the two is tried before falling
back; a step taken there is recorded as "damped". f is assumed convex, so
a candidate whose lower bound from f(x) and grad f(x) already fails the
guard is rejected without evaluating f there.
Every driver, here and in aaprox.bregman, takes its step from _step_size:
gamma as given, or 1/L for f's smoothness constant L, positive and finite.
All drivers share the stopping rule ||r_k|| <= tol * max(1, ||g_k||) on the
fixed-point residual r_k = g_k - y_k of the underlying map (momentum takes
r_k = (x_{k+1} - x_k) / gamma and g_k = x_{k+1}), record one trace row per
iterate produced, and report how they stopped. Guarded BPG under the
Shannon kernel records and stops on r_k with its settled coordinates (those
at the boundary, see aaprox.bregman) set to 0. Each run ignores
floating-point overflow, underflow and invalid operations, whatever
np.errstate its caller set: a run whose objective overflows ends as
"degenerate" with an inf row instead of warning or raising, and an entry
that underflows to a subnormal or 0 is taken as it is.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ddot

from .anderson import AAConfig, AndersonEngine
from .problems import (PROJECTION_KINDS, CompositeProblem, DomainError,
                       _euclidean_prox)

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


def _norm(v: np.ndarray) -> float:
    """||v||_2 of a 1-D float array, the square root of v.dot(v) that
    np.linalg.norm(v) also takes: the same float, inf and nan included."""
    return math.sqrt(v.dot(v))


def _finite(x: np.ndarray) -> bool:
    """Whether every entry of the 1-D float array x is finite, the answer
    of np.isfinite(x).all(). A finite x^T x, one BLAS call, proves it; only
    where that dot is inf or nan, as entries above about 1e154 make it too,
    is each entry tested. Its rounding cannot change the answer, so the dot
    is scipy's BLAS wrapper ddot, which costs less per call than x.dot and
    sets no numpy floating-point warning when it overflows."""
    return math.isfinite(ddot(x, x)) or bool(np.isfinite(x).all())


def _stop(residual_norm: float, g: np.ndarray, tol: float) -> bool:
    """residual_norm <= tol * max(1, ||g||); ||g|| is only worked out when
    residual_norm > tol > 0, the one case where the answer depends on it."""
    if residual_norm <= tol:
        return True
    return tol > 0.0 and residual_norm <= tol * _norm(g)


class IterationTrace:
    """Per-iteration log: objective, residual norm, step kind, elapsed time.

    objective, residual and elapsed are array('d') columns and step_kind a
    list of the loop's interned strings, so a row costs 32 bytes (three
    doubles and one pointer) where three float objects cost about 104.
    np.asarray(column) reads the column's buffer without a copy; while
    that view lives, the column cannot grow. Indexing or iterating a
    column gives Python floats. A column equals another column but not a
    list, so compare list(column) with a list.
    With keep_iterates, each row given an x keeps it in iterates.
    """

    def __init__(self, keep_iterates: bool = False):
        self.objective = array("d")
        self.residual = array("d")
        self.step_kind: list[str] = []
        self.elapsed = array("d")
        self.keep_iterates = keep_iterates
        self.iterates: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.objective)

    def record(self, objective: float, residual: float, step_kind: str,
               elapsed: float, x=None) -> None:
        self.objective.append(objective)
        self.residual.append(residual)
        self.step_kind.append(step_kind)
        self.elapsed.append(elapsed)
        if self.keep_iterates and x is not None:
            self.iterates.append(x)


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
    """descent_check as the loop's guard. Each call looks descent_check up
    in this module, so a patched name sees every one."""
    return descent_check(f_test, f_curr, float(grad.dot(grad)), gamma)


def _value_or_inf(f, x) -> float:
    """f.value(x), or inf where x is not finite (_finite) or f raises
    DomainError.

    Called inside the loop's errstate, so overflow and invalid operations
    inside f are not warned about: the guard rejects the inf or nan they
    produce like any other failed candidate.
    """
    if _finite(x):
        try:
            return f.value(x)
        except DomainError:
            pass
    return np.inf


def _bound_rejects(guard, f_curr, grad, x_test, x_plain, x, gamma) -> bool:
    """Whether the guard rejects x_test on a lower bound of f(x_test).

    For convex f, f(x_test) >= f(x) + <grad f(x), x_test - x>, and each
    guard accepts exactly when its f_test is at most a bound that does not
    depend on f_test. So a guard that rejects the lower bound, less a
    rounding margin of 1e-9 max(1, |f(x)|), rejects f(x_test) too, and
    neither f nor the guard need be asked again. A nan bound, which an inf
    or nan entry of x_test or an overflowing dot can give, decides nothing
    (every guard rejects nan), so the guard is not asked about it: x_test
    is judged by _value_or_inf, which is inf where x_test is not finite.
    The dot is scipy's BLAS wrapper ddot, as in _finite.
    """
    lower = f_curr + ddot(grad, x_test - x) - 1e-9 * max(1.0, abs(f_curr))
    return lower == lower and not guard(lower, f_curr, grad, x_plain, x,
                                        gamma)


def _candidate(f, guard, to_primal, y_c, f_curr, grad, x_plain, x, gamma):
    """(x_c, f_c) where the guard accepts x_c = to_primal(y_c, gamma) at
    f_c = _value_or_inf(f, x_c), else None. A y_c that to_primal refuses
    with DomainError costs no f or guard call; an x_c that _bound_rejects
    decides costs no f call."""
    try:
        x_c = to_primal(y_c, gamma)
    except DomainError:
        return None
    if _bound_rejects(guard, f_curr, grad, x_c, x_plain, x, gamma):
        return None
    f_c = _value_or_inf(f, x_c)
    return (x_c, f_c) if guard(f_c, f_curr, grad, x_plain, x, gamma) else None


def _proximal_gradient(problem, x, y, gamma: float, mirror, to_primal,
                       guard=None, engine: AndersonEngine | None = None,
                       bracketed: bool = False, settled=None, tol: float = 0.0,
                       max_iters: int = 1000, keep_iterates: bool = False,
                       _momentum: bool = False) -> SolveReport:
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
    step when it passes. The window is kept across rejections. Both
    candidates are judged by _candidate: one whose to_primal raises
    DomainError is rejected with no call to f or the guard. f is assumed
    convex: before f is evaluated at a candidate, the guard is asked about
    its lower bound f(x) + <grad f(x), x_c - x> (_bound_rejects), and a
    candidate whose bound is rejected is rejected without a call to f or a
    second guard call. For a nonconvex f that can only turn an acceptance
    into a fallback, the safe step. A candidate that is not finite, or
    whose f raises DomainError, has f_test = inf; finiteness is one dot
    x^T x (_finite), and each entry is tested only where that dot is not
    finite.
    A row records f(x) + h(x) at its x, which is always a to_primal output;
    where h's kind is in PROJECTION_KINDS, a finite x lies in h's set, so
    the row records f(x) alone and h is never called.
    The first row whose objective is not finite records inf and ends the
    run as "degenerate". The step g is formed in the buffer of gamma grad,
    so grad itself is never written. The loop runs under one np.errstate
    that ignores overflow, underflow and invalid operations, so a run that
    overflows is reported as "degenerate", not warned about, and a caller's
    errstate does not reach the maps and guards it calls.
    settled(x, g, y), when given, returns a boolean mask of coordinates left
    out of the extrapolation, or None. A row with a mask pushes a zero
    residual there (y takes g's entries) and writes g's entries into the
    mixed point; that masked residual is the one recorded and tested
    against tol. A row whose mask is None pushes g and y unchanged.
    With _momentum (no engine, guard or settled), row k steps from
    z = x + beta_k (x - x_prev), beta_k = k / (k + 3), instead of from x, so
    row 0 is the plain step. It has no residual or stop before its step: it
    records ||x_next - x|| / gamma and, after its row, stops when that is at
    most tol * max(1, ||x_next||). Where f has set_product, z's product is
    formed from f.product at x and x_prev by the operations that form z, in
    a new array, and handed to f before f.grad(z).
    """
    start = time.perf_counter()
    f, h = problem.f, problem.h
    # every recorded x is a to_primal output, so h is 0 at a finite one
    projected = h.kind in PROJECTION_KINDS
    trace = IterationTrace(keep_iterates)
    termination = "max_iters"
    x_prev = x
    carried = _momentum and hasattr(f, "set_product")

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if carried:
            p_x = p_prev = f.product(x)
        for k in range(max(max_iters, 1)):  # the first step is always taken
            z = x
            if _momentum:
                beta = k / (k + 3.0)
                z = x - x_prev
                z *= beta
                z += x
                if carried:
                    p_z = p_x - p_prev
                    p_z *= beta
                    p_z += p_x
                    f.set_product(z, p_z)
            grad = f.grad(z)
            g = gamma * grad
            np.subtract(mirror(z), g, out=g)
            mask = None if settled is None else settled(x, g, y)
            if mask is not None:  # a zero residual on settled coordinates
                y = np.where(mask, g, y)
            if not _momentum:
                rn = _norm(g - y if engine is None else engine.push(g, y))
                if k and _stop(rn, g, tol):
                    termination = "tol"
                    break
            f_next, kind, x_prev = None, "plain", x
            y_ext = g if engine is None else engine.extrapolate()[0]
            if mask is not None and y_ext is not g:
                # a mixed point is a new array: write the plain values in
                np.copyto(y_ext, g, where=mask)
            if y_ext is g:
                y, x = g, to_primal(g, gamma)
            elif guard is None:
                y, x, kind = y_ext, to_primal(y_ext, gamma), "AA"
            else:
                x_plain = to_primal(g, gamma)
                taken = _candidate(f, guard, to_primal, y_ext, f_curr, grad,
                                   x_plain, x, gamma)
                if taken is not None:
                    (x, f_next), y, kind = taken, y_ext, "AA"
                else:
                    x_next, y, kind = x_plain, g, "fallback"
                    if bracketed and _finite(x_plain):
                        # the fallback needs this value anyway
                        f_next = f.value(x_plain)
                        if guard(f_next, f_curr, grad, x_plain, x, gamma):
                            y_half = g + 0.5 * (y_ext - g)
                            taken = _candidate(f, guard, to_primal, y_half,
                                               f_curr, grad, x_plain, x,
                                               gamma)
                            if taken is not None:
                                (x_next, f_next), y, kind = (
                                    taken, y_half, "damped")
                    x = x_next
            if _momentum:
                rn = _norm(x - x_prev) / gamma
            if f_next is None:
                f_next = f.value(x) if _finite(x) else np.inf
            f_curr = objective = f_next
            # a finite f_curr was taken at a finite x
            if not projected and math.isfinite(f_curr):
                objective += h.value(x)
            if not math.isfinite(objective):
                termination, objective = "degenerate", np.inf
            elapsed = time.perf_counter() - start
            trace.record(objective, rn, kind, elapsed, x)
            if termination == "degenerate":
                break
            if _momentum and _stop(rn, x, tol):
                termination = "tol"
                break
            if carried:  # f.value(x) above took this product
                p_prev, p_x = p_x, f.product(x)

    return SolveReport(x, trace, termination, gamma)


def _step_size(f, gamma: float | None) -> float:
    """gamma, or 1/L for the smoothness constant L of f when gamma is None;
    a ValueError at L = 0 or where the step is not positive and finite."""
    if gamma is None:
        if f.smoothness == 0.0:
            raise ValueError("the smoothness constant L of the loss is 0, so "
                             "there is no step 1/L; set gamma (--gamma)")
        gamma = 1.0 / f.smoothness
    if not 0.0 < gamma < math.inf:  # nan too
        raise ValueError("gamma must be positive and finite, got %r"
                         % (gamma,))
    return gamma


def _run_euclidean(problem: CompositeProblem, x0, gamma: float | None,
                   aa_config: AAConfig | None, guard, **options) -> SolveReport:
    gamma = _step_size(problem.f, gamma)
    x = np.asarray(x0, dtype=float)
    engine = None if aa_config is None else AndersonEngine(x.size, aa_config)
    return _proximal_gradient(problem, x, x, gamma, lambda v: v,
                              _euclidean_prox(problem.h), guard, engine,
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
    rejected one also an extra f evaluation, only when its lower bound does
    not decide it; a halfway try costs one more prox and, on the same
    terms, one more f evaluation. The residual window is kept across
    rejections.
    f is assumed convex, as in the paper, so f(x) + <grad f(x), x_c - x>
    bounds f below at a candidate x_c; a candidate whose bound already
    fails the guard is rejected without evaluating f. For a nonconvex f
    that can only turn an acceptance into a fallback, the safe plain step,
    so the guarantee stands.
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

    beta_1 = 0, so the first step is the plain proximal gradient step; it
    is taken even when max_iters < 1, as in the other drivers. The
    recorded residual is the difference quotient ||x_{k+1} - x_k|| / gamma,
    a surrogate for the gradient mapping norm. A row records the objective
    at x_{k+1}, a prox output, so f alone where h's kind is in
    PROJECTION_KINDS. Where f exposes its linear product, as least squares
    and the logistic loss do, a row takes one product, at x_{k+1}, and
    forms the one at the extrapolated point from the last two. The first
    row whose objective is not finite records inf and ends the run as
    "degenerate"; the loop ignores overflow, underflow and invalid
    operations, so such a run is reported, not warned about.
    """
    return _run_euclidean(problem, x0, gamma, None, None, tol=tol,
                          max_iters=max_iters, keep_iterates=keep_iterates,
                          _momentum=True)
