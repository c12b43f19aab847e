"""Bregman proximal gradient with optional guarded extrapolation.

A Legendre kernel phi replaces the Euclidean geometry: the iteration moves
in the mirror variable y = grad phi(x) - gamma grad f(x) and returns to the
primal space through the conjugate gradient map and a kernel-aware proximal
step. Extrapolation happens in the mirror variable, which is unconstrained
whenever the kernel has a conjugate defined on all of R^n; the guard keeps
only candidates passing a surrogate descent test. The drivers run the loop
of aaprox.solvers with the kernel's geometry and the model-bound guard.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.special import expit

from .anderson import AAConfig, AndersonEngine
from .problems import (CompositeProblem, DomainError, NonsmoothTerm,
                       UnsupportedProxError, _euclidean_prox, _IdentityMemo,
                       _some_at_most)
from .solvers import SolveReport, _proximal_gradient, _step_size

__all__ = [
    "BregmanProblem",
    "Kernel",
    "UnsupportedProxError",
    "bpg_step",
    "bregman_descent_check",
    "bregman_distance",
    "bregman_prox",
    "burg_kernel",
    "energy_kernel",
    "fermi_dirac_kernel",
    "hellinger_kernel",
    "polynomial_kernel",
    "run_bpg",
    "run_guarded_aa_bpg",
    "shannon_kernel",
]


@dataclass
class Kernel:
    """A Legendre kernel: value, gradient, and conjugate gradient.

    full_dual_domain says whether grad of the conjugate accepts every
    y in R^n; mirror-variable extrapolation requires that.
    """

    name: str
    value: callable
    grad: callable
    conj_grad: callable
    full_dual_domain: bool


def energy_kernel() -> Kernel:
    """phi(x) = ||x||_2^2 / 2; gradient and conjugate gradient are both the
    identity, recovering the Euclidean setting."""
    return Kernel(
        name="energy",
        value=lambda x: 0.5 * float(np.dot(x, x)),
        grad=lambda x: np.asarray(x, dtype=float),
        conj_grad=lambda y: np.asarray(y, dtype=float),
        full_dual_domain=True,
    )


def _xlogx(x):
    """x log x elementwise with 0 log 0 = 0; the zero mask is only built
    where some entry is not positive."""
    if (x > 0).all():
        return x * np.log(x)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


# exp underflows to 0 near y = -745; keep the image of _shannon_primal inside
# the open domain so _shannon_mirror stays evaluable on it. Overflow to inf
# is left alone for callers to detect.
_TINY = np.finfo(float).tiny


def _shannon_mirror(x):
    """log x + 1, the Shannon gradient, with no domain check."""
    out = np.log(x)
    out += 1.0
    return out


def _shannon_primal(y):
    """max(exp(y - 1), tiny), the Shannon conjugate gradient of a float
    array y, warning as numpy's errstate says."""
    out = y - 1.0
    np.exp(out, out=out)
    return np.maximum(out, _TINY, out=out)


def _shannon_value(x):
    # one min() settles both tests unless it is nan, where the entrywise
    # domain test and the zero mask decide as before
    x = np.asarray(x, dtype=float)
    low = x.min(initial=np.inf)
    if low > 0:
        return float((x * np.log(x)).sum())
    if low < 0 or (low != low and (x < 0).any()):
        raise DomainError("shannon kernel needs x >= 0")
    return float(_xlogx(x).sum())


def _shannon_grad(x):
    x = np.asarray(x, dtype=float)
    if _some_at_most(x, 0.0):
        raise DomainError("shannon gradient needs x > 0")
    return _shannon_mirror(x)


def _shannon_conj_grad(y):
    with np.errstate(over="ignore", under="ignore"):
        return _shannon_primal(np.asarray(y, dtype=float))


def shannon_kernel() -> Kernel:
    """phi(x) = sum x_i log x_i on the nonnegative orthant, 0 log 0 = 0."""
    return Kernel("shannon", _shannon_value, _shannon_grad,
                  _shannon_conj_grad, full_dual_domain=True)


def _checked(fn, outside, message: str):
    """fn on x as a float array, or DomainError(message) where the mask
    outside(x) holds anywhere."""

    def checked(x):
        x = np.asarray(x, dtype=float)
        if outside(x).any():
            raise DomainError(message)
        return fn(x)

    return checked


def burg_kernel() -> Kernel:
    """phi(x) = -sum log x_i on the positive orthant.

    The conjugate gradient -1/y is only defined for y < 0, so this kernel
    cannot back mirror-variable extrapolation.
    """
    return Kernel(
        "burg",
        _checked(lambda x: -float(np.log(x).sum()), lambda x: x <= 0,
                 "burg kernel needs x > 0"),
        _checked(lambda x: -1.0 / x, lambda x: x <= 0,
                 "burg gradient needs x > 0"),
        _checked(lambda y: -1.0 / y, lambda y: y >= 0,
                 "burg conjugate gradient needs y < 0"),
        full_dual_domain=False)


def fermi_dirac_kernel() -> Kernel:
    """phi(x) = sum x_i log x_i + (1 - x_i) log(1 - x_i) on the unit box."""
    value = _checked(lambda x: float(_xlogx(x).sum() + _xlogx(1.0 - x).sum()),
                     lambda x: (x < 0) | (x > 1),
                     "fermi-dirac kernel needs 0 <= x <= 1")
    grad = _checked(lambda x: np.log(x / (1.0 - x)),
                    lambda x: (x <= 0) | (x >= 1),
                    "fermi-dirac gradient needs 0 < x < 1")

    # expit rounds to exactly 0 or 1 for |y| beyond ~745 / ~37; pin the
    # image of conj_grad to the open interval.
    lo, hi = np.finfo(float).tiny, np.nextafter(1.0, 0.0)

    def conj_grad(y):
        return np.clip(expit(np.asarray(y, dtype=float)), lo, hi)

    return Kernel("fermi_dirac", value, grad, conj_grad, full_dual_domain=True)


def hellinger_kernel() -> Kernel:
    """phi(x) = -sum sqrt(1 - x_i^2) on [-1, 1]^n."""
    value = _checked(lambda x: -float(np.sqrt(1.0 - x * x).sum()),
                     lambda x: np.abs(x) > 1,
                     "hellinger kernel needs |x| <= 1")
    grad = _checked(lambda x: x / np.sqrt(1.0 - x * x),
                    lambda x: np.abs(x) >= 1,
                    "hellinger gradient needs |x| < 1")

    # hypot avoids overflow in y^2; |y| above ~2^26 still rounds the ratio
    # to +-1, so pin the image of conj_grad to the open interval.
    lim = np.nextafter(1.0, 0.0)

    def conj_grad(y):
        y = np.asarray(y, dtype=float)
        return np.clip(y / np.hypot(1.0, y), -lim, lim)

    return Kernel("hellinger", value, grad, conj_grad, full_dual_domain=True)


def _cubic_root(s: float, alpha: float) -> float:
    """The positive root of t^3 + alpha t = s, for s > 0, alpha >= 0.

    Newton from the smaller of the two upper bounds s^(1/3) and s / alpha;
    the iteration is monotone decreasing onto the root. It stops once
    |t^3 + alpha t - s| <= 1e-14 s, a test relative to s, so a small s is
    solved as accurately as a large one.
    """
    t = s ** (1.0 / 3.0)
    if alpha > 0.0:
        t = min(t, s / alpha)
    for _ in range(100):
        psi = t * t * t + alpha * t - s
        if abs(psi) <= 1e-14 * s:
            break
        dpsi = 3.0 * t * t + alpha
        t -= psi / dpsi
    return t


def polynomial_kernel(alpha: float = 0.0) -> Kernel:
    """phi(x) = (alpha / 2) ||x||^2 + (1/4) ||x||^4, defined on all of R^n.

    The conjugate gradient rescales y onto the sphere of radius t where
    t solves t^3 + alpha t = ||y||.
    """
    if not 0 <= alpha < np.inf:  # nan too
        raise ValueError("alpha must be nonnegative and finite, got %r"
                         % (alpha,))

    def value(x):
        nsq = float(np.dot(x, x))
        return 0.5 * alpha * nsq + 0.25 * nsq * nsq

    def grad(x):
        x = np.asarray(x, dtype=float)
        return (alpha + float(np.dot(x, x))) * x

    def conj_grad(y):
        y = np.asarray(y, dtype=float)
        s = float(np.linalg.norm(y))
        if s == 0.0:
            return np.zeros_like(y)
        t = _cubic_root(s, alpha)
        return y * (t / s)

    return Kernel("polynomial", value, grad, conj_grad, full_dual_domain=True)


def bregman_distance(kernel: Kernel, x, y) -> float:
    """D_phi(x, y) = phi(x) - phi(y) - <grad phi(y), x - y>."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(kernel.value(x) - kernel.value(y)
                 - kernel.grad(y).dot(x - y))


def bregman_prox(h: NonsmoothTerm, kernel: Kernel, gamma: float,
                 u: np.ndarray) -> np.ndarray:
    """argmin_x gamma h(x) + D_phi(x, u), for the supported pairs.

    Supported: h = 0 with any kernel; any Euclidean-proxable h with the
    energy kernel; h = lam ||.||_1 restricted to x >= 0 and the simplex
    indicator with the shannon kernel (both closed forms). Anything else
    raises UnsupportedProxError.
    """
    u = np.asarray(u, dtype=float)
    if h.kind == "zero":
        return u
    if kernel.name == "energy":
        return _euclidean_prox(h)(u, gamma)
    if kernel.name == "shannon" and h.kind in ("l1", "simplex"):
        if _some_at_most(u, 0.0):
            raise DomainError("shannon proximal map needs u > 0")
        if h.kind == "l1":
            return u * np.exp(-gamma * h.params["lam"])
        return u / float(u.sum())
    raise UnsupportedProxError(
        "no closed-form Bregman proximal map for kernel %r with term %r"
        % (kernel.name, h.kind))


@dataclass
class BregmanProblem:
    """Composite objective f + h under the geometry of a kernel.

    gamma must satisfy the relative smoothness condition of f against the
    kernel for the plain iteration to descend.
    """

    kernel: Kernel
    f: object
    h: NonsmoothTerm
    gamma: float
    n: int

    objective = CompositeProblem.objective


def bpg_step(problem: BregmanProblem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Bregman proximal gradient step; returns (y_next, x_next)."""
    k = problem.kernel
    y = k.grad(x) - problem.gamma * problem.f.grad(x)
    x_next = bregman_prox(problem.h, k, problem.gamma, k.conj_grad(y))
    return y, x_next


def bregman_descent_check(f_test: float, f_curr: float, grad_curr: np.ndarray,
                          x_plain: np.ndarray, x_curr: np.ndarray,
                          gamma: float, kernel: Kernel) -> bool:
    """Surrogate decrease test for a candidate against the plain step.

    Accepts when f(candidate) does not exceed the upper model value
    f(x) + <grad f(x), x_plain - x> + D_phi(x_plain, x) / gamma that the
    plain step is guaranteed to satisfy (the descent lemma of Bauschke,
    Bolte & Teboulle 2017). Ties are accepted. D_phi costs phi(x), then
    phi(x_plain), and grad phi(x) from the kernel passed in;
    run_guarded_aa_bpg passes one that remembers the last two of each, so
    grad phi(x) is the step's mirror(x) and, after a fallback, phi(x) the
    last value remembered: the previous row's phi(x_plain).
    """
    step = x_plain - x_curr  # for both the gradient term and D_phi
    phi_curr = kernel.value(x_curr)
    distance = float(kernel.value(x_plain) - phi_curr
                     - kernel.grad(x_curr).dot(step))
    bound = f_curr + float(grad_curr.dot(step)) + distance / gamma
    return f_test <= bound


def _settled(x, g, y):
    """Coordinates settled on the boundary of the nonnegative orthant, or
    None: x_i <= 1e-8 max_j x_j with the mirror step still pointing into
    the boundary, g_i < y_i. The threshold is relative, so scaling x moves
    no coordinate in or out. Rows with no small x_i cost one reduction, one
    compare and one any.
    """
    low = x <= 1e-8 * x.max()
    if not low.any():
        return None
    low &= g < y
    return low if low.any() else None


def _geometry(kern: Kernel, h: NonsmoothTerm):
    """The kernel's mirror map, the Bregman proximal map back to x, and the
    settled-coordinate mask of _settled for the Shannon kernel (None for
    every other kernel).

    Where the kernel's grad and conj_grad are shannon_kernel's own maps (by
    identity, so wrapped maps are checked) and h = 0, the pair is the
    unchecked interior one, _shannon_mirror and _shannon_primal, with the
    same floats. Every x the loop maps is then a _shannon_primal output,
    at least tiny where it is not nan, or the start point run_bpg has
    already checked, and the loop's errstate stands in for conj_grad's own.
    The l1 and simplex proximal maps can underflow to 0, where the gradient
    must raise, so they keep the checked maps.
    """
    if (kern.grad is _shannon_grad and kern.conj_grad is _shannon_conj_grad
            and h.kind == "zero"):
        return (_shannon_mirror, lambda y, gamma: _shannon_primal(y),
                _settled)
    return (kern.grad,
            lambda y, gamma: bregman_prox(h, kern, gamma, kern.conj_grad(y)),
            _settled if kern.name == "shannon" else None)


def run_bpg(problem: BregmanProblem, x0, tol: float = 0.0,
            max_iters: int = 1000, keep_iterates: bool = False) -> SolveReport:
    """Plain Bregman proximal gradient from a primal point x0 in int dom phi."""
    gamma = _step_size(problem.f, problem.gamma)
    x = np.asarray(x0, dtype=float)
    mirror, to_primal, _ = _geometry(problem.kernel, problem.h)
    return _proximal_gradient(problem, x, problem.kernel.grad(x), gamma,
                              mirror, to_primal, tol=tol,
                              max_iters=max_iters, keep_iterates=keep_iterates)


def run_guarded_aa_bpg(problem: BregmanProblem, y0,
                       aa_config: AAConfig | None = None, tol: float = 0.0,
                       max_iters: int = 1000,
                       keep_iterates: bool = False) -> SolveReport:
    """Guarded mirror-variable extrapolation for Bregman proximal gradient.

    Starts from a dual point y0 (any point of R^n for the supported
    kernels), recovering x_0 through the conjugate gradient and proximal
    maps. Extrapolated candidates are accepted only when they pass the
    surrogate descent test against the plain step taken from the current
    iterate; rejected rounds fall back to that plain step. Candidates whose
    objective is not finite fail the test and are rejected the same way.
    f is assumed convex, as in the paper: a candidate x_c whose lower bound
    f(x) + <grad f(x), x_c - x> already fails the test is rejected without
    evaluating f. For a nonconvex f that can only turn an acceptance into
    a fallback, the safe plain step, so the guarantee stands.
    Steps with plain mixing weights are untested "plain" steps, so depth 0
    reproduces run_bpg. The guard reuses the step's kernel work: grad phi(x)
    is the mirror(x) of the step, and after a fallback phi(x) is the
    phi(x_plain) the previous row's guard computed, remembered by object
    identity.
    Under the Shannon kernel, extrapolation runs on the live support only.
    A coordinate is settled when x_i <= 1e-8 max_j x_j and its mirror step
    still points into the boundary (g_i < y_i, that is df/dx_i > 0 for
    h = 0). Settled coordinates push a zero residual and take the plain map
    value g_i after mixing, so their mirror variables stop steering the
    window. The recorded residual, which tol tests, leaves them out: it is
    the KKT residual. A row with no settled coordinate is the unmasked
    row, and every other kernel runs unmasked.
    """
    gamma = _step_size(problem.f, problem.gamma)
    if aa_config is None:
        aa_config = AAConfig(m=5)
    kern = problem.kernel
    if not kern.full_dual_domain:
        raise ValueError(
            "kernel %r does not cover the whole mirror space; "
            "extrapolated mirror points would leave its conjugate domain"
            % kern.name)
    mirror, to_primal, settled = _geometry(kern, problem.h)
    mirror = _IdentityMemo(mirror)
    kern = replace(kern, value=_IdentityMemo(kern.value), grad=mirror)
    y = np.asarray(y0, dtype=float)
    with np.errstate(over="ignore", under="ignore"):  # as conj_grad's own
        x = to_primal(y, gamma)
    return _proximal_gradient(problem, x, y, gamma, mirror, to_primal,
                              partial(bregman_descent_check, kernel=kern),
                              AndersonEngine(y.size, aa_config),
                              settled=settled, tol=tol,
                              max_iters=max_iters, keep_iterates=keep_iterates)
