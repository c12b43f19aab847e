"""Smooth losses, nonsmooth terms, and composite problem containers.

Losses expose value(x), grad(x) and a smoothness constant. For the
least-squares and logistic losses the default constant is exact: the top
squared singular value of A, scaled, plus 2 mu for the ridge term. Losses
remember their product at each of the last two points, keyed on the
argument object, so evaluating the value at a point and then the gradient
at the same point costs one product, even with one other point evaluated in
between. That product is A @ x, and each gradient adds one product with
A^T, except for least squares on a dense A with no more columns than rows:
it forms its normal matrix A^T A once and needs only the n x n product
A^T A x per point. Callers must not mutate iterate arrays in place. What
does not depend on the point is worked out at construction: the KL loss
finds its live rows (those not identically zero) once, so value, gradient
and domain check run on the live rows alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import aslinearoperator, eigsh
from scipy.special import expit


class DomainError(ValueError):
    """Evaluation outside the domain of a loss or kernel."""


class _IdentityMemo:
    """fn(x, *args) with its values at the last `size` arguments x remembered
    by object identity. args are not part of the key, and an x must not be
    mutated in place once passed."""

    def __init__(self, fn, size: int = 2):
        self._fn = fn
        self._memo = deque(maxlen=size)

    def __call__(self, x, *args):
        for key, val in self._memo:
            if key is x:
                return val
        val = self._fn(x, *args)
        self._memo.appendleft((x, val))
        return val


def _product(x, A):
    return np.asarray(A @ x).ravel()


def _positive_product(x, A):
    u = np.asarray(A @ x).ravel()
    if np.any(u <= 0.0):
        raise DomainError("A x must be positive on every nonzero row")
    return u


class LogisticLoss:
    """Mean logistic loss with a ridge term.

    value(x) = (1/M) sum_i log(1 + exp(-y_i a_i^T x)) + mu ||x||_2^2.
    Labels must be -1 or +1. The logistic part is evaluated through
    logaddexp, so margins of order 1e3 neither overflow nor lose the tail.
    """

    def __init__(self, A, y, mu: float = 0.0, smoothness: float | None = None):
        y = np.asarray(y, dtype=float)
        labels = np.unique(y)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1, got %r" % (labels,))
        self.A = A
        self.y = y
        self.mu = float(mu)
        self.M, self.n = A.shape
        if smoothness is None:
            smoothness = operator_norm_sq(A) / (4.0 * self.M) + 2.0 * self.mu
        self.smoothness = float(smoothness)
        self._product = _IdentityMemo(_product)

    def _margins(self, x):
        return -self.y * self._product(x, self.A)

    def value(self, x) -> float:
        t = self._margins(x)
        return float(np.mean(np.logaddexp(0.0, t)) + self.mu * np.dot(x, x))

    def grad(self, x) -> np.ndarray:
        t = self._margins(x)
        w = -self.y * expit(t)
        g = self.A.T @ w
        return np.asarray(g).ravel() / self.M + 2.0 * self.mu * x


class LeastSquaresLoss:
    """value(x) = ||A x - b||_2^2 / (2 M) + mu ||x||_2^2.

    Two routes, fixed at construction by A. A dense ndarray with n <= M
    takes the normal-matrix route: Q = A^T A, c = A^T b and b^T b are formed
    once, which holds n^2 doubles for Q, and value and gradient at x share
    one product Q x, remembered for the last two points:

        grad(x)  = (Q x - c) / M + 2 mu x,
        value(x) = (x^T Q x - 2 c^T x + b^T b) / (2 M) + mu ||x||^2.

    Near an exact fit the three terms of that value cancel. Whenever
    x^T Q x + 2 |c^T x| + b^T b exceeds 2^16 times their signed sum, which
    covers every negative sum, the value is taken from the residual
    instead. A value from Q therefore loses at most 16 bits to
    cancellation: its error is within about 2^16 times the rounding error
    of its terms.

    Sparse A, any other matrix-like A and wide dense A (n > M) take the
    residual route: r = A x - b with A x remembered for the last two points,
    value from ||r||^2 and gradient A^T r / M + 2 mu x.
    """

    def __init__(self, A, b, mu: float = 0.0, smoothness: float | None = None):
        self.A = A
        self.b = np.asarray(b, dtype=float)
        self.mu = float(mu)
        self.M, self.n = A.shape
        if smoothness is None:
            smoothness = operator_norm_sq(A) / self.M + 2.0 * self.mu
        self.smoothness = float(smoothness)
        self._product = _IdentityMemo(_product)
        self._normal = None
        if isinstance(A, np.ndarray) and self.n <= self.M:
            dense = np.asarray(A, dtype=float)
            self._normal = (dense.T @ dense, dense.T @ self.b,
                            float(np.dot(self.b, self.b)))
            # keyed on x alone, so Q x cannot share the memo of A x
            self._normal_product = _IdentityMemo(_product)

    def _resid(self, x):
        return self._product(x, self.A) - self.b

    def value(self, x) -> float:
        ridge = self.mu * np.dot(x, x)
        if self._normal is not None:
            Q, c, bb = self._normal
            quad = np.dot(x, self._normal_product(x, Q))
            lin = np.dot(c, x)
            sq = quad - 2.0 * lin + bb
            if quad + 2.0 * abs(lin) + bb <= 2.0 ** 16 * sq:
                return float(sq / (2.0 * self.M) + ridge)
        r = self._resid(x)
        return float(np.dot(r, r) / (2.0 * self.M) + ridge)

    def grad(self, x) -> np.ndarray:
        if self._normal is not None:
            Q, c, _ = self._normal
            return ((self._normal_product(x, Q) - c) / self.M
                    + 2.0 * self.mu * x)
        r = self._resid(x)
        g = self.A.T @ r
        return np.asarray(g).ravel() / self.M + 2.0 * self.mu * x


class KlLoss:
    """Relative entropy between A x and b: sum_i kl((Ax)_i, b_i).

    kl(u, v) = u log(u / v) - u + v with 0 log 0 = 0, which only arises on
    rows of A that are identically zero. A zero (Ax)_i on a row that is not
    identically zero sits on the boundary where the gradient blows up and
    raises DomainError. Requires A >= 0 elementwise and b > 0. The relative
    smoothness constant is the largest column 1-norm of A.

    The live rows, those not identically zero, are found at construction;
    each zero row contributes the constant b_i, summed once into a target
    mass. When every row is live, A and b are used as given.
    """

    def __init__(self, A, b):
        b = np.asarray(b, dtype=float)
        if np.any(b <= 0):
            raise ValueError("b must be positive")
        if (A < 0).sum() > 0:
            raise ValueError("A must be nonnegative")
        self.A = A
        self.b = b
        self.M, self.n = A.shape
        col_sums = np.asarray(A.sum(axis=0)).ravel()
        self.smoothness = float(col_sums.max())
        live = np.asarray(A.sum(axis=1)).ravel() != 0.0
        self._zero_row_mass = np.sum(b[~live])
        if not live.all():
            # not every sparse format can select rows; CSR can
            A = (A.tocsr()[live].asformat(A.format) if sparse.issparse(A)
                 else A[live])
            b = b[live]
        self._live_A, self._live_b = A, b
        self._product = _IdentityMemo(_positive_product)

    def value(self, x) -> float:
        u, b = self._product(x, self._live_A), self._live_b
        return float(np.sum(u * np.log(u / b) - u + b) + self._zero_row_mass)

    def grad(self, x) -> np.ndarray:
        ratio = np.log(self._product(x, self._live_A) / self._live_b)
        return np.asarray(self._live_A.T @ ratio).ravel()


class QuadraticLoss:
    """value(x) = 0.5 (x - c)^T H (x - c) for symmetric positive semidefinite H."""

    def __init__(self, H, center=None, smoothness: float | None = None):
        self.H = np.asarray(H, dtype=float)
        n = self.H.shape[0]
        self.n = n
        self.center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        if smoothness is None:
            smoothness = float(np.linalg.eigvalsh(self.H)[-1])
        self.smoothness = float(smoothness)

    def value(self, x) -> float:
        d = x - self.center
        return 0.5 * float(d @ (self.H @ d))

    def grad(self, x) -> np.ndarray:
        return self.H @ (x - self.center)


def logistic_loss(A, y, mu: float = 0.0) -> LogisticLoss:
    return LogisticLoss(A, y, mu)


def least_squares_loss(A, b, mu: float = 0.0) -> LeastSquaresLoss:
    return LeastSquaresLoss(A, b, mu)


def kl_loss(A, b) -> KlLoss:
    return KlLoss(A, b)


def operator_norm_sq(A) -> float:
    """Largest squared singular value of A.

    Lanczos (ARPACK) on the normal operator of A's smaller side, started
    from a fixed vector, so the same A always gives the same float.
    ArpackNoConvergence propagates.
    """
    # ARPACK takes neither a zero operator nor one of size 1
    if not (A.count_nonzero() if sparse.issparse(A) else np.any(A)):
        return 0.0
    op = aslinearoperator(A)
    normal = op.H @ op if op.shape[1] <= op.shape[0] else op @ op.H
    side = normal.shape[0]
    if side == 1:
        return float(normal.matvec(np.ones(1))[0])
    v0 = np.random.default_rng(0).standard_normal(side)
    return float(eigsh(normal, k=1, which="LA", v0=v0,
                       return_eigenvectors=False)[0])


def prox_l1(y: np.ndarray, threshold: float) -> np.ndarray:
    """Soft thresholding, the proximal map of threshold * ||.||_1."""
    return np.sign(y) * np.maximum(np.abs(y) - threshold, 0.0)


def project_box(y: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.clip(y, lo, hi)


def project_nonneg(y: np.ndarray) -> np.ndarray:
    return np.maximum(y, 0.0)


@dataclass
class NonsmoothTerm:
    """A nonsmooth term h with its scaled proximal map.

    prox(y, gamma) returns argmin_x gamma * h(x) + ||x - y||^2 / 2; kind and
    params let kernel-specific Bregman proximal maps dispatch on structure.
    """

    value: Callable[[np.ndarray], float]
    prox: Callable[[np.ndarray, float], np.ndarray] | None
    kind: str = "custom"
    params: dict = field(default_factory=dict)


def zero_term() -> NonsmoothTerm:
    return NonsmoothTerm(value=lambda x: 0.0, prox=lambda y, gamma: y, kind="zero")


def l1_term(lam: float) -> NonsmoothTerm:
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return NonsmoothTerm(
        value=lambda x: lam * float(np.sum(np.abs(x))),
        prox=lambda y, gamma: prox_l1(y, lam * gamma),
        kind="l1",
        params={"lam": lam},
    )


def box_indicator(lo: float = -1.0, hi: float = 1.0) -> NonsmoothTerm:
    if lo > hi:
        raise ValueError("empty box")

    def value(x):
        return 0.0 if np.all(x >= lo) and np.all(x <= hi) else np.inf

    return NonsmoothTerm(value=value,
                         prox=lambda y, gamma: project_box(y, lo, hi),
                         kind="box", params={"lo": lo, "hi": hi})


def nonneg_indicator() -> NonsmoothTerm:
    def value(x):
        return 0.0 if np.all(x >= 0.0) else np.inf

    return NonsmoothTerm(value=value,
                         prox=lambda y, gamma: project_nonneg(y),
                         kind="nonneg")


def simplex_indicator(rtol: float = 1e-9) -> NonsmoothTerm:
    """Indicator of the probability simplex.

    No Euclidean proximal map is attached; this term is meant for entropy
    kernel Bregman steps, where the map has a closed form.
    """

    def value(x):
        if np.all(x >= 0.0) and abs(float(np.sum(x)) - 1.0) <= rtol:
            return 0.0
        return np.inf

    return NonsmoothTerm(value=value, prox=None, kind="simplex")


@dataclass
class CompositeProblem:
    """Objective f + h with f smooth and h proximable."""

    f: object
    h: NonsmoothTerm
    n: int

    def objective(self, x) -> float:
        return float(self.f.value(x)) + float(self.h.value(x))
