"""Smooth losses, nonsmooth terms, and composite problem containers.

Losses expose value(x), grad(x) and a smoothness constant. For the
least-squares and logistic losses the default constant is exact: the top
squared singular value of A, scaled, plus 2 mu for the ridge term. Where
least squares forms A^T A (below), it takes that value as the top
eigenvalue of A^T A, by Lanczos through the symmetric product its
iterations use, and does not read A for it. Losses
remember what they derive from their product at each of the last two
points, keyed on the argument object, so evaluating the value at a point
and then the gradient at the same point costs one product, even with one
other point evaluated in between. That product is A @ x, and each gradient
adds one product with A^T, except for least squares on a dense A with no
more columns than rows: it forms its normal matrix A^T A once and needs
only one symmetric product A^T A x per point, which BLAS symv takes from
the upper triangle. Callers must not mutate iterate arrays in place.
What does not depend on the point is worked out at construction: the KL
loss finds its live rows (those not identically zero) once, so value,
gradient and domain check run on the live rows alone. Least squares
remembers A x, or A^T A x where it formed A^T A. The logistic loss
remembers the margins t = -y * (A x) with exp(-|t|), so the exponential
too is taken once per point, and the KL loss remembers
(A x, log(A x / b)), so the logarithm too is taken once per point.
Least squares and the logistic loss expose that product, linear in x, as
product(x) and take one handed to them by set_product(x, p): a momentum
row forms the product at its extrapolated point from those at its last
two iterates, and so pays one product instead of two.
The least-squares, logistic, KL and quadratic losses refuse data holding
a nan or an infinity at construction, before any other work.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dsymv
from scipy.sparse.linalg import LinearOperator, eigsh


class DomainError(ValueError):
    """Evaluation outside the domain of a loss or kernel."""


class UnsupportedProxError(ValueError):
    """No closed-form proximal map for this term (and kernel)."""


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
        return self.remember(x, self._fn(x, *args))

    def remember(self, x, val):
        """Take val as the value at x, as a call at x would have given it."""
        self._memo.appendleft((x, val))
        return val


def _vector(v):
    """A product A @ x, or a row or column sum of A, as a 1-D array: itself
    where it already is one, as an ndarray or scipy sparse A gives; a
    matrix-like A's 2-D result is flattened."""
    if type(v) is np.ndarray and v.ndim == 1:
        return v
    return np.asarray(v).ravel()


def _product(x, A):
    return _vector(A @ x)


def _symmetric_product(x, Q):
    """Q x for a symmetric, Fortran-ordered float64 Q, read from its upper
    triangle; the order lets BLAS take Q without a copy."""
    return dsymv(1.0, Q, x)


def _require_finite(name: str, a) -> None:
    """ValueError unless every stored float of a, dense or sparse, is finite.

    min and max propagate nan and bound any inf, and unlike
    np.isfinite(a).all() they build no array of a's size. A matrix-like
    that is neither an array nor sparse only offers products, so its
    entries are not read.
    """
    if sparse.issparse(a):
        # these formats hold exactly the stored entries in their data
        if a.format not in ("bsr", "coo", "csc", "csr"):
            a = a.tocsr()
        a = a.data
    a = np.asarray(a)
    if (a.dtype.kind == "f" and a.size
            and not (np.isfinite(a.min()) and np.isfinite(a.max()))):
        raise ValueError("%s must hold only finite values" % name)


def _canonical(A):
    """A, or a copy with duplicates summed and indices sorted where A is
    sparse and not in canonical format. scipy puts such a matrix into that
    format in place on count_nonzero or a comparison; code that reads A
    through this leaves the caller's A as given."""
    if sparse.issparse(A) and not getattr(A, "has_canonical_format", True):
        A = A.copy()
        A.sum_duplicates()
    return A


def _data(A, target, name: str):
    """(A through _canonical, target as floats); ValueError unless both are
    finite and target has exactly one entry per row of A."""
    _require_finite("A", A)
    _require_finite(name, target)
    A = _canonical(A)
    target = np.asarray(target, dtype=float)
    if target.shape != (A.shape[0],):
        raise ValueError("%s must have shape (%d,), one entry per row of A, "
                         "got %r" % (name, A.shape[0], target.shape))
    return A, target


def _weight(name: str, value) -> float:
    """value as a float; ValueError unless it is nonnegative and finite."""
    if not 0 <= value < np.inf:  # nan too
        raise ValueError("%s must be nonnegative and finite, got %r"
                         % (name, value))
    return float(value)


def _with_ridge(value: float, mu: float, x) -> float:
    """value + mu ||x||^2, with no work at mu = 0."""
    return value + mu * float(x.dot(x)) if mu else value


def _with_ridge_grad(g: np.ndarray, mu: float, x) -> np.ndarray:
    """g + 2 mu x, added into g, with no work at mu = 0."""
    if mu:
        g += 2.0 * mu * x
    return g


def _logistic_point(x, A, neg_y):
    """(t, exp(-|t|)) with margins t = -y * (A x), the pair LogisticLoss's
    value and gradient share, from neg_y = -y. A sign flip is exact, so
    (A x) * (-y) is the float -(y * (A x))."""
    return _logistic_pair(_vector(A @ x) * neg_y)


def _logistic_pair(t):
    """(t, exp(-|t|)) for margins t; copysign(t, -1) is -|t|."""
    e = np.copysign(t, -1.0)
    np.exp(e, out=e)
    return t, e


def _some_at_most(x, bound: float) -> bool:
    """(x <= bound).any() for a float array x; where its minimum is above
    bound, one reduction settles it without the elementwise test. The
    minimum is np.minimum.reduce, the float x.min() gives without its
    wrapper."""
    return (not (x.size and np.minimum.reduce(x, None) > bound)
            and bool((x <= bound).any()))


def _kl_point(x, A, b):
    """(A x, log(A x / b)), the pair KlLoss's value and gradient share;
    DomainError unless every entry of A x is positive."""
    u = _vector(A @ x)
    if _some_at_most(u, 0.0):
        raise DomainError("A x must be positive on every nonzero row")
    ratio = u / b
    return u, np.log(ratio, out=ratio)


class LogisticLoss:
    """Mean logistic loss with a ridge term.

    value(x) = (1/M) sum_i log(1 + exp(-y_i a_i^T x)) + mu ||x||_2^2.
    Labels must be -1 or +1. The pair (t, e) of margins t = -y * (A x) and
    e = exp(-|t|) is remembered for the last two points, so value and
    gradient at one point share one product with A and one exponential:

        value(x) = mean(max(t, 0) + log1p(e)) + mu ||x||^2,
        grad(x)  = A^T (-y * s) / M + 2 mu x,   s = expit(t),

    with s = 1 / (1 + e) where t >= 0 and e / (1 + e) where t < 0. Neither
    overflows, so margins of order 1e3 are fine, and neither loses the
    tail. Against a long-double reference over 2e5 normal margins of sd 5
    and 300 plus 0, +-36.9, +-745, +-800 and +-2000, each value term is
    within 1.6 ulp (np.logaddexp(0, t): 1.5) and each s within 2.3 ulp;
    scipy's expit flushes the subnormal s of t in (-745, -709) to zero.

    The ridge terms mu ||x||^2 and 2 mu x are only worked out for mu > 0.
    A and y must be finite with one label per row of A, and mu nonnegative
    and finite; the constructor raises ValueError otherwise.
    """

    def __init__(self, A, y, mu: float = 0.0, smoothness: float | None = None):
        self.mu = _weight("mu", mu)
        A, self.y = _data(A, y, "y")
        labels = np.unique(self.y)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1, got %r" % (labels,))
        self.A = A
        self._AT = A.T  # a sparse A builds its transpose anew on each .T
        self._neg_y = -self.y
        self.M, self.n = A.shape
        if smoothness is None:
            smoothness = operator_norm_sq(A) / (4.0 * self.M) + 2.0 * self.mu
        self.smoothness = float(smoothness)
        self._point = _IdentityMemo(_logistic_point)

    def value(self, x) -> float:
        t, e = self._point(x, self.A, self._neg_y)
        v = np.maximum(t, 0.0)
        v += np.log1p(e)
        # the float v.mean() gives, without its wrapper
        return _with_ridge(float(v.sum()) / self.M, self.mu, x)

    def grad(self, x) -> np.ndarray:
        t, e = self._point(x, self.A, self._neg_y)
        # e <= 1, so this is np.where(t >= 0, 1.0, e) without its branches
        w = np.maximum(e, t >= 0.0)
        w /= 1.0 + e
        w *= self._neg_y
        # numpy converts a Python int divisor anew on each call; the float
        # of M divides to the same floats, faster
        g = _vector(self._AT @ w) / float(self.M)
        return _with_ridge_grad(g, self.mu, x)

    def product(self, x) -> np.ndarray:
        """The margins t = -y * (A x), which value and grad derive from."""
        return self._point(x, self.A, self._neg_y)[0]

    def set_product(self, x, t) -> None:
        """Take t, kept and not to be written into, as product(x)."""
        self._point.remember(x, _logistic_pair(t))


class LeastSquaresLoss:
    """value(x) = ||A x - b||_2^2 / (2 M) + mu ||x||_2^2.

    Two routes, fixed at construction by A. A dense ndarray with n <= M
    takes the normal-matrix route: Q = A^T A, c = A^T b and b^T b are formed
    once, which holds n^2 doubles for Q, and value and gradient at x share
    one symmetric product Q x, remembered for the last two points. BLAS
    symv takes that product from the upper triangle of Q alone. The default
    smoothness constant is lambda_max(Q) / M + 2 mu, with lambda_max(Q) from
    Lanczos through that same symv product, so it is the top eigenvalue of
    the rounded Q the iterations apply:

        grad(x)  = (Q x - c) / M + 2 mu x,
        value(x) = (x^T Q x - 2 c^T x + b^T b) / (2 M) + mu ||x||^2.

    Near an exact fit the three terms of that value cancel. Whenever
    x^T Q x + 2 |c^T x| + b^T b exceeds 2^16 times their signed sum, which
    covers every negative sum, the value is taken from the residual
    instead. The test scales the terms by 2^-16, not the sum by 2^16, so a
    finite value never overflows in it. A value from Q therefore loses at
    most 16 bits to cancellation: its error is within about 2^16 times the
    rounding error of its terms.

    Sparse A, any other matrix-like A and wide dense A (n > M) take the
    residual route: r = A x - b with A x remembered for the last two points,
    value from ||r||^2 and gradient A^T r / M + 2 mu x. Their default
    smoothness constant is operator_norm_sq(A) / M + 2 mu.

    The value's scalar arithmetic is done on Python floats, and the ridge
    terms mu ||x||^2 and 2 mu x are only worked out for mu > 0. A and b
    must be finite with one entry of b per row of A, and mu nonnegative and
    finite, or the constructor raises ValueError; a matrix-like A that is
    neither an array nor sparse is not read.
    """

    def __init__(self, A, b, mu: float = 0.0, smoothness: float | None = None):
        self.mu = _weight("mu", mu)
        A, self.b = _data(A, b, "b")
        self.A, self._AT = A, A.T
        self.M, self.n = A.shape
        self._product = _IdentityMemo(_product)
        self._normal = None
        if isinstance(A, np.ndarray) and self.n <= self.M:
            dense = np.asarray(A, dtype=float)
            # the product is exactly symmetric, so its transpose is the
            # same matrix in Fortran order
            Q = (dense.T @ dense).T
            self._normal = (Q, dense.T @ self.b, float(np.dot(self.b, self.b)))
            # keyed on x alone, so Q x cannot share the memo of A x
            self._normal_product = _IdentityMemo(_symmetric_product)
            if smoothness is None:
                # Q is positive semidefinite, so it is zero where its
                # diagonal is
                top = _top_eigenvalue(lambda v: _symmetric_product(v, Q),
                                      self.n, Q.dtype, Q.diagonal().any())
                smoothness = top / self.M + 2.0 * self.mu
        if smoothness is None:
            smoothness = operator_norm_sq(A) / self.M + 2.0 * self.mu
        self.smoothness = float(smoothness)

    def _resid(self, x):
        return self._product(x, self.A) - self.b

    def value(self, x) -> float:
        if self._normal is not None:
            Q, c, bb = self._normal
            quad = float(x.dot(self._normal_product(x, Q)))
            lin = float(c.dot(x))
            sq = quad - 2.0 * lin + bb
            if (quad * 2.0 ** -16 + abs(lin) * 2.0 ** -15
                    + bb * 2.0 ** -16 <= sq):
                return _with_ridge(sq / (2.0 * self.M), self.mu, x)
        r = self._resid(x)
        return _with_ridge(float(r.dot(r)) / (2.0 * self.M), self.mu, x)

    def grad(self, x) -> np.ndarray:
        if self._normal is not None:
            Q, c, _ = self._normal
            g = self._normal_product(x, Q) - c
            g /= float(self.M)  # as in LogisticLoss.grad
        else:
            g = _vector(self._AT @ self._resid(x)) / float(self.M)
        return _with_ridge_grad(g, self.mu, x)

    def product(self, x) -> np.ndarray:
        """Q x on the normal route, else A x: what value and grad use."""
        if self._normal is not None:
            return self._normal_product(x, self._normal[0])
        return self._product(x, self.A)

    def set_product(self, x, p) -> None:
        """Take p, kept and not to be written into, as product(x)."""
        (self._product if self._normal is None
         else self._normal_product).remember(x, p)


class KlLoss:
    """Relative entropy between A x and b: sum_i kl((Ax)_i, b_i).

    kl(u, v) = u log(u / v) - u + v with 0 log 0 = 0, which only arises on
    rows of A that are identically zero. A zero (Ax)_i on a row that is not
    identically zero sits on the boundary where the gradient blows up and
    raises DomainError. Requires finite A >= 0 elementwise and finite b > 0
    with one entry per row of A, or the constructor raises ValueError. The
    relative smoothness constant is the largest column 1-norm of A.

    The live rows, those not identically zero, are found at construction;
    each zero row contributes the constant b_i, summed once into a target
    mass. When every row is live, A and b are used as given. The pair
    (A x, log(A x / b)) on the live rows is remembered for the last two
    points, so value and gradient at one point share one product with A,
    one domain check and one logarithm:

        value(x) = sum(u * log(u / b) - u + b) + mass,
        grad(x)  = A^T log(u / b),   u = A x.
    """

    def __init__(self, A, b):
        A, b = _data(A, b, "b")
        if np.any(b <= 0):
            raise ValueError("b must be positive")
        if (A < 0).sum() > 0:
            raise ValueError("A must be nonnegative")
        self.A = A
        self.b = b
        self.M, self.n = A.shape
        self.smoothness = float(_vector(A.sum(axis=0)).max())
        live = _vector(A.sum(axis=1)) != 0.0
        self._zero_row_mass = np.sum(b[~live])
        if not live.all():
            # not every sparse format can select rows; CSR can
            A = (A.tocsr()[live].asformat(A.format) if sparse.issparse(A)
                 else A[live])
            b = b[live]
        self._live_A, self._live_b = A, b
        self._live_AT = A.T  # a sparse A builds its transpose anew on each .T
        self._point = _IdentityMemo(_kl_point)

    def value(self, x) -> float:
        b = self._live_b
        u, ratio = self._point(x, self._live_A, b)
        t = u * ratio
        t -= u
        t += b
        return float(t.sum() + self._zero_row_mass)

    def grad(self, x) -> np.ndarray:
        _, ratio = self._point(x, self._live_A, self._live_b)
        return _vector(self._live_AT @ ratio)


class QuadraticLoss:
    """value(x) = 0.5 (x - c)^T H (x - c) for symmetric positive semidefinite H."""

    def __init__(self, H, center=None, smoothness: float | None = None):
        _require_finite("H", H)
        _require_finite("center", center)
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


logistic_loss = LogisticLoss
least_squares_loss = LeastSquaresLoss
kl_loss = KlLoss


def _top_eigenvalue(matvec, side: int, dtype, nonzero) -> float:
    """Largest eigenvalue of the symmetric positive semidefinite operator
    of size side x side whose product is matvec, in dtype.

    Lanczos (ARPACK), started from a fixed vector, so the same operator
    always gives the same float. ARPACK takes neither a zero operator nor
    one of size 1: the caller says whether the operator is nonzero, a zero
    one gives 0, and one of size 1 gives its entry. ArpackNoConvergence
    propagates.
    """
    if not nonzero:
        return 0.0
    if side == 1:
        return float(matvec(np.ones(1))[0])
    op = LinearOperator((side, side), dtype=dtype, matvec=matvec)
    v0 = np.random.default_rng(0).standard_normal(side)
    return float(eigsh(op, k=1, which="LA", v0=v0,
                       return_eigenvectors=False)[0])


def operator_norm_sq(A) -> float:
    """Largest squared singular value of A.

    The top eigenvalue (_top_eigenvalue) of the normal operator of A's
    smaller side. Its products go through A and A^T, a view for a real A,
    so A is not copied unless it is sparse and not in canonical format
    (_canonical), or holds a type narrower than float64: an array or
    sparse A of float32 or integers is read as float64, and one of
    complex64 as complex128, so that Lanczos runs in double precision. A
    matrix-like with no dtype is taken to be real.
    """
    A = _canonical(A)
    dtype = np.result_type(getattr(A, "dtype", np.float64), np.float64)
    if ((isinstance(A, np.ndarray) or sparse.issparse(A))
            and A.dtype != dtype):
        A = A.astype(dtype)
    side = min(A.shape)
    At = A.T.conj() if np.iscomplexobj(A) else A.T
    first, second = (A, At) if A.shape[1] <= A.shape[0] else (At, A)
    return _top_eigenvalue(  # A^T A or A A^T
        lambda v: _product(_product(v, first), second), side, dtype,
        A.count_nonzero() if sparse.issparse(A) else np.any(A))


def prox_l1(y: np.ndarray, threshold: float) -> np.ndarray:
    """Soft thresholding, the proximal map of threshold * ||.||_1."""
    return np.sign(y) * np.maximum(np.abs(y) - threshold, 0.0)


@dataclass
class NonsmoothTerm:
    """A nonsmooth term h with its scaled proximal map.

    prox(y, gamma) returns argmin_x gamma * h(x) + ||x - y||^2 / 2; kind and
    params let kernel-specific Bregman proximal maps dispatch on structure.
    A kind in PROJECTION_KINDS promises that h is an indicator and prox the
    projection onto its set, so h is 0 at every finite prox output; the
    solver loops then never call value on the points they record.
    """

    value: Callable[[np.ndarray], float]
    prox: Callable[[np.ndarray, float], np.ndarray] | None
    kind: str = "custom"
    params: dict = field(default_factory=dict)


def zero_term() -> NonsmoothTerm:
    return NonsmoothTerm(value=lambda x: 0.0, prox=lambda y, gamma: y, kind="zero")


def l1_term(lam: float) -> NonsmoothTerm:
    _weight("lam", lam)
    return NonsmoothTerm(
        value=lambda x: lam * float(np.abs(x).sum()),
        prox=lambda y, gamma: prox_l1(y, lam * gamma),
        kind="l1",
        params={"lam": lam},
    )


# The prox of an indicator is the projection onto its set (Beck 2017,
# First-Order Methods in Optimization, ch. 6), so a finite prox output of a
# term of these kinds lies in the set, where h is 0. The solver loops record
# f alone at such points; a custom term of these kinds must keep the promise.
PROJECTION_KINDS = frozenset({"box", "nonneg"})


def _euclidean_prox(h: NonsmoothTerm):
    """h.prox, or UnsupportedProxError where h has none."""
    if h.prox is None:
        raise UnsupportedProxError(
            "term %r has no Euclidean proximal map" % h.kind)
    return h.prox


def box_indicator(lo: float = -1.0, hi: float = 1.0) -> NonsmoothTerm:
    if not lo <= hi:  # nan too
        raise ValueError("box needs lo <= hi, got lo=%r, hi=%r" % (lo, hi))

    def value(x):
        return 0.0 if (x >= lo).all() and (x <= hi).all() else np.inf

    return NonsmoothTerm(value=value,
                         # np.clip's ufunc without its wrapper; unlike
                         # np.minimum(np.maximum(...)) it keeps signed zeros
                         prox=lambda y, gamma: y.clip(lo, hi),
                         kind="box", params={"lo": lo, "hi": hi})


def nonneg_indicator() -> NonsmoothTerm:
    def value(x):
        return 0.0 if (x >= 0.0).all() else np.inf

    return NonsmoothTerm(value=value,
                         prox=lambda y, gamma: np.maximum(y, 0.0),
                         kind="nonneg")


def simplex_indicator() -> NonsmoothTerm:
    """Indicator of the probability simplex: 0 where x >= 0 and sum(x) is
    within 1e-9 of 1, inf elsewhere.

    No Euclidean proximal map is attached; this term is meant for entropy
    kernel Bregman steps, where the map has a closed form.
    """

    def value(x):
        if (x >= 0.0).all() and abs(float(x.sum()) - 1.0) <= 1e-9:
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
