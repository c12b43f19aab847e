"""Anderson extrapolation for fixed-point iterations.

The engine keeps a sliding window of past map values and residuals, solves a
small sum-to-one least-squares problem for mixing coefficients, and proposes
the matching affine combination of past map values as the next iterate. With
depth m = 0 the proposal is the plain fixed-point step. The loop that runs
the engine is aaprox.solvers._proximal_gradient.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "AAConfig",
    "AndersonEngine",
    "ExtrapolationCoefficients",
    "QrWindow",
    "ResidualHistory",
    "solve_coefficients",
]

@dataclass
class ExtrapolationCoefficients:
    """Mixing weights over the window, newest entry first. Sums to one."""

    alpha: np.ndarray
    degenerate: bool = False


def _pure_fixed_point(p: int) -> np.ndarray:
    alpha = np.zeros(p)
    alpha[0] = 1.0  # weight on the newest entry: the plain step
    return alpha


@dataclass
class AAConfig:
    """Tuning knobs for the extrapolation engine.

    m is the window depth (m = 0 disables extrapolation). reg_scale weights
    a Tikhonov term reg_scale * ||R||_F^2 * ||alpha||_2^2 added to the
    coefficient problem; it is finite and nonnegative. The coefficients
    solve through dense normal equations over the residual window;
    use_qr_updates opts in to the incrementally updated QR window instead.
    Other settings raise ValueError.
    """

    m: int
    reg_scale: float = 1e-10
    use_qr_updates: bool = False

    def __post_init__(self):
        if (isinstance(self.m, bool)
                or not isinstance(self.m, numbers.Integral)):
            raise ValueError("window depth m must be an integer")
        if self.m < 0:
            raise ValueError("window depth m must be nonnegative")
        if not 0 <= self.reg_scale < math.inf:
            raise ValueError("reg_scale must be finite and nonnegative")


class ResidualHistory:
    """Sliding window over the last m + 1 (map value, residual) pairs.

    Index 0 is the newest pair. Pushing at capacity evicts the oldest. The
    pairs are copied into two C-ordered (n, m + 1) buffers, one for the map
    values and one for the residuals, allocated at the first push as one
    block and kept newest first: a push moves the block one entry along its
    flat memory, one contiguous copy that shifts every row right and drops
    the oldest column, and writes the new pair into column 0. residuals()
    and combine() then work on (n, p) views of the buffers, which have the
    values np.column_stack gives. newest() returns the pushed map value
    itself.
    """

    def __init__(self, m: int):
        if m < 0:
            raise ValueError("window depth m must be nonnegative")
        self.capacity = m + 1
        self._g: np.ndarray | None = None
        self._r: np.ndarray | None = None
        self._len = 0
        self._newest: np.ndarray | None = None

    def __len__(self) -> int:
        return self._len

    def push(self, g_val: np.ndarray, residual: np.ndarray) -> None:
        if self._g is None:
            block = np.empty((2, g_val.size, self.capacity))
            flat = block.reshape(-1)
            self._shift = flat[1:], flat[:-1]
            self._g, self._r = block
            self._col0 = self._g[:, 0], self._r[:, 0]
        # each row moves right by one; its oldest entry lands in column 0
        # of the next row, which the new pair overwrites
        dst, src = self._shift
        dst[...] = src
        g_col, r_col = self._col0
        g_col[...] = g_val
        r_col[...] = residual
        self._len = min(self._len + 1, self.capacity)
        self._newest = g_val

    def drop_oldest(self) -> None:
        if not self._len:
            raise IndexError("history is empty")
        self._len -= 1

    def newest(self) -> np.ndarray:
        if not self._len:
            raise IndexError("history is empty")
        return self._newest

    def residuals(self) -> np.ndarray:
        """Residuals as columns, newest first: a view the next push
        overwrites."""
        return self._r[:, :self._len]

    def combine(self, alpha: np.ndarray) -> np.ndarray:
        """The map values times alpha, newest first, as a new array."""
        if len(alpha) != self._len:
            raise ValueError("coefficient length does not match history length")
        return self._g[:, :self._len] @ alpha


def solve_coefficients(residuals: np.ndarray,
                       reg_scale: float = 0.0) -> ExtrapolationCoefficients:
    """Solve min ||R alpha||^2 + lam ||alpha||^2 subject to sum(alpha) = 1.

    lam = reg_scale * ||R||_F^2, so the regularization is relative to the
    residual scale. Columns of ``residuals`` are ordered newest first and
    alpha matches that order. On nonsingular normal matrices the result is
    (R^T R + lam I)^{-1} 1 normalized by its sum; it is computed through
    the bordered stationarity system

        [[R^T R + lam I, 1], [1^T, 0]] [alpha; nu] = [0; 1]

    which stays well posed when the window is rank deficient but the
    constrained minimizer is still unique (then the plain normal solve is
    singular even though the problem is not). The bordered matrix is filled
    in place: the Gram block is R.T @ R and lam goes on its diagonal only.
    It is solved by numpy's solve1, the gufunc np.linalg.solve calls for a
    1-D right-hand side, called directly: the same LAPACK dgesv and the
    same floats, without the wrapper's checks. A 2-D float64 array is used
    as given; anything else goes through np.asarray first, and a 1-D input
    is one row. A window with no columns is a ValueError.
    A degenerate system (factorization failure, nonfinite solution, or a
    multiplier beyond 1e300, which is sum(z) below 1e-300 in the normalized
    form) yields the pure fixed-point coefficients with the degenerate flag
    set. A singular system is degenerate without a floating-point warning.
    """
    R = residuals
    if not (type(R) is np.ndarray and R.ndim == 2 and R.dtype == np.float64):
        R = np.atleast_2d(np.asarray(R, dtype=float))
    p = R.shape[1]
    if p <= 1:
        if p == 0:
            raise ValueError("no residuals to combine: the window is empty")
        # the constraint forces alpha = [1] no matter what R contains
        return ExtrapolationCoefficients(np.ones(1))
    # (R * R).sum() without its wrapper, as is the sum of alpha below
    fro_sq = float(np.add.reduce(R * R, axis=None))
    if not math.isfinite(fro_sq) or fro_sq == 0.0:
        return ExtrapolationCoefficients(_pure_fixed_point(p), degenerate=True)
    kkt = np.empty((p + 1, p + 1))
    kkt.fill(1.0)  # np.ones, without its wrapper
    kkt[p, p] = 0.0
    # R.T @ R through the same BLAS route, written into the Gram block
    np.matmul(R.T, R, out=kkt[:p, :p])
    # every (p + 2)-th entry of the flat matrix is on the diagonal
    kkt.reshape(-1)[:p * (p + 2):p + 2] += reg_scale * fro_sq
    rhs = np.zeros(p + 1)
    rhs[p] = 1.0
    # where np.linalg.solve raises LinAlgError, solve1 gives nan and sets
    # the invalid flag; the nan takes the degenerate branch below
    with np.errstate(all="ignore"):
        sol = _umath_linalg.solve1(kkt, rhs, signature="dd->d")
    alpha = sol[:p]
    nu = float(sol[p])
    total = float(np.add.reduce(alpha, axis=None))
    # a non-finite alpha makes total inf or nan, and a nan nu fails <
    if not (abs(nu) < 1e300 and 1e-300 <= abs(total) < math.inf):
        return ExtrapolationCoefficients(_pure_fixed_point(p), degenerate=True)
    return ExtrapolationCoefficients(alpha / total)


def _givens(a: float, b: float) -> tuple[float, float]:
    if b == 0.0:
        return 1.0, 0.0
    den = math.hypot(a, b)
    return a / den, b / den


class QrWindow:
    """Thin QR factorization of a sliding column window.

    Columns are stored in arrival order (oldest first). Appending a column
    uses two passes of classical Gram-Schmidt, O(p) length-n vector
    operations; deleting the oldest column retriangularizes with Givens
    rotations, O(p) more vector operations plus O(p^2) scalar work. The
    factorization is never rebuilt from scratch.

    ``vector_ops`` counts length-n column operations (dots, axpys, scalings
    and rotations applied to Q), which is the structural cost of a slide.
    """

    def __init__(self, n: int, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.n = n
        self.capacity = capacity
        self.q = np.zeros((n, 0))
        self.r = np.zeros((0, 0))
        self.vector_ops = 0

    @property
    def width(self) -> int:
        return self.r.shape[1]

    def matrix(self) -> np.ndarray:
        """The window reconstructed as Q @ R."""
        return self.q @ self.r

    def append(self, column: np.ndarray) -> None:
        if self.width >= self.capacity:
            raise ValueError("window is full; drop a column first")
        v = np.asarray(column, dtype=float).copy()
        if v.shape != (self.n,):
            raise ValueError("column has the wrong length")
        p = self.width
        coeff = np.zeros(p)
        for _ in range(2):  # reorthogonalization pass keeps Q orthonormal
            proj = self.q.T @ v
            v -= self.q @ proj
            coeff += proj
            self.vector_ops += 2 * p
        rho = float(np.linalg.norm(v))
        self.vector_ops += 1
        if rho > 0.0:
            v /= rho
            self.vector_ops += 1
        # rho == 0 leaves a zero column in Q; the product Q @ R stays exact
        # and the zero diagonal raises the rank-deficiency signal.
        new_r = np.zeros((p + 1, p + 1))
        new_r[:p, :p] = self.r
        new_r[:p, p] = coeff
        new_r[p, p] = rho
        self.q = np.column_stack([self.q, v])
        self.r = new_r

    def drop_oldest(self) -> None:
        p = self.width
        if p == 0:
            raise IndexError("window is empty")
        h = self.r[:, 1:].copy()  # upper Hessenberg after deleting column 0
        q = self.q.copy()
        for j in range(p - 1):
            c, s = _givens(h[j, j], h[j + 1, j])
            if s != 0.0:
                rot = np.array([[c, s], [-s, c]])
                h[j:j + 2, j:] = rot @ h[j:j + 2, j:]
                q[:, j:j + 2] = q[:, j:j + 2] @ rot.T
                self.vector_ops += 2
        self.q = q[:, :p - 1]
        self.r = h[:p - 1, :]

    def slide(self, column: np.ndarray) -> None:
        if self.width == self.capacity:
            self.drop_oldest()
        self.append(column)

    @property
    def rank_deficient(self) -> bool:
        """True when some R diagonal entry falls below 1e-14 * ||R||_F."""
        if self.width == 0:
            return False
        diag = np.abs(np.diag(self.r))
        fro = float(np.linalg.norm(self.r))
        if fro == 0.0:
            return True
        return bool(diag.min() < 1e-14 * fro)

    def solve_coefficients(self, reg_scale: float) -> ExtrapolationCoefficients:
        """Coefficient solve through the p x p triangular factor.

        R^T R equals the normal matrix of the window, so the small solve
        matches the dense path; output is reordered newest first.
        """
        coeffs = solve_coefficients(self.r[::-1, ::-1], reg_scale)
        # reversing rows and columns of R presents the columns newest first
        # without changing the normal matrix beyond a symmetric permutation
        return coeffs


class AndersonEngine:
    """Window bookkeeping plus the coefficient solve and the mixing step.

    Coefficients come from solve_coefficients over the ResidualHistory;
    with config.use_qr_updates a QrWindow also keeps the residuals and its
    triangular factor feeds the solve, and only then does deficiency_count
    count rank-deficient pushes. Degenerate coefficient solves trigger one
    retry on a window shortened by its oldest entry before settling for the
    pure fixed-point weights. degenerate_count counts every degenerate
    solve, the retry's included, so a rescued solve counts once and an
    unrescued one twice. Weights and mixed points equal, bit for bit, those
    of the textbook route: np.column_stack, R^T R + lam I, np.linalg.solve
    and the stacked map values times alpha; the solve calls the gufunc
    behind np.linalg.solve directly, which gives the same floats.
    """

    def __init__(self, n: int, config: AAConfig):
        self.config = config
        self.history = ResidualHistory(config.m)
        self.window = (QrWindow(n, config.m + 1) if config.use_qr_updates
                       else None)
        self.degenerate_count = 0
        self.deficiency_count = 0

    def __len__(self) -> int:
        return len(self.history)

    def push(self, g_val: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Record g(y) and its residual g(y) - y; returns the residual."""
        residual = g_val - y
        self.history.push(g_val, residual)
        if self.window is not None:
            self.window.slide(residual)
            if self.window.rank_deficient:
                self.deficiency_count += 1
        return residual

    def _solve(self) -> ExtrapolationCoefficients:
        if self.window is not None:
            return self.window.solve_coefficients(self.config.reg_scale)
        return solve_coefficients(self.history.residuals(),
                                  self.config.reg_scale)

    def coefficients(self) -> ExtrapolationCoefficients:
        coeffs = self._solve()
        self.degenerate_count += coeffs.degenerate
        if coeffs.degenerate and len(self.history) > 1:
            self.history.drop_oldest()
            if self.window is not None:
                self.window.drop_oldest()
            coeffs = self._solve()
            self.degenerate_count += coeffs.degenerate
        return coeffs

    def extrapolate(self) -> tuple[np.ndarray, ExtrapolationCoefficients]:
        """The mixed map value and its weights; plain weights (1, 0, ..., 0)
        give the newest pushed map value itself, the same object, unmixed."""
        coeffs = self.coefficients()
        alpha = coeffs.alpha
        if alpha[0] == 1.0 and not alpha[1:].any():
            return self.history.newest(), coeffs
        return self.history.combine(alpha), coeffs

