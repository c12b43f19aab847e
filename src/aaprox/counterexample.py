"""A scalar problem on which unguarded depth-1 extrapolation cycles forever.

The objective is strongly convex and smooth (curvature 25 on |x| < 1 and
1/10 outside, glued continuously), yet extrapolated gradient descent with
window depth 1 and step 1/25, started anywhere in [2.01, 246.98], falls
into a four-phase cycle instead of converging: two of the four iterate
subsequences land exactly on +249 and -249, the other two spiral onto
+-249 (sqrt(5) - 2). A closed form for the depth-1 step makes the whole
trajectory checkable by hand.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .anderson import AAConfig
from .problems import CompositeProblem, zero_term
from .solvers import run_aa_pga

__all__ = [
    "CURVATURE_INNER",
    "CURVATURE_OUTER",
    "CYCLE_POINT",
    "SPIRAL_POINT",
    "STEP",
    "CycleReport",
    "PiecewiseLoss",
    "closed_form_step",
    "grad_f",
    "run_counterexample",
    "value_f",
]

CURVATURE_INNER = 25.0     # second derivative on |x| < 1
CURVATURE_OUTER = 0.1      # second derivative on |x| > 1
STEP = 1.0 / CURVATURE_INNER

# the two-phase cycle hits +-CYCLE_POINT exactly; the other two
# subsequences converge onto +-SPIRAL_POINT
CYCLE_POINT = 249.0
SPIRAL_POINT = 249.0 * (math.sqrt(5.0) - 2.0)

BASIN = (2.01, 246.98)     # starts in this interval produce the cycle


def grad_f(x):
    """Gradient: 25 x in the middle band, slope 1/10 with offset outside."""
    x = np.asarray(x, dtype=float)
    out = np.where(
        x < -1.0, 0.1 * x - 24.9,
        np.where(x < 1.0, 25.0 * x, 0.1 * x + 24.9),
    )
    return out if out.ndim else float(out)


def value_f(x):
    """Antiderivative of grad_f with value 12.5 at |x| = 1 (continuous)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.where(ax <= 1.0, 12.5 * x * x,
                   0.05 * x * x + 24.9 * ax - 12.45)
    return out if out.ndim else float(out)


class PiecewiseLoss:
    """The cycling objective as a smooth loss on R^1, for the drivers."""

    smoothness = 1.0 / STEP

    def value(self, x):
        return float(value_f(x[0]))

    def grad(self, x):
        return np.atleast_1d(np.asarray(grad_f(x), dtype=float))


def closed_form_step(x_curr: float, x_prev: float) -> float:
    """Depth-1 extrapolated gradient step written in closed form.

    With a = grad_f(x_curr) and b = grad_f(x_prev) the mixing weights are
    b / (b - a) and -a / (b - a), and the gradient parts of the two mixed
    points cancel exactly, leaving (b x_curr - a x_prev) / (b - a). Equal
    gradients degenerate to the plain step x_curr - STEP * a.
    """
    a = float(grad_f(x_curr))
    b = float(grad_f(x_prev))
    if a == b:
        return x_curr - STEP * a
    return (b * x_curr - a * x_prev) / (b - a)


@dataclass
class CycleReport:
    iterates: np.ndarray          # x_0, x_1, ...
    closed_form: np.ndarray       # same trajectory from closed_form_step
    max_closed_form_gap: float
    limit_points: dict            # tail value of each phase subsequence

    def phase(self, offset: int) -> np.ndarray:
        """Iterates x_{4n + offset} for offset in 3, 4, 5, 6."""
        if not 3 <= offset <= 6:
            raise ValueError("offset must be between 3 and 6")
        return self.iterates[offset::4]

    @property
    def cycles(self) -> np.ndarray:
        """One row (x_{4n+3}, x_{4n+4}, x_{4n+5}, x_{4n+6}) per full cycle."""
        n_full = (len(self.iterates) - 3) // 4
        return np.column_stack([self.phase(off)[:n_full]
                                for off in (3, 4, 5, 6)])


def run_counterexample(x0: float, n_cycles: int = 50) -> CycleReport:
    """Run the cycling configuration for n_cycles four-step periods.

    Runs run_aa_pga on PiecewiseLoss with h = 0, window depth 1, no
    Tikhonov term, step 1/25 and tol 0, keeping every iterate, and
    cross-checks each against the closed form, warning when they drift
    apart by more than 1e-8. A non-finite x0, or an n_cycles that is not a
    nonnegative integer (a bool included), raises ValueError.
    """
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite, got %r" % x0)
    if (isinstance(n_cycles, bool)
            or not isinstance(n_cycles, numbers.Integral)):
        raise ValueError("n_cycles must be an integer, got %r" % (n_cycles,))
    if n_cycles < 0:
        raise ValueError("n_cycles must be nonnegative, got %r" % n_cycles)
    if not BASIN[0] <= x0 <= BASIN[1]:
        warnings.warn("x0 = %g is outside [%g, %g]; the four-phase cycle "
                      "is only guaranteed inside" % (x0, *BASIN))
    problem = CompositeProblem(PiecewiseLoss(), zero_term(), 1)
    report = run_aa_pga(problem, [x0], STEP, AAConfig(m=1, reg_scale=0.0),
                        tol=0.0, max_iters=4 * n_cycles + 6,
                        keep_iterates=True)
    iterates = np.concatenate([[x0], *report.trace.iterates])

    closed = np.empty_like(iterates)
    closed[0] = x0
    closed[1] = x0 - STEP * float(grad_f(x0))
    for k in range(1, len(closed) - 1):
        closed[k + 1] = closed_form_step(closed[k], closed[k - 1])
    gap = float(np.max(np.abs(iterates - closed)))
    if gap > 1e-8:
        warnings.warn("engine and closed form diverged by %g" % gap)

    # convergent starts outside the basin can stop the run early on an
    # exact-zero residual, leaving some subsequences empty
    limits = {off: float(iterates[off::4][-1]) for off in (3, 4, 5, 6)
              if len(iterates) > off}
    return CycleReport(iterates, closed, gap, limits)
