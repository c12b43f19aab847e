"""Anderson-accelerated proximal gradient and Bregman proximal gradient.

AAPROX_THREADS caps the numeric thread pools (default 1, for deterministic
runs). The caps are set below, before any submodule imports numpy; once a
BLAS library is initialized the environment is ignored.
"""

import os as _os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    _os.environ.setdefault(_var, _os.environ.get("AAPROX_THREADS", "1"))

from .anderson import (AAConfig, AndersonEngine, ExtrapolationCoefficients,
                       QrWindow, ResidualHistory, solve_coefficients)
from .bregman import (BregmanProblem, Kernel, UnsupportedProxError, bpg_step,
                      bregman_descent_check, bregman_distance, bregman_prox,
                      burg_kernel, energy_kernel, fermi_dirac_kernel,
                      hellinger_kernel, polynomial_kernel, run_bpg,
                      run_guarded_aa_bpg, shannon_kernel)
from .problems import (CompositeProblem, DomainError, KlLoss,
                       LeastSquaresLoss, LogisticLoss, NonsmoothTerm,
                       QuadraticLoss, box_indicator, kl_loss, l1_term,
                       least_squares_loss, logistic_loss, nonneg_indicator,
                       operator_norm_sq, prox_l1, simplex_indicator,
                       zero_term)
from .solvers import (IterationTrace, SolveReport, descent_check, pga_step,
                      run_aa_pga, run_guarded_aa_pga, run_nesterov_pga,
                      run_pga)
from .counterexample import (PiecewiseLoss, closed_form_step, grad_f,
                             run_counterexample, value_f)
from .datasets import (DatasetMatrix, generate_kl_instance,
                       generate_logreg_instance, generate_nnls_instance,
                       load_dense_csv, parse_libsvm, write_libsvm)

__version__ = "0.1.0"
