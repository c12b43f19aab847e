"""Test set-up: the package's thread caps hold before numpy is loaded.

Importing aaprox caps the BLAS and OpenMP thread pools (AAPROX_THREADS,
default 1), and a BLAS library reads those caps once, when numpy first
loads it. The test modules import numpy before the package, so this file,
which pytest imports before any of them, imports the package first. Where
numpy is already loaded, the caps would be silently ignored, so that is an
error.
"""

import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before aaprox set its thread caps; the tests "
        "would run with the host's BLAS thread count")

import aaprox  # noqa: E402,F401  (sets the caps)
