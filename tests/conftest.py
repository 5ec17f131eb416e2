"""Shared test settings.

numpy's OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy is first
imported; pytest loads this file before any test module imports numpy. The
MLP's small products gain almost nothing from a second BLAS thread, which
spins and slows whatever runs beside the tests, so one thread is the
default; a value set in the environment still wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
