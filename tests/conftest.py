"""One BLAS thread for the test process, as ``cli.main`` gives each CLI run.

pytest loads this file before any test module imports numpy.  Unless the
caller set one of the three thread counts, all three are set to 1 here, so
numpy's OpenBLAS starts no thread that spins beside the in-process tests.
Tests that need a clean environment (``tests/test_experiments.py::_blas_run``)
drop the three from the environment they pass to their children.
"""

import os

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
