"""Test-session set-up shared by every test directory.

pytest loads this file before any test module imports numpy, so BLAS reads
these variables when it starts: the suite runs on one BLAS thread, as
``perfbench/run.py`` and ``scripts/run_digests.py`` do.  With the default
thread count, two test processes on the same cores oversubscribe them, and
the wall-clock gates (criterion 1's 10 seconds) fail for reasons unrelated
to the code.  A value set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
