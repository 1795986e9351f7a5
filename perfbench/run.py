"""Run one ssdml benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload ours-encoder --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a source checkout; it imports ``ssdml`` from
``src/`` there and nowhere else.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every check passed, 1 when a check or
an operation failed, 2 when the program could not be found or the
arguments are wrong.
"""

import os
import sys
from pathlib import Path

# One BLAS thread (at most nproc): set before numpy is imported.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import bench

    return bench.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
