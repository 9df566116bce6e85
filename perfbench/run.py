"""Benchmark command: one workload of reductionlab in this process.

    python3 perfbench/run.py --workload reduce-large --seed 1 --seconds 25 --trace 0

Workloads: reduce-large, verify-zoo, sweep-oracle (see README.md).
"""

import os
import sys

if __name__ == "__main__":
    # BLAS thread pools are sized when numpy loads, so pin them first: with
    # default threading one reduction at (8, 9) took 100x its median.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from harness import main

    sys.exit(main(sys.argv[1:]))
